"""JSON document formats for the command line.

Every document is a JSON object with a "kind" discriminator.  Printing is
canonical: keys sorted, two-space indent, every list field in a fixed
sort order, trailing newline.  parse followed by print is the identity on
canonically printed documents, which keeps goldens byte-stable.

Multisets are serialized as sorted (element, multiplicity) pairs, input
sets of ideal relations as sorted element lists, finite relations and maps
as sorted pair lists.

A command names the kind it reads with `load_document(path, kind=...)`;
a valid document of another kind is then rejected with one SchemaError
that names both kinds.
"""

import json
from dataclasses import dataclass, field

from . import cat, models, poly, poset, rel
from .errors import SchemaError
from .rel import _skey


def _is_int(v):
    # bool is an int subclass, but true is not a count
    return isinstance(v, int) and not isinstance(v, bool)


def _need(doc, key, types, kind):
    if key not in doc:
        raise SchemaError(f"{kind}: missing field {key!r}")
    v = doc[key]
    if not isinstance(v, types):
        raise SchemaError(f"{kind}: field {key!r} has the wrong shape")
    return v


def _atoms(values, kind, what):
    """Carrier elements and the like: JSON scalars, so they can be hashed."""
    for v in values:
        if isinstance(v, (list, dict)):
            raise SchemaError(f"{kind}: {what} must be strings or numbers, "
                              f"not {json.dumps(v)}")
    return values


def _pairs(doc, key, kind, width=2, atoms=True):
    """The `width`-element entries of list field `key`, as tuples; with
    `atoms`, every entry item must be a JSON scalar."""
    raw = _need(doc, key, list, kind)
    out = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != width:
            raise SchemaError(f"{kind}: {key!r} entries must be "
                              f"{width}-element lists")
        if atoms:
            _atoms(entry, kind, f"{key} entries")
        out.append(tuple(entry))
    return out


@dataclass
class SuiteConfig:
    models: list
    draws: int = 60
    seed: int = 0
    categories: list = field(default_factory=list)


# --- parsing ---------------------------------------------------------------------

def parse_document(text, validate=True, kind=None):
    """The object `text` describes.  With `kind`, a document of another
    kind is rejected once it has been parsed and validated, so a broken
    document reports its own problems first."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    found = doc.get("kind")
    if not isinstance(found, str) or found not in _PARSERS:
        raise SchemaError(f"unknown kind {found!r}")
    obj = _PARSERS[found](doc, validate)
    if kind is not None and found != kind:
        raise SchemaError(f"expected a document of kind {kind!r}, "
                          f"not {found!r}")
    return obj


def load_document(path, validate=True, kind=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SchemaError(f"{path}: {e}") from e
    try:
        return parse_document(text, validate, kind)
    except SchemaError as e:
        raise SchemaError(f"{path}: {e}") from e


def _parse_poset(doc, validate):
    elements = _atoms(_need(doc, "elements", list, "poset"), "poset",
                      "elements")
    leq = _pairs(doc, "leq", "poset")
    bottom = _need(doc, "bottom", (str, int), "poset")
    return poset.PointedPoset(elements, leq, bottom,
                              name=doc.get("name", "P"), _validate=validate)


def _parse_monotone_map(doc, validate):
    src = _parse_poset(_need(doc, "source", dict, "monotone-map"), validate)
    tgt = _parse_poset(_need(doc, "target", dict, "monotone-map"), validate)
    assignment = dict(_pairs(doc, "assignment", "monotone-map"))
    return poset.MonotoneMap(src, tgt, assignment,
                             name=doc.get("name", "f"), _validate=validate)


def _parse_mrel(doc, validate):
    source = tuple(_atoms(_need(doc, "source", list, "multiset-relation"),
                          "multiset-relation", "source elements"))
    target = tuple(_atoms(_need(doc, "target", list, "multiset-relation"),
                          "multiset-relation", "target elements"))
    pairs = set()
    for entry in _need(doc, "pairs", list, "multiset-relation"):
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError("multiset-relation: pairs entries must be "
                              "[multiset, output]")
        m, b = entry
        _atoms([b], "multiset-relation", "outputs")
        if not isinstance(m, list):
            raise SchemaError("multiset-relation: premise must be a list of "
                              "(element, multiplicity) pairs")
        for cell in m:
            if not isinstance(cell, list) or len(cell) != 2 \
                    or not _is_int(cell[1]) or cell[1] < 1:
                raise SchemaError("multiset-relation: bad multiplicity entry")
            _atoms(cell[:1], "multiset-relation", "premise elements")
        # counts are summed, never expanded: a premise costs its length
        pairs.add((rel.mset_union(m), b))
    r = rel.MultisetRel(source, target, pairs, name=doc.get("name", "R"),
                        _validate=validate)
    return r


def _parse_preorder(doc, validate):
    return rel.Preorder(_atoms(_need(doc, "elements", list, "preorder"),
                               "preorder", "elements"),
                        _pairs(doc, "leq", "preorder"),
                        name=doc.get("name", "Q"), _validate=validate)


def _parse_ideal(doc, validate):
    src = _parse_preorder(_need(doc, "source", dict, "ideal-relation"), validate)
    tgt = _parse_preorder(_need(doc, "target", dict, "ideal-relation"), validate)
    pairs = set()
    for entry in _need(doc, "pairs", list, "ideal-relation"):
        if not isinstance(entry, list) or len(entry) != 2 \
                or not isinstance(entry[0], list):
            raise SchemaError("ideal-relation: pairs entries must be "
                              "[input-set, output]")
        _atoms([*entry[0], entry[1]], "ideal-relation", "pairs elements")
        pairs.add((rel.uset(entry[0]), entry[1]))
    return rel.IdealRel(src, tgt, pairs, name=doc.get("name", "R"),
                        _validate=validate)


def _parse_category(doc, validate):
    arrows = [cat.Arrow(*entry)
              for entry in _pairs(doc, "arrows", "category", width=3)]
    identity = dict(_pairs(doc, "identity", "category"))
    table = {(g, f): gf
             for (g, f, gf) in _pairs(doc, "table", "category", width=3)}
    return cat.FinCategory(_atoms(_need(doc, "objects", list, "category"),
                                  "category", "objects"),
                           arrows, identity, table,
                           name=doc.get("name", "C"), _validate=validate)


def _parse_functor(doc, validate):
    src = _parse_category(_need(doc, "source", dict, "functor"), validate)
    tgt = _parse_category(_need(doc, "target", dict, "functor"), validate)
    return cat.FunctorData(src, tgt,
                           dict(_pairs(doc, "omap", "functor")),
                           dict(_pairs(doc, "amap", "functor")),
                           name=doc.get("name", "F"), _validate=validate)


def _parse_nat_transf(doc, validate):
    src = _parse_functor(_need(doc, "source", dict, "nat-transf"), validate)
    tgt = _parse_functor(_need(doc, "target", dict, "nat-transf"), validate)
    return cat.NatTransfData(src, tgt,
                             dict(_pairs(doc, "components", "nat-transf")),
                             name=doc.get("name", "alpha"),
                             _validate=validate)


def _slot_id(v, kind):
    """A slot id: a JSON scalar, or a list of slot ids read as a tuple (slot
    ids built by the library are tuples; JSON carries them as lists)."""
    if isinstance(v, list):
        return tuple(_slot_id(x, kind) for x in v)
    _atoms([v], kind, "slot ids")
    return v


def _parse_polynomial(doc, validate):
    kind = "polynomial"
    slots = [_slot_id(e, kind) for e in _need(doc, "slots", list, kind)]
    s = {_slot_id(e, kind): i
         for (e, i) in _pairs(doc, "slot_input", kind, atoms=False)}
    p = {_slot_id(e, kind): b
         for (e, b) in _pairs(doc, "slot_constructor", kind, atoms=False)}
    _atoms(s.values(), kind, "slot inputs")
    _atoms(p.values(), kind, "slot constructors")
    return poly.Polynomial(_atoms(_need(doc, "inputs", list, kind), kind,
                                  "inputs"),
                           slots,
                           _atoms(_need(doc, "constructors", list, kind), kind,
                                  "constructors"),
                           _atoms(_need(doc, "outputs", list, kind), kind,
                                  "outputs"),
                           s, p,
                           dict(_pairs(doc, "constructor_output", kind)),
                           name=doc.get("name", "P"), _validate=validate)


def _parse_system(doc, validate):
    kind = "coalgebra-system"
    p = _parse_polynomial(_need(doc, "polynomial", dict, kind), validate)
    step = {}
    for entry in _need(doc, "step", list, kind):
        if not isinstance(entry, list) or len(entry) != 3 \
                or not isinstance(entry[2], list):
            raise SchemaError("coalgebra-system: step entries must be "
                              "[state, constructor, successor-pairs]")
        x, b, nxt = entry
        _atoms([x, b], kind, "states and constructors")
        succ = {}
        for pair in nxt:
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError("coalgebra-system: successor entries must "
                                  "be [slot, state] pairs")
            e, y = pair
            _atoms([y], kind, "states")
            succ[_slot_id(e, kind)] = y
        step[x] = (b, succ)
    if not p.is_endo():
        raise SchemaError("coalgebra-system: polynomial must be an "
                          "endo-polynomial over one index")
    return poly.CoalgebraSystem(p, _atoms(_need(doc, "states", list, kind),
                                          kind, "states"),
                                step, name=doc.get("name", "S"),
                                _validate=validate)


def _parse_suite_config(doc, validate):
    specs = _need(doc, "models", list, "suite-config")
    for m in specs:
        if not isinstance(m, str) or m not in models.REGISTRY:
            raise SchemaError(f"suite-config: unknown model {m!r}")
    draws = doc.get("draws", 60)
    seed = doc.get("seed", 0)
    categories = doc.get("categories", [])
    if not _is_int(draws) or draws < 0:
        raise SchemaError("suite-config: draws must be a nonnegative integer")
    if not _is_int(seed):
        raise SchemaError("suite-config: seed must be an integer")
    if not isinstance(categories, list) or not all(
            isinstance(ref, str) for ref in categories):
        raise SchemaError("suite-config: categories must be a list of paths")
    return SuiteConfig(models=list(specs), draws=draws, seed=seed,
                       categories=list(categories))


_PARSERS = {
    "poset": _parse_poset,
    "monotone-map": _parse_monotone_map,
    "multiset-relation": _parse_mrel,
    "preorder": _parse_preorder,
    "ideal-relation": _parse_ideal,
    "category": _parse_category,
    "functor": _parse_functor,
    "nat-transf": _parse_nat_transf,
    "polynomial": _parse_polynomial,
    "coalgebra-system": _parse_system,
    "suite-config": _parse_suite_config,
}


# --- printing --------------------------------------------------------------------

def _sorted_pairs(mapping):
    return [list(p) for p in sorted(mapping.items(), key=_skey)]


def to_document(obj):
    if isinstance(obj, poset.PointedPoset):
        return {"kind": "poset", "name": obj.name,
                "elements": sorted(obj.elements, key=_skey),
                "leq": [list(p) for p in sorted(obj.leq_pairs)],
                "bottom": obj.bottom}
    if isinstance(obj, poset.MonotoneMap):
        return {"kind": "monotone-map", "name": obj.name,
                "source": to_document(obj.source),
                "target": to_document(obj.target),
                "assignment": _sorted_pairs(obj.assignment)}
    if isinstance(obj, rel.MultisetRel):
        return {"kind": "multiset-relation", "name": obj.name,
                "source": sorted(obj.source, key=_skey),
                "target": sorted(obj.target, key=_skey),
                "pairs": [[[list(cell) for cell in m], b]
                          for (m, b) in sorted(obj.pairs, key=_skey)]}
    if isinstance(obj, rel.Preorder):
        return {"kind": "preorder", "name": obj.name,
                "elements": sorted(obj.elements, key=_skey),
                "leq": [list(p) for p in sorted(obj.leq_pairs)]}
    if isinstance(obj, rel.IdealRel):
        return {"kind": "ideal-relation", "name": obj.name,
                "source": to_document(obj.source),
                "target": to_document(obj.target),
                "pairs": [[list(u), b]
                          for (u, b) in sorted(obj.pairs, key=_skey)]}
    if isinstance(obj, cat.FinCategory):
        return {"kind": "category", "name": obj.name,
                "objects": sorted(obj.objects, key=_skey),
                "arrows": [[a.id, a.src, a.dst]
                           for a in sorted(obj.arrows.values(),
                                           key=lambda a: a.id)],
                "identity": _sorted_pairs(obj.identity),
                "table": [[g, f, gf]
                          for ((g, f), gf) in sorted(obj.table.items())]}
    if isinstance(obj, cat.FunctorData):
        return {"kind": "functor", "name": obj.name,
                "source": to_document(obj.source),
                "target": to_document(obj.target),
                "omap": _sorted_pairs(obj.omap),
                "amap": _sorted_pairs(obj.amap)}
    if isinstance(obj, cat.NatTransfData):
        return {"kind": "nat-transf", "name": obj.name,
                "source": to_document(obj.source),
                "target": to_document(obj.target),
                "components": _sorted_pairs(obj.components)}
    if isinstance(obj, poly.Polynomial):
        return {"kind": "polynomial", "name": obj.name,
                "inputs": sorted(obj.I, key=_skey),
                "slots": sorted(obj.E, key=_skey),
                "constructors": sorted(obj.B, key=_skey),
                "outputs": sorted(obj.J, key=_skey),
                "slot_input": _sorted_pairs(obj.s),
                "slot_constructor": _sorted_pairs(obj.p),
                "constructor_output": _sorted_pairs(obj.t)}
    if isinstance(obj, poly.CoalgebraSystem):
        return {"kind": "coalgebra-system", "name": obj.name,
                "polynomial": to_document(obj.poly),
                "states": sorted(obj.states, key=_skey),
                "step": [[x, b, _sorted_pairs(nxt)]
                         for x, (b, nxt) in sorted(obj.step.items(),
                                                   key=_skey)]}
    if isinstance(obj, SuiteConfig):
        doc = {"kind": "suite-config", "models": list(obj.models),
               "draws": obj.draws, "seed": obj.seed}
        if obj.categories:
            doc["categories"] = list(obj.categories)
        return doc
    raise SchemaError(f"cannot serialize {obj.__class__.__name__}")


def print_document(obj):
    doc = obj if isinstance(obj, dict) else to_document(obj)
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
