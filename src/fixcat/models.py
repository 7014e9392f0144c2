"""Adapters plugging the concrete settings into the law engine, and the
registry of the suite specs that name them.

Thin adapters (posets, multiset relations, ideal relations) supply their
1-cells, compose, star, strictness and products (projections and
pairing, from which the product route builds the symmetry); the locally
discrete 2-cell calculus and the fix/dinat/unif witnesses are inherited
from `laws.ThinModel`.  The category adapter carries genuine 2-cells: its star
picks the stabilized chain carrier through a point functor, fix is the
structure arrow, and the dinat/unif witnesses are the unique
algebra-compatible arrows found by exhaustive search in the finite target
category.

The thin adapters' identity, compose and star, like the cat adapter's
chain, are `memoized` (`laws.memoized`) on the one table `_memo`, which
only a law run's channel walk opens; it belongs to one adapter and keeps
one object per value.  `RelModel`'s identity, compose, eq_obj and
is_strict are marked `laws.equivariant`: they read no carrier name, so
the rel corpus's orbit map may stand one instance for its orbit on it
and on a subclass that keeps them, once its star passes the check.

`REGISTRY` maps every suite spec to its adapter factory, its family's
corpus builder, the document kind its 1-cells are read from (the `kind=`
the command line hands `serialize.load_document`), and, where one ships,
the adapter with its family's second star construction and the builder
of the channels `fixcat compare` reads.
Whether a family has products is its adapter's `has_products()`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Optional

from . import cat, corpora, poset, rel
from .algebra import initial_algebra_mediator, lambek_chain
from .errors import TypeMismatch, UniquenessViolation, ValidationError
from .laws import (FixpointModel, ThinModel, _require_opposed, equivariant,
                   memoized, require_square)


class PosetModel(ThinModel):
    """Pointed posets and monotone maps; star by iteration or as the least
    prefixpoint."""

    def __init__(self, star_impl="kleene"):
        if star_impl not in ("kleene", "bifree"):
            raise ValidationError(f"unknown star_impl {star_impl!r}")
        self.star_impl = star_impl
        self.name = f"poset[{star_impl}]"

    @memoized
    def identity(self, obj):
        return poset.identity_map(obj)

    @memoized
    def compose(self, g, f):
        return poset.compose_maps(g, f)

    def is_strict(self, s):
        return s.is_bottom_preserving()

    def _lfp(self, f):
        if self.star_impl == "kleene":
            return poset.kleene_star(f)
        return poset.bifree_star(f)

    @memoized
    def star(self, f):
        if f.source != f.target:
            raise TypeMismatch("star needs an endomap")
        return poset.point_map(f.source, self._lfp(f))

    # products
    def has_products(self):
        return True

    def proj1(self, a, b):
        return poset.product(a, b).proj1

    def proj2(self, a, b):
        return poset.product(a, b).proj2

    def pair(self, f, g):
        return poset.product(f.target, g.target).pair(f, g)

    def describe1(self, f):
        items = ", ".join(f"{x!r}>{y!r}" for (x, y) in sorted(
            f.assignment.items(), key=repr))
        return f"{f.source.name}->{f.target.name}{{{items}}}"


class BrokenPosetModel(PosetModel):
    """Deliberately wrong adapter: star picks a greatest element.

    Negative control for the suite; a monotone map need not fix the top,
    so fix.cell must produce a counterexample on a suitable corpus.
    """

    def __init__(self):
        super().__init__("kleene")
        self.name = "poset[broken]"

    def _lfp(self, f):
        p = f.source
        tops = [x for x in p.elements if all(p.leq(y, x) for y in p.elements)]
        return tops[0] if tops else max(p.elements, key=repr)


class RelModel(ThinModel):
    """Finite multiset relations; carriers are the objects, the empty carrier
    is the point.  Strict 1-cells are those with only singleton premises."""

    def __init__(self, star_impl="closure"):
        if star_impl not in ("closure", "tree"):
            raise ValidationError(f"unknown star_impl {star_impl!r}")
        self.star_impl = star_impl
        self.name = f"rel[{star_impl}]"

    @equivariant
    @memoized
    def identity(self, obj):
        return rel.mrel_identity(obj)

    @equivariant
    @memoized
    def compose(self, g, f):
        return rel.mrel_compose(g, f)

    @equivariant
    def eq_obj(self, a, b):
        return rel._same_carrier(a, b)

    @equivariant
    def is_strict(self, s):
        return all(rel.mset_size(m) == 1 for (m, _) in s.pairs)

    def _lfp(self, f):
        if self.star_impl == "closure":
            return rel.mrel_star(f)
        stages = rel.tree_star(f, len(f.target) + 1)
        if not stages.stabilized:
            raise ValidationError("tree stages failed to stabilize")
        return rel.MultisetRel(rel.EMPTY_CARRIER, f.target,
                               {(rel.EMPTY_MSET, b) for b in stages.final},
                               name=f"{f.name}*", _validate=False)

    @memoized
    def star(self, f):
        if not self.eq_obj(f.source, f.target):
            raise TypeMismatch("star needs an endo-relation")
        return self._lfp(f)

    # products (tagged disjoint unions)
    def has_products(self):
        return True

    def proj1(self, a, b):
        return rel.mrel_proj1(a, b)

    def proj2(self, a, b):
        return rel.mrel_proj2(a, b)

    def pair(self, f, g):
        return rel.mrel_pairing(f, g)

    def describe1(self, f):
        pairs = ", ".join(f"{m!r}>{b!r}" for (m, b) in sorted(f.pairs, key=repr))
        return f"rel({len(f.source)}->{len(f.target)}: {pairs})"


class ScottModel(ThinModel):
    """Ideal relations over finite preorders; the empty preorder is the point."""

    name = "scott"

    @memoized
    def identity(self, obj):
        return rel.scott_identity(obj)

    @memoized
    def compose(self, g, f):
        return rel.scott_compose(g, f)

    def is_strict(self, s):
        return all(len(u) == 1 for (u, _) in s.pairs)

    @memoized
    def star(self, f):
        return rel.scott_star(f)

    # products (tagged disjoint unions of preorders)
    def has_products(self):
        return True

    def proj1(self, a, b):
        return rel.scott_proj1(a, b)

    def proj2(self, a, b):
        return rel.scott_proj2(a, b)

    def pair(self, f, g):
        return rel.scott_pairing(f, g)

    def describe1(self, f):
        pairs = ", ".join(f"{u!r}>{b!r}" for (u, b) in sorted(f.pairs, key=repr))
        return f"ideal({f.source.name}->{f.target.name}: {pairs})"


class CatModel(FixpointModel):
    """Finite categories, functors, and natural transformations.

    star(F) is the point functor at the carrier where F's chain from the
    initial object stabilizes; fix(F) is the structure arrow; dinat and
    unif components are the unique structure-compatible arrows, found by
    exhaustive search over the finite hom-set.  Strict 1-cells are functors
    sending initial objects to initial objects.
    """

    name = "cat"

    def identity(self, obj):
        return cat.identity_functor(obj)

    def compose(self, g, f):
        return cat.compose_functors(g, f)

    def is_strict(self, s):
        initials = s.source.initial_objects()
        targets = set(s.target.initial_objects())
        return all(s.on_obj(x) in targets for x in initials)

    @memoized
    def _chain(self, f):
        chain = lambek_chain(f)
        if not chain.stabilized:
            raise ValidationError(
                f"chain for {self.describe1(f)} {chain.cycle_report()}")
        return chain

    def star(self, f):
        if f.source != f.target:
            raise TypeMismatch("star needs an endofunctor")
        return cat.point_functor(f.source, self._chain(f).carrier)

    # 2-cell calculus
    def id2(self, f):
        return cat.identity_transf(f)

    def vcomp2(self, after, before):
        return cat.vcomp(after, before)

    def whisker_l(self, h, t):
        return cat.whisker_left(h, t)

    def whisker_r(self, t, h):
        return cat.whisker_right(t, h)

    def cell_ok(self, t):
        return not cat.validate_nat_transf(t)

    def is_invertible2(self, t):
        return cat.is_invertible_transf(t)

    def inverse2(self, t):
        return cat.inverse_transf(t)

    # witnesses
    def fix_witness(self, f):
        chain = self._chain(f)
        fs = self.star(f)
        return cat.NatTransfData(cat.compose_functors(f, fs), fs,
                                 {"*": chain.structure}, name=f"fix_{f.name}")

    def star_2cell(self, alpha):
        f, g = alpha.source, alpha.target
        cf, cg = self._chain(f), self._chain(g)
        ambient = f.source
        structure = ambient.compose(cg.structure, alpha.at(cg.carrier))
        component = initial_algebra_mediator(cf, cg.carrier, structure)
        return cat.NatTransfData(self.star(f), self.star(g),
                                 {"*": component}, name=f"star2_{alpha.name}")

    def dinat_witness(self, f, g):
        _require_opposed(self, f, g)
        fg = cat.compose_functors(f, g)
        gf = cat.compose_functors(g, f)
        c_fg, c_gf = self._chain(fg), self._chain(gf)
        obj = f.on_obj(c_gf.carrier)
        structure = f.on_arrow(c_gf.structure)
        component = initial_algebra_mediator(c_fg, obj, structure)
        return cat.NatTransfData(
            self.star(fg), cat.compose_functors(f, self.star(gf)),
            {"*": component}, name=f"dinat_{f.name}_{g.name}")

    def unif_witness(self, s, f, g, gamma):
        require_square(self, s, f, g, gamma)
        cf, cg = self._chain(f), self._chain(g)
        target = s.target
        s_carrier = s.on_obj(cf.carrier)
        gamma_inv = cat.inverse_transf(gamma)
        # the transported algebra structure on s(muF)
        sigma = target.compose(s.on_arrow(cf.structure),
                               gamma_inv.at(cf.carrier))
        cands = [h for h in target.hom(s_carrier, cg.carrier)
                 if target.compose(h, sigma)
                 == target.compose(cg.structure, g.on_arrow(h))]
        if len(cands) != 1:
            raise UniquenessViolation(
                len(cands),
                f"uniformity component between {s_carrier!r} and "
                f"{cg.carrier!r}: {len(cands)} structure-compatible arrows")
        return cat.NatTransfData(
            cat.compose_functors(s, self.star(f)), self.star(g),
            {"*": cands[0]}, name=f"unif_{s.name}")

    def describe1(self, f):
        omap = ", ".join(f"{x}>{y}" for (x, y) in sorted(f.omap.items()))
        return f"{f.source.name}->{f.target.name}{{{omap}}}"

    def describe2(self, t):
        comps = ", ".join(f"{x}:{a}" for (x, a) in sorted(t.components.items()))
        return (f"[{self.describe1(t.source)} => {self.describe1(t.target)}"
                f" | {comps}]")


# ---------------------------------------------------------------------------
# The registry of suite specs.

class ModelSpec(NamedTuple):
    """One suite spec.  `make()` builds its adapter; `corpus(draws, seed)`
    builds its family's corpus; its 1-cells are read from documents of
    kind `kind`; `second()` builds the adapter with the family's other
    star construction, and `cells(draws, seed)` the corpus channels
    `fixcat compare` checks the two on: `corpus`'s endos and dinat
    pairs, with its symmetry, and no other channel."""

    make: Callable
    corpus: Callable
    kind: str
    second: Optional[Callable] = None
    cells: Optional[Callable] = None


# The builders are looked up in `corpora` per call, not bound here, so a
# wrapper installed on that module (perfbench's tracer) sees every build.
_POSET = (lambda draws, seed: corpora.poset_corpus(draws, seed),
          "monotone-map")
_REL = (lambda draws, seed: corpora.rel_corpus(draws, seed),
        "multiset-relation")

REGISTRY = {
    "poset": ModelSpec(
        partial(PosetModel, "kleene"), *_POSET,
        second=partial(PosetModel, "bifree"),
        cells=lambda draws, seed: corpora.poset_cells(draws, seed)),
    "poset:kleene": ModelSpec(partial(PosetModel, "kleene"), *_POSET),
    "poset:bifree": ModelSpec(partial(PosetModel, "bifree"), *_POSET),
    "poset:broken": ModelSpec(BrokenPosetModel, *_POSET),
    "rel": ModelSpec(partial(RelModel, "closure"), *_REL,
                     second=partial(RelModel, "tree"),
                     cells=lambda draws, seed: corpora.rel_cells(draws, seed)),
    "rel:closure": ModelSpec(partial(RelModel, "closure"), *_REL),
    "rel:tree": ModelSpec(partial(RelModel, "tree"), *_REL),
    "scott": ModelSpec(ScottModel,
                       lambda draws, seed: corpora.scott_corpus(draws, seed),
                       "ideal-relation"),
    "cat": ModelSpec(CatModel, lambda draws, seed: corpora.cat_corpus(),
                     "functor"),
}

# The specs the command line's --model takes: one per family.
FAMILIES = tuple(spec for spec in REGISTRY if ":" not in spec)
