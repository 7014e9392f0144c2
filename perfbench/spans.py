"""Spans and counts around fixcat's public functions, installed from outside.

`Tracer.install()` replaces every public function of the ten fixcat
modules, and every public method of the model adapters, with a wrapper
that records one span per call: name, parent span, start, end, and flags
for a raised exception and for a call nested in another call of the same
name.  Wrappers go in under every name a caller looks a function up by,
so `models.lambek_chain` (imported from `algebra`) is traced as well as
`algebra.lambek_chain`.  Spans are kept in flat arrays in memory and
written out by `dump()` after the run; `layer_metrics()` derives self
times and counts from them.

A few multiset and uniqueness helpers of `rel` run inside the inner loops
of composition and closure (millions of calls per pass).  They are left
unwrapped (UNWRAPPED) and their time counts as their caller's self time.
"""

import functools
import inspect
import json
import os
import time
from array import array

LAYERS = ("cli", "serialize", "corpora", "laws", "models", "rel", "poset",
          "cat", "algebra", "poly")

UNWRAPPED = {"rel.mset", "rel.mset_union", "rel.mset_support",
             "rel.mset_size", "rel.mset_map", "rel.uset", "rel.hoare_leq",
             "rel.canon_uset", "rel.tag_left", "rel.tag_right"}

# adapter methods whose calls are counted per kind of 1-cell operation
METHOD_GROUPS = {"star": "star", "compose": "compose", "eq1": "eq1",
                 "fix_witness": "witness", "dinat_witness": "witness",
                 "unif_witness": "witness", "describe1": "describe",
                 "describe2": "describe"}

LAW_CHECKS = {"laws.check_fix": "fix", "laws.check_dinat": "dinat",
              "laws.check_unif": "unif", "laws.compare_operators": "compare"}

CORPUS_BUILDERS = {"corpora.poset_corpus": "poset",
                   "corpora.rel_corpus": "rel",
                   "corpora.scott_corpus": "scott",
                   "corpora.cat_corpus": "cat"}

# corpora helpers that build instances of one model, by name fragment
CORPUS_MODEL_HINTS = (("scott", "scott"), ("preorder", "scott"),
                      ("ideal", "scott"), ("mrel", "rel"), ("rel_", "rel"),
                      ("poset", "poset"), ("monotone", "poset"),
                      ("strict_orders", "poset"), ("cat", "cat"),
                      ("thin_", "cat"))

ERROR, NESTED = 1, 2


def corpus_model(name):
    for hint, model in CORPUS_MODEL_HINTS:
        if hint in name:
            return model
    return None


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_flags = bytearray()
        self.stack = [-1]
        self.active = []
        self.distinct = {}
        self.results = {}
        self._restore = []

    def _nid(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self.name_id[name]

    def span(self, name, fn, *args, **kwargs):
        """Run fn under a span of the given name (for the benchmark's own
        calls into a layer)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn, name, on_args=None):
        nid = self._nid(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, flags = self.span_start, self.span_end, self.span_flags
        stack, active = self.stack, self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            depth = active[nid]
            flags.append(NESTED if depth else 0)
            starts.append(0.0)
            ends.append(0.0)
            active[nid] = depth + 1
            stack.append(idx)
            if on_args is not None:
                on_args(args)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                flags[idx] |= ERROR
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                active[nid] = depth

        return traced

    def _distinct_hook(self, group):
        seen = self.distinct.setdefault(group, set())

        def hook(args):
            model = args[0]
            seen.add((model.name,) + tuple(value_key(x) for x in args[1:]))
        return hook

    def _result_hook(self, name, fn, reduce):
        kept = self.results.setdefault(name, [])

        @functools.wraps(fn)
        def keep(*args, **kwargs):
            out = fn(*args, **kwargs)
            kept.append(reduce(out))
            return out
        return keep

    def record_corpus(self, model, corpus):
        """Count a corpus the benchmark built itself from corpora helpers."""
        self.results.setdefault("bench.corpus", []).append(
            (model, channel_sizes(corpus)))

    def install(self):
        """Wrap every public function and adapter method of fixcat."""
        import importlib
        mods = {layer: importlib.import_module(f"fixcat.{layer}")
                for layer in LAYERS}
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    fn = obj
                    if name in RESULT_REDUCERS:
                        fn = self._result_hook(name, fn, RESULT_REDUCERS[name])
                    replaced[obj] = self._wrap(fn, name)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, replaced[obj])
        base = mods["laws"].FixpointModel
        adapters = [base] + [c for c in vars(mods["models"]).values()
                             if inspect.isclass(c) and issubclass(c, base)
                             and c.__module__ == mods["models"].__name__]
        for cls in adapters:
            for attr, obj in list(vars(cls).items()):
                if not inspect.isfunction(obj) or attr.startswith("_"):
                    continue
                if cls is base and attr not in ("describe1", "describe2"):
                    continue  # the rest of the base class is the law engine's
                hook = (self._distinct_hook(attr)
                        if attr in ("star", "compose") else None)
                self._restore.append((cls, attr, obj))
                setattr(cls, attr, self._wrap(obj, f"models.{attr}", hook))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- derived metrics ------------------------------------------------------

    def self_times(self):
        """Duration of each span, and its self time: the duration less the
        time its child spans cover."""
        dur = array("d", map(float.__sub__, self.span_end, self.span_start))
        own = array("d", dur)
        for d, p in zip(dur, self.span_parent):
            if p >= 0:
                own[p] -= d
        return dur, own

    def layer_metrics(self):
        """Per-layer metrics of everything recorded so far."""
        n = len(self.span_name)
        dur, self_t = self.self_times()
        names, span_name = self.names, self.span_name
        calls = [0] * len(names)
        incl = [0.0] * len(names)
        own = [0.0] * len(names)
        for i in range(n):
            k = span_name[i]
            calls[k] += 1
            own[k] += self_t[i]
            if not self.span_flags[i] & NESTED:
                incl[k] += dur[i]
        by_name = {nm: (calls[k], incl[k], own[k])
                   for k, nm in enumerate(names)}

        def c(name):
            return by_name.get(name, (0, 0.0, 0.0))

        m = {"cli.self_s": sum(s for nm, (_, _, s) in by_name.items()
                               if nm.startswith("cli."))}
        m["serialize.load_s"] = c("serialize.load_document")[1]

        # corpus build time: outermost corpora spans, by the model they build
        build = {"poset": 0.0, "rel": 0.0, "scott": 0.0, "cat": 0.0}
        corpora_ids = {k for k, nm in enumerate(names)
                       if nm.startswith("corpora.")}
        for i in range(n):
            k = span_name[i]
            if k in corpora_ids:
                p = self.span_parent[i]
                if p < 0 or span_name[p] not in corpora_ids:
                    model = corpus_model(names[k])
                    if model:
                        build[model] += dur[i]
        for model, s in build.items():
            m[f"corpora.build_s.{model}"] = s
        for model, sizes in self.corpus_channels():
            key = f"corpora.instances.{model}"
            m[key] = m.get(key, 0) + sum(sizes.values())
        for model in build:
            m.setdefault(f"corpora.instances.{model}", 0)

        # law engine self time, grouped by the check each span runs under
        group = array("b", bytes(n))
        check_ids = {self.name_id[nm]: g for g, nm in enumerate(LAW_CHECKS)
                     if nm in self.name_id}
        law_self = [0.0] * len(LAW_CHECKS)
        errors = 0
        for i in range(n):
            k = span_name[i]
            p = self.span_parent[i]
            if k in check_ids:
                group[i] = check_ids[k] + 1
            elif p >= 0:
                group[i] = group[p]
            if group[i] and names[k].startswith("laws."):
                law_self[group[i] - 1] += self_t[i]
            if (p >= 0 and span_name[p] in check_ids
                    and self.span_flags[i] & ERROR):
                errors += 1
        for g, label in enumerate(LAW_CHECKS.values()):
            m[f"laws.self_s.{label}"] = law_self[g]
        m["laws.instances"] = (sum(self.results.get("laws.run_suite", ()))
                               + sum(self.results.get("laws.compare_operators", ())))
        m["laws.errors"] = errors

        groups = {}
        for nm, (cnt, inc, s) in by_name.items():
            if nm.startswith("models."):
                g = METHOD_GROUPS.get(nm.split(".", 1)[1])
                if g:
                    a = groups.setdefault(g, [0, 0.0, 0.0])
                    a[0] += cnt
                    a[1] += inc
                    a[2] += s
        for g in ("star", "compose"):
            cnt, _, s = groups.get(g, (0, 0.0, 0.0))
            m[f"models.{g}.calls"] = cnt
            m[f"models.{g}.self_s"] = s
            m[f"models.{g}.distinct_ratio"] = (
                len(self.distinct.get(g, ())) / cnt if cnt else 0.0)
        for g in ("eq1", "witness", "describe"):
            cnt, inc, _ = groups.get(g, (0, 0.0, 0.0))
            m[f"models.{g}.calls"] = cnt
            m[f"models.{g}.s"] = inc

        for nm in ("rel.mrel_compose", "rel.mrel_star", "rel.tree_star",
                   "rel.scott_compose", "rel.scott_star", "poset.compose_maps",
                   "poset.kleene_star", "poset.bifree_star",
                   "cat.enumerate_nat_transfs", "algebra.lambek_chain",
                   "algebra.initial_algebra_mediator"):
            cnt, inc, _ = c(nm)
            m[f"{nm}.calls"] = cnt
            m[f"{nm}.s"] = inc

        m["poly.stages_s"] = c("poly.wtype_stages")[1]
        m["poly.probe_s"] = c("poly.wtype_enumerate")[2]
        m["poly.stage_trees"] = sum(self.results.get("poly.wtype_stages", ()))
        m["trace.spans"] = n
        return m

    def corpus_channels(self):
        """(model, channel sizes) of every corpus built, by builder."""
        out = [(model, sizes) for name, model in CORPUS_BUILDERS.items()
               for sizes in self.results.get(name, ())]
        return out + self.results.get("bench.corpus", [])

    def dump(self, directory):
        """Write the spans: names.json plus one binary array per field."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "names.json"), "w") as fh:
            json.dump({"names": self.names, "spans": len(self.span_name),
                       "flags": {"error": ERROR, "nested": NESTED}}, fh)
        for field, arr in (("name", self.span_name),
                           ("parent", self.span_parent),
                           ("start", self.span_start),
                           ("end", self.span_end)):
            with open(os.path.join(directory, f"{field}.{arr.typecode}"),
                      "wb") as fh:
                arr.tofile(fh)
        with open(os.path.join(directory, "flags.B"), "wb") as fh:
            fh.write(self.span_flags)


def channel_sizes(corpus):
    return {ch: len(items) for ch, items in sorted(vars(corpus).items())}


RESULT_REDUCERS = {
    **{name: channel_sizes for name in CORPUS_BUILDERS},
    "laws.run_suite": lambda reports: sum(r.instances for r in reports),
    "laws.compare_operators": lambda report: report.instances,
    "poly.wtype_stages": lambda stages: sum(len(s) for s in stages),
}


def value_key(x):
    """A by-value key for a 1-cell, for counting distinct inputs."""
    cls = type(x).__name__
    if cls == "MonotoneMap":
        return (cls, _poset_key(x.source), _poset_key(x.target),
                frozenset(x.assignment.items()))
    if cls == "FunctorData":
        return (cls, x.source.name, x.target.name) + x.key()
    return x


def _poset_key(p):
    return (frozenset(p.elements), p.leq_pairs, p.bottom)
