"""Polynomial functors on finite sets.

A polynomial I <- E -> B -> J has constructors B, each with its fiber of
slots in E.  For endo-polynomials over a single index this file builds
initial algebras
as stabilizing chains of finite tree sets (wtype_enumerate), counts their
stages without building them (wtype_counts), presents
points of the final coalgebra as finite-state systems with bisimilarity
decided exactly by partition refinement, and checks two transport laws:
cartesian morphisms carry chain stages into chain stages and bisimilarity
into bisimilarity (span_uniformity_check), and the initial algebra of a
composite g.f rolls along f to the initial algebra of f.g
(freyd_dinat_check).
"""

from __future__ import annotations

import gc
import itertools

from .errors import NotCartesian, SizeCap, TypeMismatch, ValidationError
from .errors import sort_key as _skey


POINT = "*"


class Polynomial:
    """A diagram I <- E -> B -> J of finite sets, maps total with the stated
    boundaries: s: E -> I picks each slot's input sort, p: E -> B groups the
    slots under their constructor, t: B -> J sorts the constructors."""

    def __init__(self, I, E, B, J, s, p, t, name="P", _validate=True):
        self.I = tuple(I)
        self.E = tuple(E)
        self.B = tuple(B)
        self.J = tuple(J)
        self.s = dict(s)
        self.p = dict(p)
        self.t = dict(t)
        self.name = name
        if _validate:
            self.validate()

    def validate(self):
        for (m, dom, cod, label) in [(self.s, self.E, self.I, "s"),
                                     (self.p, self.E, self.B, "p"),
                                     (self.t, self.B, self.J, "t")]:
            if set(m) != set(dom):
                raise ValidationError(f"{self.name}: {label} is not total")
            if not set(m.values()) <= set(cod):
                raise ValidationError(f"{self.name}: {label} leaves its codomain")

    def fiber(self, b):
        """Slots of constructor b, in canonical order."""
        return tuple(sorted((e for e in self.E if self.p[e] == b), key=_skey))

    def is_endo(self):
        return len(self.I) == 1 and self.I == self.J

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (set(self.I), set(self.E), set(self.B), set(self.J),
                self.s, self.p, self.t) == \
               (set(other.I), set(other.E), set(other.B), set(other.J),
                other.s, other.p, other.t)

    def __repr__(self):
        return f"Polynomial({self.name}: |E|={len(self.E)} |B|={len(self.B)})"


def endo_poly(fibers, name="P") -> Polynomial:
    """Endo-polynomial over a point from constructor -> slot count."""
    B = tuple(sorted(fibers, key=_skey))
    E = tuple((b, k) for b in B for k in range(fibers[b]))
    return Polynomial((POINT,), E, B, (POINT,),
                      {e: POINT for e in E}, {e: e[0] for e in E},
                      {b: POINT for b in B}, name=name)


def constant_poly(labels, name="const") -> Polynomial:
    return endo_poly({b: 0 for b in labels}, name=name)


def stream_poly(labels, name="stream") -> Polynomial:
    return endo_poly({b: 1 for b in labels}, name=name)


def binary_tree_poly() -> Polynomial:
    return endo_poly({"leaf": 0, "node": 2}, name="bintree")


def identity_poly() -> Polynomial:
    return stream_poly([POINT], name="ident")


def is_span(P: Polynomial) -> bool:
    """p: E -> B a bijection: exactly one slot per constructor."""
    return len(P.E) == len(P.B) and set(P.p.values()) == set(P.B)


# --- W-types: chain stages of tree sets -------------------------------------------

class WTree:
    """A finite tree: a constructor at the root and one subtree per slot of
    its fiber, as ((slot, subtree), ...) in fiber order.

    Trees are immutable.  The hash is computed once, when the tree is
    built, from the root and the children, whose hashes are already cached:
    building a tree costs O(arity), not O(size).  The hash stays
    hash((root, children)), so set order, and with it the counterexample
    span_uniformity_check reports, does not depend on the caching; the
    repr stays WTree(root=..., children=...), the key listings sort by.
    """

    __slots__ = ("root", "children", "_hash")

    def __init__(self, root, children=()):
        self.root = root
        self.children = children
        self._hash = hash((root, children))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, WTree):
            return NotImplemented
        return (self._hash == other._hash and self.root == other.root
                and self.children == other.children)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"WTree(root={self.root!r}, children={self.children!r})"


def _require_endo(P: Polynomial):
    if not P.is_endo():
        raise TypeMismatch(f"{P.name}: need an endo-polynomial over one index")


def _apply_trees(P: Polynomial, trees) -> frozenset:
    # Trees form no cycles, so the cyclic collector is paused while a stage
    # is built; left on, its full passes walk every tree built so far.
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = set()
        pool = sorted(trees, key=_skey)
        for b in P.B:
            slots = P.fiber(b)
            for choice in itertools.product(pool, repeat=len(slots)):
                out.add(WTree(b, tuple(zip(slots, choice))))
        return frozenset(out)
    finally:
        if enabled:
            gc.enable()


# The most trees one chain stage may hold.  Every stage's size is counted
# before any stage is built, so a chain that outgrows this stops with
# SizeCap instead of filling memory.
MAX_STAGE_TREES = 1_000_000


def wtype_stages(P: Polynomial, depth: int) -> list:
    """Stages 0..depth of the chain from the empty set.  Raises SizeCap,
    before building any tree, when a stage up to depth would hold more
    than MAX_STAGE_TREES trees."""
    _require_endo(P)
    return _chain(P.name, (P,), depth)


def wtype_counts(P: Polynomial, depth: int) -> list:
    """The sizes of stages 0..depth of the chain from the empty set,
    counted without building a tree: len() of each of wtype_stages(P,
    depth), and the same SizeCap where wtype_stages refuses."""
    _require_endo(P)
    return _count_stages(P.name, (P,), depth)


def _chain(name, per_stage, depth):
    """Stages 0..depth of the chain from the empty set that applies the
    polynomials `per_stage` in turn at each stage, counted first
    (`_count_stages`).  Each stage contains the previous one, so a stage
    counted at the previous one's size is that same set: it is not built,
    and the previous stage's object stands for it."""
    sizes = _count_stages(name, per_stage, depth)
    stages = [frozenset()]
    for before, size in zip(sizes, sizes[1:]):
        nxt = stages[-1]
        if size != before:
            for P in per_stage:
                nxt = _apply_trees(P, nxt)
        stages.append(nxt)
    return stages


def fixed_depth(sizes):
    """The first k where stage k+1 has the same size as stage k, or None,
    from the list of a chain's stage sizes.  Each stage of a chain
    contains the one before, so the same size means the same set."""
    return next((k for k in range(len(sizes) - 1)
                 if sizes[k + 1] == sizes[k]), None)


def _count_stages(name, per_stage, depth):
    """The sizes of stages 0..depth of the chain applying `per_stage` in
    turn at each stage, counted without building a tree.  Raises SizeCap
    at the first step that would hold more than MAX_STAGE_TREES trees;
    ValidationError for a negative depth.  A round that leaves the size
    unchanged has reached the fixed stage, whose size every later stage
    repeats.  The counts are exact, not bounds: `fixcat wtype` prints
    them as the stage sizes."""
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    sizes = [0]
    while len(sizes) <= depth:
        size = sizes[-1]
        for P in per_stage:
            size = _next_stage_size(P, size)
            if size > MAX_STAGE_TREES:
                raise SizeCap(f"{name}: W-type stage {len(sizes)} would hold "
                              f"{size} trees, over the bound of "
                              f"{MAX_STAGE_TREES} (poly.MAX_STAGE_TREES)")
        if size == sizes[-1]:
            sizes.extend([size] * (depth + 1 - len(sizes)))
            break
        sizes.append(size)
    return sizes


def wtype_enumerate(P: Polynomial, depth: int):
    """All trees of height < depth, plus whether the chain has stabilized
    there (stage depth equal to stage depth+1), making the stage the full
    initial algebra."""
    stage = wtype_stages(P, depth)[-1]
    return sorted(stage, key=_skey), _stage_is_fixed(P, stage)


def _next_stage_size(P: Polynomial, n: int) -> int:
    """|F(X)| for a chain stage X of n trees, counted without building it:
    distinct (constructor, choice) pairs give distinct trees, so
    |F(X)| = sum_b n^arity(b)."""
    return sum(n ** len(P.fiber(b)) for b in set(P.B))


def _stage_is_fixed(P: Polynomial, stage) -> bool:
    """F(X) == X for a chain stage X, decided without building F(X): along
    the chain X is contained in F(X), so they are equal exactly when they
    have the same size."""
    return _next_stage_size(P, len(stage)) == len(stage)


# --- M-types: finite-state coalgebra systems --------------------------------------

class CoalgebraSystem:
    """A finite structure map X -> P(X): per state a constructor and one
    successor state per slot of that constructor."""

    def __init__(self, poly: Polynomial, states, step, name="S", _validate=True):
        _require_endo(poly)
        self.poly = poly
        self.states = tuple(states)
        self.step = {x: (b, dict(nxt)) for x, (b, nxt) in dict(step).items()}
        self.name = name
        if _validate:
            self.validate()

    def validate(self):
        if set(self.step) != set(self.states):
            raise ValidationError(f"{self.name}: structure map is not total")
        for x, (b, nxt) in self.step.items():
            if b not in self.poly.B:
                raise ValidationError(f"{self.name}: unknown constructor at {x}")
            if set(nxt) != set(self.poly.fiber(b)):
                raise ValidationError(f"{self.name}: slots at {x} do not match "
                                      f"the fiber of {b}")
            if not set(nxt.values()) <= set(self.states):
                raise ValidationError(f"{self.name}: successor out of range at {x}")

    def __repr__(self):
        return f"CoalgebraSystem({self.name}: {len(self.states)} states)"


def bisimulation_classes(c1: CoalgebraSystem, c2: CoalgebraSystem):
    """The bisimilarity classes of two systems' states, by one partition
    refinement on the disjoint union of their state sets: a dict per
    system from each state to its class number, equal exactly for
    bisimilar states.  Round k separates the states whose unfoldings to
    depth k differ; the first round that splits no class has reached
    bisimilarity, and the refinement stops there."""
    if c1.poly != c2.poly:
        raise TypeMismatch("systems live over different polynomials")
    systems = (c1, c2)
    tagged = [(tag, x) for tag, c in enumerate(systems) for x in c.states]
    at = {st: i for i, st in enumerate(tagged)}
    heads, succs = [], []
    for tag, x in tagged:
        b, nxt = systems[tag].step[x]   # b fixes the slots, so their order
        heads.append(b)
        succs.append([at[tag, nxt[e]] for e in sorted(nxt, key=_skey)])
    fresh = {}
    block = [fresh.setdefault(b, len(fresh)) for b in heads]
    while True:
        count, fresh = len(fresh), {}
        block = [fresh.setdefault((b, tuple(block[j] for j in succ)),
                                  len(fresh))
                 for b, succ in zip(heads, succs)]
        if len(fresh) == count:
            break
    split = len(c1.states)
    return (dict(zip(c1.states, block[:split])),
            dict(zip(c2.states, block[split:])))


def bisimilar(c1: CoalgebraSystem, c2: CoalgebraSystem, x1, x2) -> bool:
    """Exact bisimilarity across two systems: x1 and x2 in the same class
    of bisimulation_classes(c1, c2), which refuses systems over different
    polynomials before a state is looked at."""
    classes1, classes2 = bisimulation_classes(c1, c2)
    if x1 not in c1.states or x2 not in c2.states:
        raise ValidationError("state not in its system")
    return classes1[x1] == classes2[x2]


# The most nodes one unfolding may hold.  A branching system's unfolding
# doubles with every level, so it is counted as it is built and stops with
# SizeCap instead of filling memory.
MAX_UNFOLD_NODES = 100_000


def mtype_unfold(c: CoalgebraSystem, x, depth: int):
    """Depth-bounded unfolding of a state: at depth 0 just the constructor,
    below that a tagged tuple of unfolded successors.  Built with an
    explicit stack, so its depth is not bounded by Python's recursion;
    raises SizeCap past MAX_UNFOLD_NODES nodes."""
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    built = []                        # finished subtrees, in order
    todo = [(x, depth, None)]
    nodes = 0
    while todo:
        y, k, slots = todo.pop()
        b, nxt = c.step[y]
        if slots is not None:         # its successors are built: close y
            kids = built[len(built) - len(slots):]
            del built[len(built) - len(slots):]
            built.append((b, tuple(zip(slots, kids))))
            continue
        nodes += 1
        if nodes > MAX_UNFOLD_NODES:
            raise SizeCap(f"{c.name}: unfolding of {x} to depth {depth} "
                          f"holds over {MAX_UNFOLD_NODES} nodes "
                          f"(poly.MAX_UNFOLD_NODES)")
        if k == 0:
            built.append(b)
            continue
        slots = sorted(nxt, key=_skey)
        todo.append((y, k, slots))
        todo.extend((nxt[e], k - 1, None) for e in reversed(slots))
    return built[0]


# --- cartesian morphisms -----------------------------------------------------------

class PolyMorphism:
    """A cartesian morphism between endo-polynomials: a constructor map
    forward and, per source constructor, a bijection from the target
    constructor's slots back onto the source constructor's slots.  The
    boundary conditions are validated, never inferred."""

    def __init__(self, source: Polynomial, target: Polynomial,
                 shape_map, slot_map, name="m", _validate=True):
        _require_endo(source)
        _require_endo(target)
        self.source = source
        self.target = target
        self.shape_map = dict(shape_map)
        self.slot_map = dict(slot_map)
        self.name = name
        if _validate:
            self.validate()

    def validate(self):
        if set(self.shape_map) != set(self.source.B):
            raise NotCartesian(f"{self.name}: constructor map is not total")
        if not set(self.shape_map.values()) <= set(self.target.B):
            raise NotCartesian(f"{self.name}: constructor image out of range")
        expected = {(b, e) for b in self.source.B
                    for e in self.target.fiber(self.shape_map[b])}
        if set(self.slot_map) != expected:
            raise NotCartesian(f"{self.name}: slot map domain mismatch")
        for b in self.source.B:
            image = [self.slot_map[(b, e)] for e in self.target.fiber(self.shape_map[b])]
            if any(self.source.p.get(e) != b for e in image):
                raise NotCartesian(f"{self.name}: slot square at {b} does not commute")
            if len(set(image)) != len(image) or set(image) != set(self.source.fiber(b)):
                raise NotCartesian(f"{self.name}: slot map at {b} is not a bijection")

    def on_tree(self, tree: WTree) -> WTree:
        kids = dict(tree.children)
        b2 = self.shape_map[tree.root]
        return WTree(b2, tuple((e, self.on_tree(kids[self.slot_map[(tree.root, e)]]))
                               for e in self.target.fiber(b2)))

    def on_system(self, c: CoalgebraSystem) -> CoalgebraSystem:
        if c.poly != self.source:
            raise TypeMismatch("system does not live over the morphism source")
        step = {}
        for x, (b, nxt) in c.step.items():
            b2 = self.shape_map[b]
            step[x] = (b2, {e: nxt[self.slot_map[(b, e)]]
                            for e in self.target.fiber(b2)})
        return CoalgebraSystem(self.target, c.states, step, name=f"{self.name}({c.name})")


def identity_poly_morphism(P: Polynomial) -> PolyMorphism:
    return PolyMorphism(P, P, {b: b for b in P.B},
                        {(b, e): e for b in P.B for e in P.fiber(b)},
                        name=f"1_{P.name}")


def _small_systems(P: Polynomial, max_states=2, cap=64):
    out = []
    for n in range(1, max_states + 1):
        states = tuple(range(n))
        per_state = []
        for b in P.B:
            slots = P.fiber(b)
            for succ in itertools.product(states, repeat=len(slots)):
                per_state.append((b, dict(zip(slots, succ))))
        for combo in itertools.product(per_state, repeat=n):
            out.append(CoalgebraSystem(P, states, dict(zip(states, combo)),
                                       name=f"gen{len(out)}", _validate=False))
            if len(out) >= cap:
                return out
    return out


def span_uniformity_check(morphism: PolyMorphism, f: Polynomial,
                          g: Polynomial, depth: int = 4) -> dict:
    """Transport along a cartesian morphism: every stage of f's chain lands
    inside the same stage of g's chain, and bisimilar states stay bisimilar
    after relabeling each of f's small systems along the morphism."""
    if morphism.source != f or morphism.target != g:
        raise TypeMismatch("morphism boundary does not match the polynomials")
    report = {"depth": depth, "w_ok": True, "w_counterexample": None,
              "m_ok": True, "m_counterexample": None}
    source_stages = wtype_stages(f, depth)
    target_stages = wtype_stages(g, depth)
    for d in range(depth + 1):
        for tree in source_stages[d]:
            if morphism.on_tree(tree) not in target_stages[d]:
                report["w_ok"] = False
                report["w_counterexample"] = (d, tree)
                break
        if not report["w_ok"]:
            break
    systems = _small_systems(f)
    report["systems_checked"] = len(systems)
    for c in systems:
        image = morphism.on_system(c)
        for x1, x2 in itertools.combinations(c.states, 2):
            if bisimilar(c, c, x1, x2) and not bisimilar(image, image, x1, x2):
                report["m_ok"] = False
                report["m_counterexample"] = (c.name, x1, x2)
                break
        if not report["m_ok"]:
            break
    report["holds"] = report["w_ok"] and report["m_ok"]
    return report


# --- rolling the composite ----------------------------------------------------------

def freyd_dinat_check(f: Polynomial, g: Polynomial, depth: int = 4) -> dict:
    """Stagewise transport of the g.f chain to the f.g chain.

    Writing T for the chain of X -> g(f(X)) and V for the chain of
    X -> f(g(X)), checks the interleaving V_d <= f(T_d) <= V_{d+1} at every
    stage, and once T stabilizes at carrier A that f(A) is a fixed point of
    f.g equal to V's stabilized value.  Without stabilization within the
    depth budget the interleaving alone is reported as a partial check.
    """
    _require_endo(f)
    _require_endo(g)
    # both chains are counted before either is built, T first so that an
    # over-budget T is the one reported; V to depth + 1 bounds every f(T_d)
    t_name = f"{g.name}.{f.name}"
    _count_stages(t_name, (f, g), depth)
    v = _chain(f"{f.name}.{g.name}", (g, f), depth + 1)
    t = _chain(t_name, (f, g), depth)
    report = {"depth": depth, "sandwich_ok": True, "sandwich_counterexample": None,
              "stage_counts": {"composite_gf": tuple(len(s) for s in t[:depth + 1]),
                               "composite_fg": tuple(len(s) for s in v[:depth + 1])}}
    for d in range(depth + 1):
        if d == 0 or t[d] is not t[d - 1]:      # a repeated T_d keeps f(T_d)
            image = _apply_trees(f, t[d])
        if not (v[d] <= image and image <= v[d + 1]):
            report["sandwich_ok"] = False
            report["sandwich_counterexample"] = d
            break
    stabilized_at = fixed_depth(report["stage_counts"]["composite_gf"])
    report["stabilized_at"] = stabilized_at
    if stabilized_at is None:
        report["partial"] = True
        report["holds"] = report["sandwich_ok"]
        return report
    report["partial"] = False
    carrier_image = _apply_trees(f, t[stabilized_at])
    report["fixed_point_ok"] = \
        _apply_trees(f, _apply_trees(g, carrier_image)) == carrier_image
    report["chains_agree"] = v[stabilized_at + 1] == carrier_image
    report["holds"] = (report["sandwich_ok"] and report["fixed_point_ok"]
                       and report["chains_agree"])
    return report
