"""Initial algebras of endofunctors on finite categories, by chain iteration.

`lambek_chain` iterates an endofunctor from the initial object until the
connecting arrow becomes invertible; its inverse is the algebra structure.
At stabilization the result is a genuine initial algebra: every arrow-level
algebra (object B, arrow x: F(B) -> B) receives exactly one algebra
morphism, constructible as a chain cocone and recoverable by exhaustive
search.  Connector k+1 is F of connector k and arrows are finitely many,
so a chain that never stabilizes repeats a connector, and it reports that
cycle.

The chain also has a realization as a category in its own right (one object
per chain stage, hom-sets copied from the ambient category) carrying a
shift endofunctor that caps at the stabilization stage.  Between such
category-with-endofunctor pairs live algebra 1-cells (a functor plus an
invertible structure square) and algebra 2-cells (transformations commuting
with the squares); the universal property states that between any two
1-cells into the same algebra there is exactly one invertible 2-cell.
`pseudo_initial_mediator` and `unique_algebra_2cell` verify both halves by
exhaustive search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .cat import (
    Arrow,
    FinCategory,
    FunctorData,
    NatTransfData,
    compose_functors,
    enumerate_nat_transfs,
    enumerate_functors,
    is_invertible_transf,
    vcomp,
    whisker_left,
    whisker_right,
)
from .errors import (
    NoInitialObject,
    NoMediator,
    NotInvertible,
    TypeMismatch,
    UniquenessViolation,
    ValidationError,
)


def validate_endofunctor(f: FunctorData) -> FunctorData:
    if f.source != f.target:
        raise TypeMismatch(f"{f.name}: an endofunctor needs source = target")
    return f


@dataclass
class ChainResult:
    """The iteration 0 -> F(0) -> F^2(0) -> ... with its connecting arrows.

    `objects[k]` is the k-th stage, `connectors[k]` the arrow from stage k
    to stage k+1.  When a connector is invertible the chain stabilizes
    there; `structure` is that connector's inverse, an arrow F(carrier) ->
    carrier.  A chain whose connector repeats first never stabilizes: its
    `cycle` is (start, period), and its last connector is the first repeat.
    """

    category: FinCategory
    endo: FunctorData
    objects: list
    connectors: list
    stabilized: bool
    index: Optional[int] = None
    carrier: object = None
    structure: Optional[str] = None
    structure_inverse: Optional[str] = None
    cycle: Optional[tuple] = None

    def cycle_report(self) -> str:
        return ("never stabilizes: cycles from step {} with period {}"
                .format(*self.cycle))


def initial_arrow(c: FinCategory, origin, target) -> str:
    hom = c.hom(origin, target)
    if len(hom) != 1:
        raise ValidationError(f"{origin} is not initial: hom to {target} has "
                              f"{len(hom)} arrows")
    return hom[0]


def lambek_chain(endo: FunctorData) -> ChainResult:
    """Iterate from the initial object to an invertible or a repeated connector."""
    validate_endofunctor(endo)
    c = endo.source
    inits = sorted(c.initial_objects(), key=str)
    if not inits:
        raise NoInitialObject(f"{c.name} has no initial object")
    x0 = inits[0]
    objects = [x0, endo.on_obj(x0)]
    connectors = [initial_arrow(c, x0, endo.on_obj(x0))]
    seen = {}  # connector -> its step; the loop appends to `connectors`
    for k, ck in enumerate(connectors):
        inv = c.inverse(ck)
        if inv is not None:
            return ChainResult(c, endo, objects, connectors, stabilized=True,
                               index=k, carrier=objects[k],
                               structure=inv, structure_inverse=ck)
        if ck in seen:
            return ChainResult(c, endo, objects, connectors, stabilized=False,
                               cycle=(seen[ck], k - seen[ck]))
        seen[ck] = k
        connectors.append(endo.on_arrow(ck))
        objects.append(endo.on_obj(objects[-1]))


# --- arrow-level algebra morphisms out of the stabilized chain -----------------

def algebra_morphisms(chain: ChainResult, obj, structure: str) -> list:
    """All arrows h: carrier -> obj with h . a = structure . F(h), by search."""
    if not chain.stabilized:
        raise ValidationError("chain did not stabilize")
    c, f = chain.category, chain.endo
    if c.src(structure) != f.on_obj(obj) or c.dst(structure) != obj:
        raise TypeMismatch("structure arrow must run F(obj) -> obj")
    return [h for h in c.hom(chain.carrier, obj)
            if c.compose(h, chain.structure) == c.compose(structure, f.on_arrow(h))]


def cocone_mediator(chain: ChainResult, obj, structure: str) -> str:
    """The mediating morphism built along the chain: y_0 is the arrow out of
    the initial object and y_{k+1} = structure . F(y_k)."""
    if not chain.stabilized:
        raise ValidationError("chain did not stabilize")
    c, f = chain.category, chain.endo
    y = initial_arrow(c, chain.objects[0], obj)
    for _ in range(chain.index):
        y = c.compose(structure, f.on_arrow(y))
    return y


def initial_algebra_mediator(chain: ChainResult, obj, structure: str) -> str:
    """The unique algebra morphism; UniquenessViolation if the count is not 1."""
    found = algebra_morphisms(chain, obj, structure)
    if len(found) != 1:
        raise UniquenessViolation(len(found))
    return found[0]


# --- the chain as a category with a shift endofunctor ---------------------------

@dataclass
class ChainRealization:
    """The stabilized chain packaged as a category-with-endofunctor.

    One object per stage up to the stabilization index (stages may repeat
    an ambient object; they stay distinct here), hom-sets copied from the
    ambient category.  The shift endofunctor moves stage k to stage k+1 and
    caps at the last stage, conjugating arrow images by the structure
    isomorphism.  `cell` is the canonical algebra 1-cell into the ambient
    pair: the stage-projection functor with the cap isos as its square.
    """

    chain: ChainResult
    category: FinCategory
    shift: FunctorData
    inclusion: FunctorData
    cell: "AlgebraOneCell" = field(repr=False, default=None)


def _stage(i: int) -> str:
    return f"n{i}"


def _copied(aid: str, i: int, j: int) -> str:
    return f"{aid}#{i}>{j}"


def chain_realization(chain: ChainResult) -> ChainRealization:
    if not chain.stabilized:
        raise ValidationError("chain did not stabilize")
    amb, f, n = chain.category, chain.endo, chain.index
    stages = list(range(n + 1))
    objects = [_stage(i) for i in stages]
    arrows, identity, lookup = [], {}, {}
    for i in stages:
        for j in stages:
            for aid in sorted(amb.hom(chain.objects[i], chain.objects[j])):
                cid = _copied(aid, i, j)
                arrows.append(Arrow(cid, _stage(i), _stage(j)))
                lookup[(aid, i, j)] = cid
        identity[_stage(i)] = _copied(amb.id_of(chain.objects[i]), i, i)
    table = {}
    for (aid, i, j) in lookup:
        for (bid, i2, j2) in lookup:
            if i2 == j and amb.dst(aid) == amb.src(bid):
                table[(lookup[(bid, i2, j2)], lookup[(aid, i, j)])] = \
                    lookup[(amb.compose(bid, aid), i, j2)]
    cat = FinCategory(objects, arrows, identity, table,
                      name=f"chain({f.name})")

    # cap arrows kappa_i: F(stage_i) -> stage_{min(i+1, n)} in the ambient
    def cap(i):
        if i < n:
            return amb.id_of(chain.objects[i + 1])
        return chain.structure

    def cap_inv(i):
        if i < n:
            return amb.id_of(chain.objects[i + 1])
        return chain.structure_inverse

    nxt = {i: min(i + 1, n) for i in stages}
    omap = {_stage(i): _stage(nxt[i]) for i in stages}
    amap = {}
    for (aid, i, j), cid in lookup.items():
        img = amb.compose(cap(j), amb.compose(f.on_arrow(aid), cap_inv(i)))
        amap[cid] = lookup[(img, nxt[i], nxt[j])]
    shift = FunctorData(cat, cat, omap, amap, name="shift")
    inclusion = FunctorData(cat, amb,
                            {_stage(i): chain.objects[i] for i in stages},
                            {cid: aid for (aid, _i, _j), cid in lookup.items()},
                            name="stages")
    mu = NatTransfData(compose_functors(inclusion, shift),
                       compose_functors(f, inclusion),
                       {_stage(i): cap_inv(i) for i in stages},
                       name="cap")
    real = ChainRealization(chain, cat, shift, inclusion)
    real.cell = AlgebraOneCell(shift, f, inclusion, mu)
    return real


class AlgebraOneCell:
    """An algebra 1-cell between category-with-endofunctor pairs.

    From (K, shift) to (A, algebra): a functor u: K -> A together with an
    invertible square mu: u . shift => algebra . u.
    """

    def __init__(self, shift: FunctorData, algebra: FunctorData,
                 u: FunctorData, mu: NatTransfData, name="cell"):
        validate_endofunctor(shift)
        validate_endofunctor(algebra)
        if u.source != shift.source or u.target != algebra.source:
            raise TypeMismatch(f"{name}: functor must run between the carriers")
        if mu.source != compose_functors(u, shift) or \
                mu.target != compose_functors(algebra, u):
            raise TypeMismatch(f"{name}: square has the wrong boundary")
        if not is_invertible_transf(mu):
            raise NotInvertible(f"{name}: structure square must be invertible")
        self.shift = shift
        self.algebra = algebra
        self.u = u
        self.mu = mu
        self.name = name

    def __eq__(self, other):
        if not isinstance(other, AlgebraOneCell):
            return NotImplemented
        return (self.shift == other.shift and self.algebra == other.algebra
                and self.u == other.u and self.mu == other.mu)

    def __repr__(self):
        return f"AlgebraOneCell({self.name}: {self.u.name})"


def pseudo_initial_mediator(chain: ChainResult,
                            target: FunctorData) -> AlgebraOneCell:
    """First algebra 1-cell from the chain realization into (A, target).

    Deterministic: functors come out lexicographically ordered on object
    assignments then arrow assignments, and candidate squares in component
    order.  NoMediator reports a pseudo-initiality failure for this target.
    """
    validate_endofunctor(target)
    real = chain_realization(chain)
    for u in enumerate_functors(real.category, target.source):
        lhs = compose_functors(u, real.shift)
        rhs = compose_functors(target, u)
        for mu in enumerate_nat_transfs(lhs, rhs):
            if is_invertible_transf(mu):
                return AlgebraOneCell(real.shift, target, u, mu,
                                      name=f"mediator->{target.name}")
    raise NoMediator(f"no algebra 1-cell from {real.category.name} "
                     f"to ({target.source.name}, {target.name})")


def unique_algebra_2cell(chain: ChainResult, first: AlgebraOneCell,
                         second: AlgebraOneCell) -> NatTransfData:
    """The unique invertible 2-cell between two algebra 1-cells.

    Enumerates invertible transformations phi: u => v and keeps those with
    algebra . phi pasted on the first square equal to the second square
    pasted on phi . shift.  Exactly one must survive; any other count
    raises UniquenessViolation and falsifies the universal property.
    """
    real = chain_realization(chain)
    if first.shift != real.shift or second.shift != real.shift:
        raise TypeMismatch("cells do not come from this chain")
    if first.algebra != second.algebra:
        raise TypeMismatch("cells do not target the same algebra")
    g = first.algebra
    survivors = []
    for phi in enumerate_nat_transfs(first.u, second.u):
        if not is_invertible_transf(phi):
            continue
        lhs = vcomp(whisker_left(g, phi), first.mu)
        rhs = vcomp(second.mu, whisker_right(phi, real.shift))
        if lhs == rhs:
            survivors.append(phi)
    if len(survivors) != 1:
        raise UniquenessViolation(len(survivors))
    return survivors[0]
