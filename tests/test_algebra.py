import dataclasses
import itertools

import pytest

from fixcat import corpora
from fixcat.algebra import (
    AlgebraOneCell,
    adjoint_equivalence_from_initial,
    algebra_morphisms,
    chain_realization,
    cocone_mediator,
    initial_algebra_mediator,
    lambek_chain,
    pseudo_initial_mediator,
    unique_algebra_2cell,
    validate_endofunctor,
)
from fixcat.cat import (
    Arrow,
    FinCategory,
    FunctorData,
    NatTransfData,
    compose_functors,
    constant_functor,
    enumerate_functors,
    enumerate_nat_transfs,
    identity_functor,
    identity_transf,
    is_invertible_transf,
    point_functor,
    thin_category,
    thin_functor,
)
from fixcat.corpora import (
    AUT,
    F_AUT,
    F_IDEM,
    F_WALK,
    JOIN_ONE,
    SUCC3,
    THREE,
    TWO,
    WALK,
    cat_corpus,
)
from fixcat.errors import (
    NoInitialObject,
    NoMediator,
    NotInvertible,
    SizeCap,
    TypeMismatch,
    UniquenessViolation,
    ValidationError,
)
from fixcat.poset import MonotoneMap, PointedPoset, kleene_star
from mutants import F_STUCK


# --- fixtures -------------------------------------------------------------------

FOUR = thin_category("four", ["0", "1", "2", "3"],
                     {("0", "1"), ("1", "2"), ("2", "3"),
                      ("0", "2"), ("0", "3"), ("1", "3")})
SUCC4 = thin_functor(FOUR, FOUR, {"0": "1", "1": "2", "2": "3", "3": "3"},
                     name="succ")

DISCRETE2 = thin_category("disc2", ["a", "b"])

SWAP2 = FunctorData(DISCRETE2, DISCRETE2, {"a": "b", "b": "a"},
                    {"id_a": "id_b", "id_b": "id_a"}, name="swap")

INSTANCES = [JOIN_ONE, SUCC3, F_WALK, F_AUT, F_IDEM]


# --- chain construction ---------------------------------------------------------

def test_chain_join_with_one():
    chain = lambek_chain(JOIN_ONE)
    assert chain.stabilized and chain.index == 1
    assert chain.carrier == "1"
    assert chain.structure == "id_1" and chain.structure_inverse == "id_1"
    assert chain.objects == ["0", "1", "1"]
    assert chain.connectors == ["0to1", "id_1"]


def test_chain_constant_functor_lands_on_its_value():
    const = constant_functor(WALK, WALK, "y")
    chain = lambek_chain(const)
    assert chain.stabilized and chain.index == 1
    assert chain.carrier == "y" and chain.structure == "id_y"
    const_init = constant_functor(TWO, TWO, "0")
    chain0 = lambek_chain(const_init)
    assert chain0.index == 0 and chain0.carrier == "0"


def test_chain_identity_functor_stops_at_initial_object():
    chain = lambek_chain(identity_functor(TWO))
    assert chain.stabilized and chain.index == 0
    assert chain.carrier == "0" and chain.structure == "id_0"


def test_chain_capped_successor():
    chain = lambek_chain(SUCC3)
    assert chain.stabilized and chain.index == 2
    assert chain.carrier == "2" and chain.structure == "id_2"
    assert chain.objects[:4] == ["0", "1", "2", "2"]


def test_chain_walking_iso_has_nonidentity_structure():
    chain = lambek_chain(F_WALK)
    assert chain.stabilized and chain.index == 1
    assert chain.carrier == "x"
    assert chain.structure == "j" and chain.structure_inverse == "i"


def test_chain_automorphism_structure_is_self_inverse():
    chain = lambek_chain(F_AUT)
    assert chain.stabilized and chain.index == 1
    assert chain.carrier == "z"
    assert chain.structure == "e" and chain.structure_inverse == "e"


def test_chain_idempotent_prefix_repeats_a_stage():
    chain = lambek_chain(F_IDEM)
    assert chain.stabilized and chain.index == 2
    assert chain.carrier == "w"
    # stages 1 and 2 are the same ambient object reached by a non-iso connector
    assert chain.objects[1] == chain.objects[2] == "w"
    assert chain.connectors == ["u", "p", "id_w"]


def test_chain_without_initial_object():
    with pytest.raises(NoInitialObject):
        lambek_chain(identity_functor(DISCRETE2))


def test_chain_step_budget():
    """No step budget: the chain stops at its first repeated connector."""
    chain = lambek_chain(F_STUCK)
    assert chain.stabilized is False
    assert chain.index is None and chain.structure is None
    assert chain.cycle == (1, 1)
    assert chain.connectors == ["u", "p", "p"]
    assert chain.cycle_report() == \
        "never stabilizes: cycles from step 1 with period 1"
    succ = lambek_chain(SUCC4)
    assert succ.stabilized and succ.index == 3 and succ.cycle is None


def test_validate_endofunctor_rejects_mismatched_boundary():
    with pytest.raises(TypeMismatch):
        validate_endofunctor(thin_functor(TWO, THREE, {"0": "0", "1": "1"}))


# --- arrow-level initiality: exhaustive count vs the chain cocone ----------------

def all_algebra_structures(endo):
    c = endo.source
    for obj in sorted(c.objects):
        for x in sorted(c.hom(endo.on_obj(obj), obj)):
            yield obj, x


@pytest.mark.parametrize("endo", INSTANCES, ids=lambda f: f.name)
def test_every_algebra_gets_exactly_one_morphism(endo):
    chain = lambek_chain(endo)
    seen = 0
    for obj, x in all_algebra_structures(endo):
        found = algebra_morphisms(chain, obj, x)
        assert len(found) == 1
        assert cocone_mediator(chain, obj, x) == found[0]
        assert initial_algebra_mediator(chain, obj, x) == found[0]
        seen += 1
    assert seen >= 1


def test_mediator_counts_on_parallel_arrows():
    # hom(z, z) carries two algebra structures; each selects a different morphism
    chain = lambek_chain(F_AUT)
    assert initial_algebra_mediator(chain, "z", "id_z") == "e"
    assert initial_algebra_mediator(chain, "z", "e") == "id_z"


def test_algebra_morphisms_rejects_wrong_boundary():
    chain = lambek_chain(JOIN_ONE)
    with pytest.raises(TypeMismatch):
        algebra_morphisms(chain, "0", "id_1")
    with pytest.raises(ValidationError):
        algebra_morphisms(lambek_chain(F_STUCK), "w", "id_w")


# --- the chain against a brute-force initial-algebra search --------------------

def initial_algebras(endo):
    """Every algebra (x, a: F(x) -> x) with exactly one algebra morphism to
    each algebra, found by trying all of them."""
    c = endo.source
    algebras = list(all_algebra_structures(endo))

    def morphisms(x, a, y, b):
        return [h for h in c.hom(x, y)
                if c.compose(h, a) == c.compose(b, endo.on_arrow(h))]

    return [(x, a) for (x, a) in algebras
            if all(len(morphisms(x, a, y, b)) == 1 for (y, b) in algebras)]


def monoid_tables(n):
    """Every associative multiplication on 0..n-1 with unit 0."""
    free = [(a, b) for a in range(1, n) for b in range(1, n)]
    for values in itertools.product(range(n), repeat=len(free)):
        t = {(0, b): b for b in range(n)} | {(a, 0): a for a in range(n)}
        t.update(zip(free, values))
        if all(t[t[a, b], c] == t[a, t[b, c]]
               for a in range(n) for b in range(n) for c in range(n)):
            yield t


def lifted_monoid(n, t, name):
    """An initial object 0 below one object z with End(z) the monoid t."""
    def m(a):
        return "id_z" if a == 0 else f"m{a}"
    arrows = [Arrow("id_0", "0", "0"), Arrow("u", "0", "z")]
    arrows += [Arrow(m(a), "z", "z") for a in range(1, n)]
    arrows.append(Arrow("id_z", "z", "z"))
    table = {("id_0", "id_0"): "id_0", ("u", "id_0"): "u"}
    for a in range(n):
        table[(m(a), "u")] = "u"
        for b in range(n):
            table[(m(a), m(b))] = m(t[a, b])
    return FinCategory(["0", "z"], arrows, {"0": "id_0", "z": "id_z"}, table,
                       name=name)


def lifted_monoid_endos():
    out = []
    for n in (1, 2, 3):
        for i, t in enumerate(monoid_tables(n)):
            c = lifted_monoid(n, t, f"m{n}_{i}")
            out.extend(enumerate_functors(c, c))
    return out


def corpus_and_gallery_endos():
    corpus = cat_corpus()
    out = list(corpus.endos)
    for f, g in corpus.dinat_pairs:
        out += [compose_functors(g, f), compose_functors(f, g)]
    out += [v for v in vars(corpora).values()
            if isinstance(v, FunctorData) and v.source == v.target]
    return out


def chain_agrees_with_search(endo):
    chain = lambek_chain(endo)
    found = initial_algebras(endo)
    assert len(chain.connectors) <= len(endo.source.arrows) + 1
    if chain.stabilized:
        assert (chain.carrier, chain.structure) in found
    else:
        assert found == []
    return chain, found


def test_lifted_monoid_chains_match_initial_algebra_search():
    endos = lifted_monoid_endos()
    outcomes = [chain_agrees_with_search(f) for f in endos]
    stable = [len(found) for chain, found in outcomes if chain.stabilized]
    assert len(endos) == 137
    assert len(stable) == 104
    assert len(endos) - len(stable) == 33
    # initial algebras are unique up to iso, not as (carrier, structure) pairs
    assert sorted(stable) == [1] * 93 + [2] * 8 + [3] * 3


def test_corpus_and_gallery_chains_match_initial_algebra_search():
    endos = corpus_and_gallery_endos()
    assert len(endos) == 62
    for f in endos:
        chain, _ = chain_agrees_with_search(f)
        assert chain.stabilized
    _, found = chain_agrees_with_search(F_STUCK)
    assert found == []


# --- chains over thin categories recover least fixpoints -------------------------

POSET_SHAPES = [
    ("c2", ["0", "1"], {("0", "1")}),
    ("c3", ["0", "1", "2"], {("0", "1"), ("1", "2"), ("0", "2")}),
    ("diamond", ["b", "l", "r", "t"],
     {("b", "l"), ("b", "r"), ("l", "t"), ("r", "t"), ("b", "t")}),
    ("fork", ["b", "m", "x", "y"],
     {("b", "m"), ("m", "x"), ("m", "y"), ("b", "x"), ("b", "y")}),
]


def monotone_assignments(elements, order):
    for images in itertools.product(elements, repeat=len(elements)):
        omap = dict(zip(elements, images))
        if all((omap[x], omap[y]) in order or omap[x] == omap[y]
               for (x, y) in order):
            yield omap


def test_thin_chains_match_kleene_iteration():
    checked = 0
    for name, elements, strict in POSET_SHAPES:
        cat = thin_category(name, elements, strict)
        order = set(strict) | {(x, x) for x in elements}
        pos = PointedPoset(elements, order, "0" if "0" in elements else "b")
        for omap in monotone_assignments(list(elements), order):
            endo = thin_functor(cat, cat, omap)
            chain = lambek_chain(endo)
            assert chain.stabilized
            assert chain.carrier == kleene_star(MonotoneMap(pos, pos, omap))
            for obj, x in all_algebra_structures(endo):
                assert len(algebra_morphisms(chain, obj, x)) == 1
            checked += 1
    assert checked > 50


# --- the chain as a category with a shift ----------------------------------------

def test_realization_walking_iso():
    real = chain_realization(lambek_chain(F_WALK))
    k = real.category
    assert list(k.objects) == ["n0", "n1"]
    assert sorted(k.arrows) == ["0x#0>1", "id_0#0>0", "id_x#1>1"]
    assert real.shift.omap == {"n0": "n1", "n1": "n1"}
    # every arrow shifts onto the cap stage
    assert real.shift.amap == {"id_0#0>0": "id_x#1>1", "0x#0>1": "id_x#1>1",
                               "id_x#1>1": "id_x#1>1"}
    assert real.inclusion.omap == {"n0": "0", "n1": "x"}
    assert real.cell.mu.components == {"n0": "id_x", "n1": "i"}


def test_realization_keeps_repeated_stages_apart():
    real = chain_realization(lambek_chain(F_IDEM))
    k = real.category
    assert list(k.objects) == ["n0", "n1", "n2"]
    assert real.shift.omap == {"n0": "n1", "n1": "n2", "n2": "n2"}
    # stages 1 and 2 both sit over w but carry distinct copies of its arrows
    assert "p#1>1" in k.arrows and "p#2>2" in k.arrows
    assert real.shift.on_arrow("u#0>1") == "p#1>2"
    assert real.shift.on_arrow("p#1>1") == "id_w#2>2"
    assert real.inclusion.on_obj("n1") == real.inclusion.on_obj("n2") == "w"


def test_realization_requires_stabilized_chain():
    with pytest.raises(ValidationError):
        chain_realization(lambek_chain(F_STUCK))


# --- algebra cells and their unique connecting 2-cells ----------------------------

@pytest.mark.parametrize("endo", INSTANCES, ids=lambda f: f.name)
def test_mediator_exists_and_connects_uniquely(endo):
    chain = lambek_chain(endo)
    real = chain_realization(chain)
    found = pseudo_initial_mediator(chain, endo)
    assert isinstance(found, AlgebraOneCell)
    assert found.algebra == endo
    assert is_invertible_transf(found.mu)
    # determinism of the search
    assert pseudo_initial_mediator(chain, endo) == found
    # a unique invertible 2-cell connects the found cell to the canonical one
    psi = unique_algebra_2cell(chain, found, real.cell)
    assert is_invertible_transf(psi)
    # and the self-pair admits only the identity
    assert unique_algebra_2cell(chain, found, found) == identity_transf(found.u)


def test_two_cell_filter_discards_noncommuting_candidates():
    chain = lambek_chain(F_AUT)
    real = chain_realization(chain)
    cell = real.cell
    invertible = [t for t in enumerate_nat_transfs(cell.u, cell.u)
                  if is_invertible_transf(t)]
    # the automorphism e gives a second invertible candidate
    assert len(invertible) == 2
    psi = unique_algebra_2cell(chain, cell, cell)
    assert psi == identity_transf(cell.u)


def test_no_mediator_into_swap_on_discrete():
    chain = lambek_chain(JOIN_ONE)
    with pytest.raises(NoMediator):
        pseudo_initial_mediator(chain, SWAP2)


def test_unique_2cell_reports_zero_witnesses():
    chain = lambek_chain(JOIN_ONE)
    real = chain_realization(chain)
    idd = identity_functor(DISCRETE2)
    cells = []
    for obj in ["a", "b"]:
        u = constant_functor(real.category, DISCRETE2, obj)
        mu = NatTransfData(compose_functors(u, real.shift),
                           compose_functors(idd, u),
                           {x: DISCRETE2.id_of(obj) for x in real.category.objects})
        cells.append(AlgebraOneCell(real.shift, idd, u, mu))
    with pytest.raises(UniquenessViolation) as info:
        unique_algebra_2cell(chain, cells[0], cells[1])
    assert info.value.count == 0


def test_unique_2cell_rejects_foreign_cells():
    chain = lambek_chain(JOIN_ONE)
    real = chain_realization(chain)
    other = chain_realization(lambek_chain(F_AUT))
    with pytest.raises(TypeMismatch):
        unique_algebra_2cell(chain, real.cell, other.cell)


def test_one_cell_construction_rejects_bad_data():
    shift = identity_functor(TWO)
    algebra = constant_functor(TWO, TWO, "1")
    u = constant_functor(TWO, TWO, "0")
    mu = NatTransfData(compose_functors(u, shift), compose_functors(algebra, u),
                       {"0": "0to1", "1": "0to1"})
    with pytest.raises(NotInvertible):
        AlgebraOneCell(shift, algebra, u, mu)
    with pytest.raises(TypeMismatch):
        AlgebraOneCell(shift, algebra, identity_functor(AUT), mu)
    with pytest.raises(TypeMismatch):
        AlgebraOneCell(shift, algebra, u, identity_transf(u))


def test_mediator_respects_search_bound(monkeypatch):
    chain = lambek_chain(F_IDEM)
    monkeypatch.setattr("fixcat.cat.MAX_OBJECTS", 1)
    with pytest.raises(SizeCap, match=r"over the bound of 1x1 \(cat.MAX_OBJECTS\)"):
        pseudo_initial_mediator(chain, F_IDEM)


# --- the structure isomorphism as an adjoint equivalence -------------------------

@pytest.mark.parametrize("endo", INSTANCES, ids=lambda f: f.name)
def test_adjoint_equivalence_triangles(endo):
    chain = lambek_chain(endo)
    eq = adjoint_equivalence_from_initial(chain)
    assert eq.right.components["*"] == chain.structure
    assert eq.left.components["*"] == chain.structure_inverse
    assert eq.unit == identity_transf(point_functor(endo.source, chain.carrier))


def test_adjoint_equivalence_walking_iso_components():
    eq = adjoint_equivalence_from_initial(lambek_chain(F_WALK))
    assert eq.right.components == {"*": "j"}
    assert eq.left.components == {"*": "i"}


def test_adjoint_equivalence_rejects_corrupt_certificate():
    chain = lambek_chain(F_WALK)
    corrupt = dataclasses.replace(chain, structure_inverse="j")
    with pytest.raises(NotInvertible):
        adjoint_equivalence_from_initial(corrupt)
    with pytest.raises(ValidationError):
        adjoint_equivalence_from_initial(lambek_chain(F_STUCK))
