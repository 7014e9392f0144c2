"""Model adapters: stars, witnesses, strictness, products, failure paths."""

import pytest

from fixcat import corpora, laws, models, poset, rel
from fixcat.cat import FunctorData, identity_functor
from fixcat.corpora import (
    AUT, COLLAPSE_X, F_AUT, F_IDEM, F_WALK, JOIN_ONE, SUCC3, TWO, WALK_SWAP,
)
from fixcat.errors import (InvalidSquare, NoProducts, TypeMismatch,
                           ValidationError)
from fixcat.laws import ThinCell
from fixcat.models import (BrokenPosetModel, CatModel, PosetModel, RelModel,
                           ScottModel)
from mutants import F_STUCK


CHAIN3 = poset.PointedPoset(
    ["b", "a", "t"],
    [("b", "b"), ("a", "a"), ("t", "t"), ("b", "a"), ("b", "t"), ("a", "t")],
    "b", name="chain3")
CLIMB = poset.MonotoneMap(CHAIN3, CHAIN3, {"b": "a", "a": "t", "t": "t"},
                          name="climb")


def test_poset_star_is_least_fixpoint():
    m = PosetModel()
    assert m.star(CLIMB).assignment["*"] == "t"
    halt = poset.MonotoneMap(CHAIN3, CHAIN3,
                             {"b": "a", "a": "a", "t": "t"}, name="halt")
    assert m.star(halt).assignment["*"] == "a"


def test_poset_star_rejects_non_endo():
    m = PosetModel()
    two = corpora.pointed_posets(2)[-1]
    f = poset.MonotoneMap(two, CHAIN3, {x: "b" for x in two.elements})
    with pytest.raises(TypeMismatch):
        m.star(f)


def test_poset_bifree_agrees_with_kleene():
    k, b = PosetModel("kleene"), PosetModel("bifree")
    for p in corpora.pointed_posets(3):
        for f in corpora.monotone_maps(p, p):
            assert k.star(f) == b.star(f)


def test_poset_star_impl_name_checked():
    with pytest.raises(ValidationError):
        PosetModel("newton")


def test_broken_model_fails_fix():
    m = BrokenPosetModel()
    const_bottom = poset.MonotoneMap(CHAIN3, CHAIN3,
                                     {x: "b" for x in CHAIN3.elements})
    w = m.fix_witness(const_bottom)
    assert not m.cell_ok(w)


def test_poset_witnesses_hold():
    m = PosetModel()
    assert m.cell_ok(m.fix_witness(CLIMB))
    assert m.cell_ok(m.dinat_witness(CLIMB, CLIMB))
    s = poset.identity_map(CHAIN3)
    gamma = ThinCell(m.compose(s, CLIMB), m.compose(CLIMB, s))
    assert m.cell_ok(m.unif_witness(s, CLIMB, CLIMB, gamma))


def test_poset_products_project():
    m = PosetModel()
    p = poset.product(CHAIN3, CHAIN3).poset
    assert len(p.elements) == 9
    fxg = m.pair(CLIMB, CLIMB)
    assert m.eq1(m.compose(m.proj1(CHAIN3, CHAIN3), fxg), CLIMB)
    assert m.eq1(m.compose(m.proj2(CHAIN3, CHAIN3), fxg), CLIMB)


GROW = rel.MultisetRel(("a", "b"), ("a", "b"),
                       {(rel.EMPTY_MSET, "a"), (rel.mset(["a"]), "b")},
                       name="grow")


def test_rel_star_closure():
    m = RelModel("closure")
    star = m.star(GROW)
    assert star.pairs == {(rel.EMPTY_MSET, "a"), (rel.EMPTY_MSET, "b")}
    assert star.source == rel.EMPTY_CARRIER


def test_rel_tree_star_matches_closure():
    mc, mt = RelModel("closure"), RelModel("tree")
    for f in corpora.rel_fragment_endos(corpora.rel_carrier(2)):
        assert mc.star(f) == mt.star(f)


def test_rel_strictness():
    m = RelModel()
    assert m.is_strict(rel.mrel_identity(("a", "b")))
    assert not m.is_strict(GROW)


def test_scott_star_normalizes():
    pre = rel.Preorder(["x", "y"], [("x", "x"), ("y", "y"), ("x", "y")])
    emit = rel.IdealRel(pre, pre, {((), "y")}, name="emit")
    m = ScottModel()
    assert rel.scott_star_set(emit) == {"x", "y"}
    assert m.star(emit).pairs == frozenset({((), "y")})


def test_scott_strictness():
    pre = rel.Preorder(["x", "y"], [("x", "x"), ("y", "y"), ("x", "y")])
    m = ScottModel()
    assert m.is_strict(rel.scott_identity(pre))
    assert not m.is_strict(rel.IdealRel(pre, pre, {((), "y")}))


def test_cat_star_carriers():
    m = CatModel()
    assert m.star(JOIN_ONE).omap["*"] == "1"
    assert m.star(SUCC3).omap["*"] == "2"
    assert m.star(F_WALK).omap["*"] == "x"
    assert m.star(F_AUT).omap["*"] == "z"
    assert m.star(F_IDEM).omap["*"] == "w"


def test_cat_fix_component_is_structure_iso():
    m = CatModel()
    w = m.fix_witness(F_AUT)
    assert w.components == {"*": "e"}
    assert m.cell_ok(w)


def test_cat_star_rejects_non_endo():
    m = CatModel()
    with pytest.raises(TypeMismatch):
        m.star(corpora.U23)


def test_cat_unif_witness_can_be_non_identity():
    m = CatModel()
    s = identity_functor(AUT)
    from fixcat.cat import NatTransfData, compose_functors
    sq = NatTransfData(compose_functors(s, F_AUT),
                       compose_functors(F_AUT, s),
                       {"0": "e", "z": "e"})
    w = m.unif_witness(s, F_AUT, F_AUT, sq)
    assert w.components == {"*": "e"}


def test_cat_strictness_tracks_initial_objects():
    m = CatModel()
    assert m.is_strict(WALK_SWAP)
    assert m.is_strict(identity_functor(TWO))
    assert not m.is_strict(JOIN_ONE)
    assert not m.is_strict(COLLAPSE_X)


def test_cat_rejects_non_invertible_square():
    from fixcat.cat import NatTransfData
    m = CatModel()
    s = identity_functor(TWO)
    # natural but not invertible: components include the chain step
    gamma = NatTransfData(s, JOIN_ONE, {"0": "0to1", "1": "id_1"})
    with pytest.raises(InvalidSquare):
        m.unif_witness(s, identity_functor(TWO), JOIN_ONE, gamma)


def test_cat_rejects_non_strict_square():
    from fixcat.cat import NatTransfData, compose_functors
    m = CatModel()
    gamma = NatTransfData(compose_functors(JOIN_ONE, JOIN_ONE),
                          compose_functors(JOIN_ONE, JOIN_ONE),
                          {"0": "id_1", "1": "id_1"})
    with pytest.raises(InvalidSquare):
        m.unif_witness(JOIN_ONE, JOIN_ONE, JOIN_ONE, gamma)


def test_cat_has_no_products():
    m = CatModel()
    with pytest.raises(NoProducts):
        m.proj1(TWO, TWO)
    assert not m.has_products()


def test_cat_chain_computed_once_per_channel_walk(monkeypatch):
    # cat instances are evaluated law by law under the channel walk's one
    # table: the chain is computed once for all the laws reading it, and
    # value-equal instances after the first share it
    chain = models.lambek_chain
    calls = []

    def counting(f):
        calls.append(f)
        return chain(f)

    monkeypatch.setattr(models, "lambek_chain", counting)
    m = CatModel()
    twin = FunctorData(F_AUT.source, F_AUT.target, F_AUT.omap, F_AUT.amap,
                       name="aut_twin")
    corpus = laws.Corpus(endos=[F_AUT, twin, F_AUT])
    every = laws.FIX_LAWS + laws.DINAT_LAWS + laws.UNIF_LAWS
    reports = laws.run_laws(m, corpus, every)
    assert all(r.passes == 3 for r in reports if r.instances == 3)
    assert calls == [F_AUT] and calls[0] is F_AUT
    assert m._memo is None


def test_cat_star_reports_a_cycling_chain():
    with pytest.raises(ValidationError) as info:
        CatModel().star(F_STUCK)
    assert str(info.value).endswith(
        "never stabilizes: cycles from step 1 with period 1")


def test_thin_cell_ops():
    m = PosetModel()
    ident = m.id2(CLIMB)
    assert m.cell_ok(ident)
    assert m.eq2(m.vcomp2(ident, ident), ident)
    assert m.is_invertible2(ident)
    assert m.eq2(m.inverse2(ident), ident)


def test_model_names():
    assert PosetModel("bifree").name == "poset[bifree]"
    assert RelModel("tree").name == "rel[tree]"
    assert ScottModel().name == "scott"
    assert CatModel().name == "cat"
    assert BrokenPosetModel().name == "poset[broken]"
