"""Law engine: all checks green on every adapter, failure paths, comparisons."""

import pytest
from hypothesis import given, settings, strategies as st

import gc
import random
from collections import Counter
import tracemalloc
import weakref

from fixcat import corpora, laws, poset, rel
from fixcat.errors import (InvalidSquare, NoProducts, NotContractible,
                           TypeMismatch)
from fixcat.laws import (DINAT_LAWS, FIX_LAWS, UNIF_LAWS, Corpus, ThinCell,
                         compare_operators, product_route, require_square,
                         run_laws, run_suite)
from fixcat.models import (BrokenPosetModel, CatModel, PosetModel, RelModel,
                           ScottModel)
from mutants import (GreatestRelModel, LastFixpointPosetModel,
                     NamedRelModel)


@pytest.fixture(scope="module")
def poset_corpus():
    return corpora.poset_corpus(draws=24, seed=0)


@pytest.fixture(scope="module")
def rel_corpus():
    return corpora.rel_corpus(draws=24, seed=0)


@pytest.fixture(scope="module")
def scott_corpus():
    return corpora.scott_corpus(draws=24, seed=0)


@pytest.fixture(scope="module")
def cat_corpus():
    return corpora.cat_corpus()


def all_reports(m, c):
    return (run_laws(m, c, FIX_LAWS) + run_laws(m, c, DINAT_LAWS)
            + run_laws(m, c, UNIF_LAWS))


EXPECTED_LAWS = [
    "fix.cell", "fix.naturality",
    "dinat.cell", "dinat.unity", "dinat.fix_remark", "dinat.one_nat",
    "dinat.two_nat", "dinat.fix_coherence",
    "unif.cell", "unif.invertible", "unif.unity", "unif.one_nat",
    "unif.two_nat", "unif.transport", "unif.fix_coherence",
    "unif.dinat_coherence",
]


def assert_green(m, c):
    reports = all_reports(m, c)
    assert [r.law_id for r in reports] == EXPECTED_LAWS
    for r in reports:
        assert not r.failed, f"{m.name}/{r.law_id}: {r.counterexample}"
        assert not r.vacuous, f"{m.name}/{r.law_id} ran on nothing"


def test_poset_kleene_green(poset_corpus):
    assert_green(PosetModel("kleene"), poset_corpus)


def test_poset_bifree_green(poset_corpus):
    assert_green(PosetModel("bifree"), poset_corpus)


def test_rel_closure_green(rel_corpus):
    assert_green(RelModel("closure"), rel_corpus)


def test_rel_tree_green(rel_corpus):
    assert_green(RelModel("tree"), rel_corpus)


def test_scott_green(scott_corpus):
    assert_green(ScottModel(), scott_corpus)


def test_cat_green(cat_corpus):
    assert_green(CatModel(), cat_corpus)


def test_broken_adapter_yields_counterexample(poset_corpus):
    reports = run_laws(BrokenPosetModel(), poset_corpus, FIX_LAWS)
    fix_cell = reports[0]
    assert fix_cell.law_id == "fix.cell"
    assert fix_cell.failed
    assert fix_cell.counterexample is not None
    assert "FAIL" in fix_cell.line()


def test_empty_corpus_is_vacuous_not_green():
    reports = all_reports(PosetModel(), Corpus())
    assert all(r.vacuous for r in reports)
    assert all(not r.failed for r in reports)
    assert all(not r.ok for r in reports)
    assert all("VACUOUS" in r.line() for r in reports)


CHAIN2 = poset.PointedPoset(["b", "t"],
                            [("b", "b"), ("t", "t"), ("b", "t")], "b",
                            name="two")
UP = poset.MonotoneMap(CHAIN2, CHAIN2, {"b": "t", "t": "t"}, name="up")
DOWN = poset.MonotoneMap(CHAIN2, CHAIN2, {"b": "b", "t": "b"}, name="down")
IDC = poset.identity_map(CHAIN2)


def test_require_square_rejects_non_strict():
    m = PosetModel()
    s = poset.MonotoneMap(CHAIN2, CHAIN2, {"b": "t", "t": "t"})
    gamma = ThinCell(m.compose(s, IDC), m.compose(IDC, s))
    with pytest.raises(InvalidSquare):
        require_square(m, s, IDC, IDC, gamma)


def test_require_square_rejects_non_commuting():
    m = PosetModel()
    gamma = ThinCell(m.compose(IDC, DOWN), m.compose(UP, IDC))
    with pytest.raises(InvalidSquare):
        require_square(m, IDC, DOWN, UP, gamma)


def test_unif_error_becomes_counterexample():
    m = PosetModel()
    c = Corpus()
    bad_gamma = ThinCell(m.compose(IDC, DOWN), m.compose(UP, IDC))
    c.unif_squares = [(IDC, DOWN, UP, bad_gamma)]
    reports = run_laws(m, c, UNIF_LAWS)
    cell = reports[0]
    assert cell.law_id == "unif.cell"
    assert cell.failed
    assert "InvalidSquare" in str(cell.counterexample)


def test_theta_precondition_violation_is_reported():
    m = PosetModel()
    c = Corpus()
    gamma = ThinCell(m.compose(IDC, UP), m.compose(UP, IDC))
    rho = ThinCell(m.compose(IDC, DOWN), m.compose(DOWN, IDC))
    # theta: id => id, but gamma and rho describe different squares
    c.unif_thetas = [(m.id2(IDC), UP, UP, gamma, rho)]
    reports = run_laws(m, c, UNIF_LAWS)
    two_nat = [r for r in reports if r.law_id == "unif.two_nat"][0]
    assert two_nat.failed
    assert "InvalidSquare" in str(two_nat.counterexample)


def product_dinat(m, f, g):
    """The dinat cell (fg)* => f.(gf)* built from the product route, and
    whether it is the adapter's own dinat witness."""
    gf_star, fg_star = product_route(m, f, g)
    built = ThinCell(fg_star, m.compose(f, gf_star))
    return built, m.eq2(built, m.dinat_witness(f, g))


def test_product_route_dinat_poset():
    m = PosetModel()
    built, agreement = product_dinat(m, UP, DOWN)
    assert agreement
    assert m.cell_ok(built)


def test_product_route_dinat_rel():
    m = RelModel()
    f = rel.MultisetRel(("a",), ("b",), {(rel.mset(["a"]), "b")})
    g = rel.MultisetRel(("b",), ("a",), {(rel.EMPTY_MSET, "a")})
    built, agreement = product_dinat(m, f, g)
    assert agreement
    assert m.cell_ok(built)


def test_product_route_needs_products():
    with pytest.raises(NoProducts):
        product_route(CatModel(), corpora.JOIN_ONE, corpora.JOIN_ONE)


def test_product_route_checks_boundaries():
    m = PosetModel()
    chain3 = poset.PointedPoset(
        ["b", "a", "t"],
        [("b", "b"), ("a", "a"), ("t", "t"),
         ("b", "a"), ("b", "t"), ("a", "t")], "b")
    f = poset.MonotoneMap(CHAIN2, chain3, {"b": "b", "t": "t"})
    with pytest.raises(TypeMismatch):
        product_route(m, f, f)


def test_compare_kleene_bifree_identity(poset_corpus):
    rep = compare_operators(PosetModel("kleene"), PosetModel("bifree"),
                            poset_corpus.endos,
                            pairs=poset_corpus.dinat_pairs)
    # the report is the operators' names and the count of endos checked
    assert vars(rep) == {"base": "poset[kleene]|poset[bifree]",
                         "instances": len(poset_corpus.endos)}


def test_compare_closure_tree_identity(rel_corpus):
    rep = compare_operators(RelModel("closure"), RelModel("tree"),
                            rel_corpus.endos[::7])
    assert rep.instances == len(rel_corpus.endos[::7])


def test_compare_refuses_a_non_thin_adapter(cat_corpus):
    # compare is the 1-cell equality test that the 2-cell search is on thin
    # models; an adapter with genuine 2-cells would need the search
    for m1, m2 in ((CatModel(), CatModel()), (PosetModel(), CatModel())):
        with pytest.raises(TypeMismatch, match="cat is not thin"):
            compare_operators(m1, m2, cat_corpus.endos,
                              pairs=cat_corpus.dinat_pairs)


def test_compare_searches_value_equal_endos_once(poset_corpus,
                                                 monkeypatch):
    f = next(e for e in poset_corpus.endos if len(e.source.elements) == 3)
    twin = poset.MonotoneMap(f.source, f.target, f.assignment, name="twin")
    calls = []

    def counting(kernel):
        real = getattr(poset, kernel)

        def star(endo):
            calls.append((kernel, endo))
            return real(endo)
        return star

    for kernel in ("kleene_star", "bifree_star"):
        monkeypatch.setattr(poset, kernel, counting(kernel))
    rep = compare_operators(PosetModel("kleene"), PosetModel("bifree"),
                            [f, twin])
    assert calls == [("kleene_star", f), ("bifree_star", f)]
    assert rep.instances == 2


def test_compare_disagreeing_operators_not_contractible(poset_corpus):
    with pytest.raises(NotContractible):
        compare_operators(PosetModel("kleene"), BrokenPosetModel(),
                          poset_corpus.endos)


@pytest.fixture(scope="module")
def poset0():
    return corpora.poset_corpus(0)


@pytest.fixture(scope="module")
def rel0():
    return corpora.rel_corpus(0)


@pytest.mark.parametrize("m1, m2, items, message", [
    (lambda: PosetModel("kleene"), BrokenPosetModel,
     lambda pc, rc: (pc.endos, ()),
     "poset[kleene] vs poset[broken] at P2_0->P2_0{'b'>'b', 'e0'>'b'}: "
     "0 fix-compatible candidates among 0"),
    (BrokenPosetModel, BrokenPosetModel,
     lambda pc, rc: (pc.endos, ()),
     "poset[broken] vs poset[broken] at P2_0->P2_0{'b'>'b', 'e0'>'b'}: "
     "0 fix-compatible candidates among 1"),
    (lambda: RelModel("closure"), GreatestRelModel,
     lambda pc, rc: (rc.endos, ()),
     "rel[closure] vs rel[greatest] at rel(1->1: (('r0', 1),)>'r0'): "
     "0 fix-compatible candidates among 0"),
    (LastFixpointPosetModel, LastFixpointPosetModel,
     lambda pc, rc: ((), pc.dinat_pairs),
     "delta does not commute with dinat at (f=P2_0->P3_1{'b'>'e1', "
     "'e0'>'e0'}, g=P3_1->P2_0{'b'>'b', 'e0'>'e0', 'e1'>'b'})"),
], ids=["stars-differ", "fix-fails", "rel-stars-differ", "dinat"])
def test_compare_failure_messages(m1, m2, items, message, poset0, rel0):
    endos, pairs = items(poset0, rel0)
    with pytest.raises(NotContractible) as info:
        compare_operators(m1(), m2(), endos, pairs=pairs)
    assert str(info.value) == message


def test_compare_shared_memo_keeps_operators_stars_apart(rel_corpus):
    with pytest.raises(NotContractible):
        compare_operators(RelModel("closure"), GreatestRelModel(),
                          rel_corpus.endos)


def test_compare_composes_once_for_both_operators(rel_corpus, monkeypatch):
    # composition does not read the star construction, so two operators
    # make exactly as many kernel composes as one adapter passed twice
    calls = []
    compose = rel.mrel_compose

    def counting(g, f):
        calls.append(None)
        return compose(g, f)

    monkeypatch.setattr(rel, "mrel_compose", counting)

    def composes(m1, m2):
        calls.clear()
        compare_operators(m1, m2, rel_corpus.endos[::10],
                          pairs=rel_corpus.dinat_pairs[::50])
        return len(calls)

    m = RelModel("closure")
    once = composes(m, m)
    assert once > 0
    assert composes(RelModel("closure"), RelModel("tree")) == once


def test_unif_dinat_coherence_specializes_to_fix(poset_corpus):
    # with A = B, g = id, s = r, rho the identity square, the dinat+unif
    # coherence collapses onto the fix/unif compatibility triangle
    m = PosetModel()
    c = Corpus()
    for (s, f, g, gamma) in poset_corpus.unif_squares[::41]:
        a, b = m.src(f), m.src(g)
        ida, idb = m.identity(a), m.identity(b)
        rho = ThinCell(m.compose(s, ida), m.compose(idb, s))
        c.unif_dinat.append((s, s, f, ida, g, idb, gamma, rho))
    reports = run_laws(m, c, UNIF_LAWS)
    coh = [r for r in reports if r.law_id == "unif.dinat_coherence"][0]
    assert not coh.failed and not coh.vacuous


def test_run_suite_is_deterministic():
    jobs1 = [(PosetModel(), corpora.poset_corpus(draws=18, seed=4))]
    jobs2 = [(PosetModel(), corpora.poset_corpus(draws=18, seed=4))]
    lines1 = [r.line() for r in run_suite(jobs1, seed=4)]
    lines2 = [r.line() for r in run_suite(jobs2, seed=4)]
    assert lines1 == lines2
    assert all("/" in r.law_id for r in run_suite(jobs1, seed=4))


def test_run_suite_sorted_by_law_id():
    jobs = [(PosetModel(), corpora.poset_corpus(draws=0)),
            (ScottModel(), corpora.scott_corpus(draws=0))]
    ids = [r.law_id for r in run_suite(jobs)]
    assert ids == sorted(ids)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_fix_law_on_random_posets(seed):
    rng = random.Random(seed)
    m = PosetModel()
    p = corpora.random_pointed_poset(rng, 5, "h")
    f = corpora.random_monotone_map(rng, p, p)
    assert m.cell_ok(m.fix_witness(f))
    x = m.star(f).assignment["*"]
    fixes = poset.all_fixpoints(f)
    assert x in fixes
    assert all(p.leq(x, z) for z in fixes)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_unif_law_on_random_closure_squares(seed):
    rng = random.Random(seed)
    m = PosetModel()
    p = corpora.random_pointed_poset(rng, 5, "h")
    g = corpora.random_monotone_map(rng, p, p)
    s, f, g2, gamma = corpora.poset_closure_square(g)
    w = m.unif_witness(s, f, g2, gamma)
    assert m.cell_ok(w)


def test_run_suite_releases_each_corpus_before_drawing_the_next():
    chain = corpora.pointed_posets(3)[-1]
    alive_at_second = []

    def jobs():
        first = Corpus(endos=corpora.monotone_maps(chain, chain))
        ref = weakref.ref(first)
        yield PosetModel(), first
        del first
        gc.collect()
        alive_at_second.append(ref() is not None)
        yield PosetModel(), Corpus(endos=corpora.monotone_maps(chain, chain))

    reports = run_suite(jobs())
    assert alive_at_second == [False]
    assert len(reports) == 2 * len(FIX_LAWS + DINAT_LAWS + UNIF_LAWS)


# --- instance-major evaluation, and the tables it opens ---------------------

def test_memo_closed_after_run_suite_and_compare(poset_corpus, rel_corpus):
    pm, rm = PosetModel(), RelModel()
    run_suite([(pm, poset_corpus), (rm, rel_corpus)])
    assert pm._memo is None and rm._memo is None
    m1, m2 = RelModel("closure"), RelModel("tree")
    compare_operators(m1, m2, rel_corpus.endos,
                      pairs=rel_corpus.dinat_pairs[::50])
    assert m1._memo is None and m2._memo is None
    # compare keeps its stars itself and never opens an adapter's table
    assert "_memo" not in vars(m1) and "_memo" not in vars(m2)


def test_memo_closed_after_compare_raises(poset_corpus):
    m1, m2 = PosetModel("kleene"), BrokenPosetModel()
    with pytest.raises(NotContractible):
        compare_operators(m1, m2, poset_corpus.endos)
    assert m1._memo is None and m2._memo is None
    assert "_memo" not in vars(m1) and "_memo" not in vars(m2)


def test_memo_shares_equal_arguments(monkeypatch):
    calls = []
    real = poset.kleene_star

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(poset, "kleene_star", counting)
    m = PosetModel()
    same = poset.MonotoneMap(CHAIN2, CHAIN2, dict(UP.assignment), name="up2")
    # a declared law runs as a program, under the channel's table
    reports = laws.run_laws(m, Corpus(endos=[UP, same]), [laws.FIX_LAWS[0]])
    assert reports[0].passes == 2
    assert calls == [UP]
    m._memo = {}
    assert m.compose(UP, DOWN) is m.compose(same, DOWN)
    m._memo = None
    assert m.star(UP) is not m.star(UP)


def test_memo_keeps_no_failed_call():
    m = RelModel()
    f = rel.MultisetRel(("a",), ("a", "b"), {(rel.mset(["a"]), "b")})
    m._memo = {}
    for _ in range(2):
        with pytest.raises(TypeMismatch):
            m.star(f)
    assert m._memo == {}


def test_broken_adapter_counterexample_unchanged():
    # the first fix.cell counterexample of `fixcat laws suite_broken.json`
    reports = run_laws(BrokenPosetModel(), corpora.poset_corpus(draws=0),
                       FIX_LAWS)
    ce = reports[0].counterexample
    assert reports[0].law_id == "fix.cell"
    assert (reports[0].passes, reports[0].instances) == (13, 25)
    assert ce["inputs"] == "P2_0->P2_0{'b'>'b', 'e0'>'b'}"
    assert ce["left"] == "1->P2_0{'*'>'b'} => 1->P2_0{'*'>'e0'}"
    assert ce["right"] == ("invertible cell 1->P2_0{'*'>'b'} => "
                           "1->P2_0{'*'>'e0'}")


class CrashingPosetModel(PosetModel):
    """An adapter whose star hits a non-fixcat error on 3-element posets."""

    def _lfp(self, f):
        if len(f.source.elements) == 3:
            raise KeyError("boom")
        return super()._lfp(f)


def test_adapter_crash_is_reported_as_error_counterexample():
    corpus = corpora.poset_corpus(draws=2, seed=0)
    reports = run_suite([(CrashingPosetModel(), corpus)])
    sound = run_suite([(PosetModel(), corpus)])
    assert [r.law_id for r in reports] == [r.law_id for r in sound]
    failed = [r for r in reports if r.failed]
    assert failed
    # the walk went on past the crashing instances
    assert any(r.passes for r in failed)
    for r in failed:
        assert r.counterexample["left"] == "<error>"
        assert r.counterexample["right"] == "KeyError: 'boom'"


@pytest.mark.parametrize("make", [PosetModel, BrokenPosetModel, ScottModel])
def test_direct_checks_match_run_suite(make):
    corpus = (corpora.scott_corpus(draws=6) if make is ScottModel
              else corpora.poset_corpus(draws=6))
    direct = all_reports(make(), corpus)
    suite = run_suite([(make(), corpus)])
    name = make().name
    for r in suite:
        r.law_id = r.law_id.removeprefix(f"{name}/")
    assert sorted(direct, key=lambda r: r.law_id) == suite


def keyed(table):
    """The entries of a table keyed by (method, *arguments)."""
    return sum(type(k) is tuple for k in table)


def test_channel_without_program_shares_its_table_across_instances():
    # laws the recorder does not stand in for are evaluated law by law,
    # under the channel walk's one table
    m = PosetModel()
    corpus = Corpus(endos=[UP, DOWN, UP])
    seen = []

    def first(m, f):
        seen.append(("first", keyed(m._memo)))
        m.star(f)
        return True, None, None

    def second(m, f):
        seen.append(("second", keyed(m._memo)))
        return True, None, None

    reports = laws.run_laws(m, corpus, [
        laws.Law("a", "", "endos", first, describe1),
        laws.Law("b", "", "endos", second, describe1)])
    assert [r.passes for r in reports] == [3, 3]
    # the second law sees the first's entries, and the second instance the
    # first one's; the third, equal to the first, adds none (counting
    # keyed entries only: the table also holds each star's value)
    assert seen == [("first", 0), ("second", 1), ("first", 1), ("second", 2),
                    ("first", 2), ("second", 2)]
    assert m._memo is None


def test_compare_renders_no_describe_strings_when_passing(poset_corpus):
    calls = []

    class Counting(PosetModel):
        def describe1(self, f):
            calls.append(f)
            return super().describe1(f)

        def describe2(self, t):
            calls.append(t)
            return super().describe2(t)

    rep = compare_operators(Counting("kleene"), Counting("bifree"),
                            poset_corpus.endos,
                            pairs=poset_corpus.dinat_pairs)
    assert rep.instances == len(poset_corpus.endos)
    assert calls == []


# --- the table: each distinct star computed once per channel walk -----------

OTHER2 = poset.PointedPoset(["b", "t"], [("b", "b"), ("t", "t"), ("b", "t")],
                            "b", name="other")
DOWN_OTHER = poset.MonotoneMap(OTHER2, OTHER2, {"b": "b", "t": "b"},
                               name="down_other")


def describe1(m, f):
    return m.describe1(f)


FIX_CELL = laws.FIX_LAWS[0]


@pytest.mark.parametrize("make, module, kernel", [
    (lambda: PosetModel("kleene"), poset, "kleene_star"),
    (lambda: PosetModel("bifree"), poset, "bifree_star"),
    (lambda: RelModel("closure"), rel, "mrel_star"),
    (lambda: RelModel("tree"), rel, "tree_star"),
], ids=["poset-kleene", "poset-bifree", "rel-closure", "rel-tree"])
def test_run_table_shares_value_equal_stars_across_instances(
        monkeypatch, make, module, kernel):
    calls = []
    real = getattr(module, kernel)

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(module, kernel, counting)
    m = make()
    if module is poset:
        f, twin = DOWN, DOWN_OTHER
    else:
        f = rel.MultisetRel(("a", "b"), ("a", "b"),
                            {(rel.EMPTY_MSET, "a"), (rel.mset(["a"]), "b")})
        twin = rel.MultisetRel(("b", "a"), ("b", "a"), f.pairs, name="twin")
    assert f == twin and f is not twin
    reports = laws.run_laws(m, Corpus(endos=[f, twin]), [FIX_CELL])
    assert reports[0].passes == 2
    assert len(calls) == 1
    assert m._memo is None
    # a second run opens a table of its own
    laws.run_laws(m, Corpus(endos=[twin]), [FIX_CELL])
    assert len(calls) == 2


def test_run_table_renewed_between_channels(monkeypatch):
    calls = []
    real = poset.kleene_star

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(poset, "kleene_star", counting)
    m = PosetModel()
    corpus = Corpus(endos=[UP, UP], endo_cells=[ThinCell(UP, UP)] * 2)
    reports = laws.run_laws(m, corpus, laws.FIX_LAWS)
    assert [r.passes for r in reports] == [2, 2]
    assert len(calls) == 2


def test_run_table_keeps_no_failed_star():
    m = RelModel()
    f = rel.MultisetRel(("a",), ("a", "b"), {(rel.mset(["a"]), "b")})
    m._memo = {}
    for _ in range(2):
        with pytest.raises(TypeMismatch):
            m.star(f)
    assert m._memo == {}
    m._memo = None


def test_counterexample_rendered_from_replay_without_run_table():
    # DOWN and DOWN_OTHER are equal by value on posets named "two" and
    # "other".  The dinat pair computes DOWN's star, named after "two";
    # fix.cell then fails on DOWN_OTHER, and its counterexample must read
    # as if DOWN_OTHER had been evaluated on its own.
    m = BrokenPosetModel()
    corpus = Corpus(endos=[DOWN_OTHER], dinat_pairs=[(DOWN, IDC)])
    cell = laws.FIX_LAWS[0]
    reports = laws.run_laws(m, corpus, [laws.DINAT_LAWS[0], cell])
    got = reports[1].counterexample
    assert m._memo is None
    ok, left, right = cell.evaluate(m, DOWN_OTHER)
    assert not ok
    want = laws._counterexample(m, cell, DOWN_OTHER, left, right)
    assert got == want
    assert "two" not in got["left"] + got["right"]
    assert got["left"] == "1->other{'*'>'b'} => 1->other{'*'>'t'}"


# --- one object per value in a table -------------------------------------------

# Two different endos of one carrier whose least fixpoints agree: b needs b.
ONLY_A = rel.MultisetRel(("a", "b"), ("a", "b"), {(rel.EMPTY_MSET, "a")})
A_AND_LOOP = rel.MultisetRel(("a", "b"), ("a", "b"),
                             {(rel.EMPTY_MSET, "a"), (rel.mset(["b"]), "b")})


class RecordingRelModel(RelModel):
    """Records every star and composite the law engine hands back."""

    def __init__(self):
        super().__init__()
        self.stars, self.composites = [], []

    def star(self, f):
        out = super().star(f)
        self.stars.append(out)
        return out

    def compose(self, g, f):
        out = super().compose(g, f)
        self.composites.append(out)
        return out


def test_run_table_keeps_one_object_per_star_value():
    assert ONLY_A != A_AND_LOOP
    m = RelModel()
    assert m.star(ONLY_A) == m.star(A_AND_LOOP)
    m._memo = {}
    assert m.star(ONLY_A) is m.star(A_AND_LOOP)
    m._memo = None
    # the same holds across the instances of a recorded channel walk
    m = RecordingRelModel()
    reports = laws.run_laws(m, Corpus(endos=[ONLY_A, A_AND_LOOP]), [FIX_CELL])
    assert reports[0].passes == 2
    assert len(m.stars) == 2 and m.stars[0] is m.stars[1]


def test_star_part_composite_equal_to_a_star_is_that_star():
    m = RelModel()
    m._memo = {}
    fs = m.star(ONLY_A)
    assert m.compose(ONLY_A, fs) is fs
    m._memo = None
    # the same holds in a recorded program's walk
    m = RecordingRelModel()
    reports = laws.run_laws(m, Corpus(endos=[A_AND_LOOP]), [FIX_CELL])
    assert reports[0].passes == 1
    star, = {id(s): s for s in m.stars}.values()
    assert any(c is star for c in m.composites)


def test_cat_run_with_unhashable_chains_matches_table_free_evaluation(
        cat_corpus):
    m = CatModel()
    with pytest.raises(TypeError):
        hash(m._chain(cat_corpus.endos[0]))
    m._memo = {}
    chain = m._chain(cat_corpus.endos[0])
    assert m._chain(cat_corpus.endos[0]) is chain
    assert len(m._memo) == 1
    m._memo = None
    all_laws = FIX_LAWS + DINAT_LAWS + UNIF_LAWS
    reports = run_laws(m, cat_corpus, all_laws)
    for law, rep in zip(all_laws, reports):
        insts = getattr(cat_corpus, law.channel)
        verdicts = [laws._evaluate(m, law, inst)[0] for inst in insts]
        assert rep.passes == sum(bool(ok) for ok in verdicts), law.law_id
        assert rep.failed == (not all(verdicts)), law.law_id
        assert rep.instances == len(insts) > 0


@pytest.fixture(scope="module")
def rel12_walks():
    """The endos and dinat_pairs channels of one rel corpus, each as a
    corpus of its own."""
    corpus = corpora.rel_corpus(draws=12, seed=0)
    return (Corpus(endos=corpus.endos),
            Corpus(dinat_pairs=corpus.dinat_pairs))


def walk_peak(corpus):
    """The reports of every law on `corpus`, and the walk's peak of traced
    memory above what was allocated before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        reports = run_laws(RelModel(), corpus,
                           FIX_LAWS + DINAT_LAWS + UNIF_LAWS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return reports, peak - base


def test_rel_endos_walk_peak_memory_is_bounded(rel12_walks):
    # the walk's table holds one object per distinct value, leaves
    # included, and peaks at 1.80 MB; keeping the leaves out of it, so
    # that each unit composite id.f and f.id kept a copy of its endo,
    # peaked at 5.8 MB here
    endos = rel12_walks[0]
    reports, peak = walk_peak(endos)
    assert sum(r.passes for r in reports) == 4 * len(endos.endos)
    assert peak < 2_500_000


def test_rel_dinat_pairs_walk_peak_memory_is_bounded(rel12_walks):
    # the largest table of a suite run: a key for each distinct fg and
    # gf of the 19,432 exhaustive pairs, 21,573 entries in all, peaks at
    # 2.05 MB (0.30 MB when only the composites of a star were kept for
    # the walk)
    pairs = rel12_walks[1]
    reports, peak = walk_peak(pairs)
    assert sum(r.passes for r in reports) == 2 * len(pairs.dinat_pairs)
    assert peak < 2_600_000


# --- one instance per relabelling orbit ------------------------------------------

@pytest.fixture(scope="module")
def rel_tail():
    # the exhaustive prefixes and a random tail after them
    return corpora.rel_corpus(draws=9, seed=4)


MAPPED_CHANNELS = ("endos", "endo_cells", "dinat_pairs", "unif_squares")
MAPPED_LAWS = [law for law in FIX_LAWS + DINAT_LAWS + UNIF_LAWS
               if law.channel in MAPPED_CHANNELS]


@pytest.mark.parametrize("make", [lambda: RelModel("closure"),
                                  lambda: RelModel("tree"),
                                  GreatestRelModel, NamedRelModel],
                         ids=["closure", "tree", "greatest", "named"])
def test_orbit_walk_reports_equal_the_labelled_walk(rel_tail, make):
    # a walk over representatives credits each verdict to its whole orbit;
    # passes, instance counts and the counterexample dict, first failing
    # instance and its text included, are those of the walk over every
    # labelled instance of the same corpus with the map removed
    labelled = Corpus(**vars(rel_tail))
    assert labelled.symmetry is None and rel_tail.symmetry is not None
    got = run_laws(make(), rel_tail, MAPPED_LAWS)
    want = run_laws(make(), labelled, MAPPED_LAWS)
    for g, w in zip(got, want):
        assert (g.passes, g.instances, g.counterexample) == (
            w.passes, w.instances, w.counterexample), g.law_id
    assert got == want


def test_greatest_fails_the_square_laws_on_whole_orbits(rel_tail):
    # the mutant fails each of the three square laws on 1,445 of the
    # 3,597 squares, 3,594 of them walked by their 323 representatives
    reps, sizes = rel_tail.symmetry.orbits["unif_squares"]
    assert (len(reps), sum(sizes), len(rel_tail.unif_squares)) == (
        323, 3594, 3597)
    square_laws = [law for law in MAPPED_LAWS
                   if law.channel == "unif_squares"]
    reports = run_laws(GreatestRelModel(), rel_tail, square_laws)
    assert [(r.instances - r.passes, r.instances) for r in reports] == [
        (1445, 3597)] * 3


def judged(monkeypatch, m, corpus):
    """The ids of the instances each channel walk of `corpus` judges."""
    seen = []
    verdicts = laws._Program.verdicts

    def counting(self, inst):
        seen.append(id(inst))
        return verdicts(self, inst)

    monkeypatch.setattr(laws._Program, "verdicts", counting)
    run_laws(m, corpus, MAPPED_LAWS)
    monkeypatch.undo()
    return Counter(seen)


def test_orbit_walk_judges_representatives_and_the_tail(monkeypatch,
                                                        rel_tail):
    sym = rel_tail.symmetry
    want = Counter()
    for channel in MAPPED_CHANNELS:
        insts = getattr(rel_tail, channel)
        reps, sizes = sym.orbits[channel]
        assert len(insts) > sum(sizes) or channel == "endo_cells"
        want.update(id(insts[i]) for i in reps)
        want.update(id(x) for x in insts[sum(sizes):])
    assert judged(monkeypatch, RelModel(), rel_tail) == want


def test_named_star_trips_the_equivariance_check(monkeypatch, rel_tail):
    # a star that reads carrier names fails the check, so its walk judges
    # every labelled instance; RelModel's own star passes it
    sym, endos = rel_tail.symmetry, rel_tail.endos
    assert laws._orbit_walk_sound(RelModel(), sym, endos)
    assert not laws._equivariant_star(NamedRelModel(), sym, endos,
                                      NamedRelModel().star)
    assert not laws._orbit_walk_sound(NamedRelModel(), sym, endos)
    every = Counter(id(x) for channel in MAPPED_CHANNELS
                    for x in getattr(rel_tail, channel))
    assert judged(monkeypatch, NamedRelModel(), rel_tail) == every


class UnmarkedComposeRelModel(RelModel):
    """RelModel with a compose of its own, unmarked: its star is RelModel's,
    but the orbit walk cannot vouch for its compose."""

    def compose(self, g, f):
        return rel.mrel_compose(g, f)


def test_orbit_walk_needs_every_relabelled_method_marked(rel_tail):
    sym, endos = rel_tail.symmetry, rel_tail.endos
    assert laws._equivariant_star(UnmarkedComposeRelModel(), sym, endos,
                                  RelModel().star)
    assert not laws._orbit_walk_sound(UnmarkedComposeRelModel(), sym, endos)


class RaisingRelModel(RelModel):
    """RelModel whose star raises at the endos `raises` picks."""

    def __init__(self, raises):
        super().__init__()
        self.raises = raises

    def _lfp(self, f):
        if self.raises(f):
            raise TypeMismatch("no star here")
        return super()._lfp(f)


@pytest.mark.parametrize("raises, sound", [
    (lambda f: len(f.pairs) == 3, True),                  # whole orbits
    (lambda f: ((("r0", 1),), "r0") in f.pairs, False),   # by a name
], ids=["by-size", "by-name"])
def test_equivariance_check_compares_where_star_raises(rel_tail, raises,
                                                       sound):
    # the check asks a star to raise on whole orbits or not at all
    m = RaisingRelModel(raises)
    assert laws._orbit_walk_sound(m, rel_tail.symmetry, rel_tail.endos) is sound


class ReadList(list):
    """A list that records the indices read from it one by one."""

    def __init__(self, items):
        super().__init__(items)
        self.read = []

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


def test_compare_checks_one_pair_per_orbit(rel_tail):
    # compare reads the same map: equal reports with and without it, and
    # with it only representative pairs and the random tail are read
    def run(symmetry):
        pairs = ReadList(rel_tail.dinat_pairs)
        report = compare_operators(RelModel("closure"), RelModel("tree"),
                                   rel_tail.endos, pairs=pairs,
                                   symmetry=symmetry)
        return report, pairs.read

    plain, _ = run(None)
    mapped, read = run(rel_tail.symmetry)
    assert mapped == plain and mapped.instances == len(rel_tail.endos)
    reps, sizes = rel_tail.symmetry.orbits["dinat_pairs"]
    assert read == reps + list(range(sum(sizes), len(rel_tail.dinat_pairs)))


def test_compare_falls_back_for_a_star_that_reads_names(rel_tail):
    # both stars are one fixpoint, chosen by a carrier name: the check
    # fails, the labelled pairs are walked, and the first failing pair is
    # reported as it is without the map
    messages = []
    for symmetry in (None, rel_tail.symmetry):
        pairs = ReadList(rel_tail.dinat_pairs)
        with pytest.raises(NotContractible) as err:
            compare_operators(NamedRelModel(), NamedRelModel(),
                              rel_tail.endos, pairs=pairs,
                              symmetry=symmetry)
        messages.append(str(err.value))
        assert pairs.read == []         # walked in order, not by orbit
    assert messages[0] == messages[1]
    assert messages[0].startswith("delta does not commute with dinat at")
