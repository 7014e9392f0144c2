"""Thin laws as recorded 1-cell obligations.

`run_laws` records the laws of a channel once as a straight-line program of
1-cell operations and the tests of each law, and the program gives every
law its verdict at an instance.  Only the instances it cannot judge are
evaluated law by law, and each failing law once more, to render its
counterexample.  These tests check that the program gives exactly the
per-law verdicts of a full evaluation, on the thin corpora and under
mutant adapters, that everything it computes, the composites of an
instance's own 1-cells included, is computed once per channel walk, and
that it is used only where it may be, and how the program is compiled:
memoized steps inline on the walk's table, identity tests only between
that table's objects, and the leaf extractor's acceptance.
"""

import operator
from collections import Counter
from typing import Any, NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from fixcat import corpora, laws, poset
from fixcat.errors import ValidationError
from fixcat.laws import Corpus, ThinCell, ThinModel
from fixcat.models import (BrokenPosetModel, CatModel, PosetModel, RelModel,
                           ScottModel)
from mutants import GreatestRelModel

ALL_LAWS = laws.FIX_LAWS + laws.DINAT_LAWS + laws.UNIF_LAWS


class PickyPosetModel(PosetModel):
    """Mutant: star raises on the endos of three-element posets."""

    def __init__(self):
        super().__init__("kleene")
        self.name = "poset[picky]"

    def _lfp(self, f):
        if len(f.source.elements) == 3:
            raise ValidationError("no star on three elements")
        return super()._lfp(f)


def groups(law_list=ALL_LAWS):
    by_channel = {}
    for law in law_list:
        by_channel.setdefault(law.channel, []).append(law)
    return by_channel


def full_law_run(monkeypatch, m, corpus, law_list=ALL_LAWS):
    """`run_laws` with no program: every instance law by law."""
    with monkeypatch.context() as mp:
        mp.setattr(laws, "_program", lambda *args: None)
        return laws.run_laws(m, corpus, law_list)


ADAPTERS = {
    "poset": (PosetModel, corpora.poset_corpus),
    "poset-broken": (BrokenPosetModel, corpora.poset_corpus),
    "poset-picky": (PickyPosetModel, corpora.poset_corpus),
    "rel": (RelModel, corpora.rel_corpus),
    "rel-greatest": (GreatestRelModel, corpora.rel_corpus),
    "scott": (ScottModel, corpora.scott_corpus),
}


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(sorted(ADAPTERS)), seed=st.integers(0, 10_000),
       draws=st.integers(1, 12), offset=st.integers(0, 10_000))
@example(name="rel-greatest", seed=0, draws=4, offset=0)
def test_program_verdicts_equal_full_evaluation(name, seed, draws, offset):
    # per instance and law: the program's verdict, every step under one
    # table shared as in a channel walk, is the law's own when evaluated on
    # its own under fresh tables; None only where a step raises (picky's
    # star)
    make, build = ADAPTERS[name]
    m = make()
    corpus = build(draws=draws, seed=seed)
    try:
        for channel, group in groups().items():
            insts = getattr(corpus, channel)
            program = laws._program(m, group, insts[0])
            assert program is not None
            # the seeded random tail, a stride through the exhaustive
            # layer, and one contiguous window of it
            step = max(1, len(insts) // 40)
            start = offset % len(insts)
            chosen = (insts[-draws:] + insts[offset % step::step]
                      + insts[start:start + 30])
            run = {}
            for inst in chosen:
                m._memo = run
                fast = program.verdicts(inst)
                m._memo = {}
                full = [laws._evaluate(m, law, inst)[0] for law in group]
                assert fast is None or fast == full, (name, channel, inst)
                assert fast is not None or name == "poset-picky"
    finally:
        m._memo = None


@pytest.mark.parametrize("name", ["poset-broken", "poset-picky",
                                  "rel-greatest"])
def test_mutant_reports_equal_full_evaluation(monkeypatch, name):
    # the mutants fail laws; counts and counterexample text must not move
    make, build = ADAPTERS[name]
    full = build(draws=8, seed=3)
    # every channel thinned to at most 300 instances, the random tail kept
    corpus = Corpus(**{ch: insts[:-8:max(1, len(insts) // 300)] + insts[-8:]
                       for ch, insts in vars(full).items()})
    got = laws.run_laws(make(), corpus, ALL_LAWS)
    want = full_law_run(monkeypatch, make(), corpus)
    assert got == want
    assert any(r.failed for r in got)


# --- one table per channel walk ---------------------------------------------------

class ComposingPosetModel(PosetModel):
    """Records each composite the law engine hands back, with its legs."""

    def __init__(self):
        super().__init__("kleene")
        self.composites = []

    def compose(self, g, f):
        out = super().compose(g, f)
        self.composites.append((g, f, out))
        return out


def test_composites_are_computed_once_per_channel_walk(monkeypatch):
    # value-equal instances on posets of different names: every composite,
    # of leaves or of a star, is computed once for each channel walk, and a
    # unit composite such as id.f is the walk's first f object
    calls = []
    real = poset.compose_maps

    def counting(g, f):
        calls.append((g, f))
        return real(g, f)

    monkeypatch.setattr(poset, "compose_maps", counting)
    up, down = (poset.MonotoneMap(OTHER2, OTHER2, f.assignment, name=f.name)
                for f in (UP, DOWN))
    assert (up, down) == (UP, DOWN) and up.source.name != UP.source.name
    for channel, insts in [("endos", [UP, up]),
                           ("dinat_pairs", [(UP, DOWN), (up, down)])]:
        calls.clear()
        m = ComposingPosetModel()
        reports = laws.run_laws(m, Corpus(**{channel: insts}),
                                laws.DINAT_LAWS)
        assert all(r.passes == 2 for r in reports if r.instances)
        counts = Counter(calls)
        assert set(counts.values()) == {1}, channel
        assert any(f.source == poset.ONE_POINT for g, f in counts)
        assert any(f.source != poset.ONE_POINT for g, f in counts)
        if channel == "endos":
            one = poset.identity_map(CHAIN2)
            units = [out for g, f, out in m.composites
                     if one in (g, f) and UP in (g, f)]
            assert len(units) == 4 and all(out is UP for out in units)


def test_memoized_call_after_a_walk_is_a_hit_on_its_table(monkeypatch):
    # the inline steps and `memoized` share one table and one key: after a
    # walk, asking the adapter for a star and a composite the walk computed
    # runs no kernel and returns the table's object
    calls = []
    for name in ("compose_maps", "kleene_star"):
        real = getattr(poset, name)

        def counting(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(poset, name, counting)
    m = PosetModel()
    endos = corpora.poset_corpus(draws=4, seed=2).endos
    program = laws._program(m, groups()["endos"], endos[0])
    run = {}
    m._memo = run
    try:
        for f in endos:
            assert program.verdicts(f) is program.passing
        walked = len(calls)
        assert "compose_maps" in calls and "kleene_star" in calls
        for f in endos:
            fs = m.star(f)
            out = m.compose(f, fs)
            assert run[out] is out and run[fs] is fs
        assert len(calls) == walked
    finally:
        m._memo = None


@pytest.fixture
def evaluations(monkeypatch):
    """The law ids `laws._evaluate` is called with, in order."""
    calls = []
    real = laws._evaluate

    def counting(m, law, inst):
        calls.append(law.law_id)
        return real(m, law, inst)

    monkeypatch.setattr(laws, "_evaluate", counting)
    return calls


def test_failing_laws_are_evaluated_once_each_to_render(evaluations):
    # the program judges every instance; each of the 12 failing laws is
    # evaluated once, at its first failing instance, for its counterexample
    reports = laws.run_laws(BrokenPosetModel(), corpora.poset_corpus(draws=0),
                            ALL_LAWS)
    failed = sorted(r.law_id for r in reports if r.failed)
    assert len(failed) == 12
    assert sorted(evaluations) == failed


def test_raising_star_is_judged_law_by_law(evaluations):
    # picky's star raises on a three-element poset: the program cannot
    # judge that instance, so each law is evaluated there to judge it and
    # each failing one once more to render it
    m = PickyPosetModel()
    endos = corpora.poset_corpus(draws=0).endos
    three = next(f for f in endos if len(f.source.elements) == 3)
    two = next(f for f in endos if len(f.source.elements) == 2)
    group = groups()["endos"]
    program = laws._program(m, group, two)
    assert program.verdicts(two) == [True] * len(group)
    assert program.verdicts(three) is None
    reports = laws.run_laws(m, Corpus(endos=[two, three]), group)
    assert evaluations == [law.law_id for law in group] * 2
    for r in reports:
        assert r.passes == 1 and r.counterexample["right"] == (
            "ValidationError: no star on three elements")


def test_picky_star_errors_are_reported():
    reports = laws.run_laws(PickyPosetModel(), corpora.poset_corpus(draws=0),
                            laws.FIX_LAWS)
    cell = reports[0]
    assert cell.failed and cell.counterexample["left"] == "<error>"
    assert cell.counterexample["right"] == (
        "ValidationError: no star on three elements")


# --- where the program is used, and where it is not -----------------------------

CHAIN2 = poset.PointedPoset(["b", "t"], [("b", "b"), ("t", "t"), ("b", "t")],
                            "b", name="two")
UP = poset.MonotoneMap(CHAIN2, CHAIN2, {"b": "t", "t": "t"}, name="up")
DOWN = poset.MonotoneMap(CHAIN2, CHAIN2, {"b": "b", "t": "b"}, name="down")
OTHER2 = poset.PointedPoset(["b", "t"], [("b", "b"), ("t", "t"), ("b", "t")],
                            "b", name="other")


@pytest.fixture
def witness_calls(monkeypatch):
    """Adapter types on which ThinModel's dinat_witness or vcomp2 ran; the
    recorder's own calls are left out."""
    calls = []
    for name in ("dinat_witness", "vcomp2"):
        real = getattr(ThinModel, name)

        def counting(self, *args, _real=real):
            if not isinstance(self, laws._Recorder):
                calls.append(type(self))
            return _real(self, *args)

        monkeypatch.setattr(ThinModel, name, counting)
    return calls


def test_fast_path_builds_no_2cell_on_a_passing_channel(witness_calls):
    m = PosetModel()
    corpus = corpora.poset_corpus(draws=4, seed=1)
    reports = laws.run_laws(m, corpus, laws.DINAT_LAWS)
    assert not any(r.failed or r.vacuous for r in reports)
    assert witness_calls == []


def test_custom_law_runs_the_group_law_by_law(witness_calls):
    m = PosetModel()
    corpus = Corpus(dinat_pairs=[(UP, DOWN), (DOWN, UP)])
    custom = laws.Law("custom", "", "dinat_pairs",
                      lambda m, inst: (True, None, None),
                      lambda m, inst: "")
    group = [laws.DINAT_LAWS[0], custom]
    assert laws._program(m, group, corpus.dinat_pairs[0]) is None
    assert laws._program(m, group[:1], corpus.dinat_pairs[0]) is not None
    reports = laws.run_laws(m, corpus, group)
    assert [r.passes for r in reports] == [2, 2]
    assert PosetModel in witness_calls


def test_adapter_overriding_a_witness_runs_law_by_law(witness_calls):
    class Witnessed(PosetModel):
        def fix_witness(self, f):
            return super().fix_witness(f)

    m = Witnessed()
    assert laws._program(m, laws.DINAT_LAWS, UP) is None
    reports = laws.run_laws(m, Corpus(endos=[UP, DOWN],
                                      dinat_pairs=[(UP, DOWN)]),
                            laws.DINAT_LAWS)
    assert all(r.passes == r.instances for r in reports)
    assert Witnessed in witness_calls


def test_cat_runs_law_by_law(monkeypatch):
    m = CatModel()
    corpus = corpora.cat_corpus()
    assert laws._program(m, laws.FIX_LAWS[:1], corpus.endos[0]) is None
    calls = []
    real = CatModel.dinat_witness

    def counting(self, f, g):
        calls.append(f)
        return real(self, f, g)

    monkeypatch.setattr(CatModel, "dinat_witness", counting)
    reports = laws.run_laws(m, corpus, laws.DINAT_LAWS)
    assert all(not r.failed for r in reports)
    assert calls


def test_instance_of_another_shape_is_evaluated_law_by_law(monkeypatch):
    # the program is recorded on a ThinCell; a bare 1-cell where its s/t
    # steps expect one, or a tuple of another length, is never judged by it
    m = PosetModel()
    cells = [ThinCell(UP, UP), UP, (UP, UP), ThinCell(DOWN, DOWN)]
    program = laws._program(m, laws.FIX_LAWS[1:], cells[0])
    assert program.verdicts(cells[0]) == [True]
    assert program.verdicts(cells[1]) is None
    assert program.verdicts(cells[2]) is None
    assert not program.extract(cells[1], [])
    assert not program.extract(cells[2], [])
    corpus = Corpus(endo_cells=cells)
    got = laws.run_laws(m, corpus, laws.FIX_LAWS)
    assert got == full_law_run(monkeypatch, m, corpus, laws.FIX_LAWS)
    naturality = got[1]
    assert naturality.passes == 2 and naturality.failed
    assert naturality.counterexample["left"] == "<error>"


# --- how the program is compiled ----------------------------------------------

class CountingEq1PosetModel(BrokenPosetModel):
    """The broken poset adapter, so that laws fail, with an eq1 of its own
    that counts the tests it is asked."""

    def __init__(self):
        super().__init__()
        self.eq1_calls = 0

    def eq1(self, f, g):
        self.eq1_calls += 1
        return f == g


def test_overridden_eq1_is_asked_for_every_test(monkeypatch):
    # an adapter with its own eq1 gets no identity test: on an instance
    # where every test holds, it is asked each of the program's eq1 tests
    m = CountingEq1PosetModel()
    corpus = corpora.poset_corpus(draws=4, seed=5)
    for channel, group in groups().items():
        insts = getattr(corpus, channel)
        program = laws._program(m, group, insts[0])
        assert all(fn is not operator.is_ for fn, a, b in program.tests)
        asked = sum(fn == m.eq1 for fn, a, b in program.tests)
        assert asked > 0, channel
        run = {}
        passing = 0
        for inst in insts[:60]:
            m._memo = run
            m.eq1_calls = 0
            fast = program.verdicts(inst)
            if fast is program.passing:
                passing += 1
                assert m.eq1_calls == asked, channel
            m._memo = {}
            full = [laws._evaluate(m, law, inst)[0] for law in group]
            assert fast == full, (channel, inst)
        assert passing, channel
    m._memo = None
    thinned = Corpus(**{ch: insts[:60] for ch, insts in vars(corpus).items()})
    got = laws.run_laws(m, thinned, ALL_LAWS)
    assert got == full_law_run(monkeypatch, m, thinned)
    assert any(r.failed for r in got)


def test_eq1_is_an_identity_test_only_between_canonical_slots():
    # PosetModel: eq1 of two canonical slots (leaves and memoized steps'
    # results) compiles to `is`; ComposingPosetModel's compose is its own,
    # not memoized, so a test reading one of its slots keeps `==`
    f, g = UP, DOWN
    plain = laws._program(PosetModel(), groups()["dinat_pairs"], (f, g))
    assert any(fn is operator.is_ for fn, a, b in plain.tests)
    m = ComposingPosetModel()
    program = laws._program(m, groups()["dinat_pairs"], (f, g))
    leaves = []
    assert program.extract((f, g), leaves)
    composed = {slot for slot, (fn, a, b, inline)
                in enumerate(program.steps, len(leaves))
                if fn == m.compose}
    assert composed and not any(inline for fn, a, b, inline in program.steps
                                if fn == m.compose)
    reading = [t for t in program.tests if t[0] == m.eq1
               and {t[1], t[2]} & composed]
    assert reading
    assert not any(fn is operator.is_ and {a, b} & composed
                   for fn, a, b in program.tests)
    corpus = corpora.poset_corpus(draws=4, seed=6)
    pairs = corpus.dinat_pairs[::7] + corpus.dinat_pairs[-4:]
    run = {}
    for inst in pairs:
        m._memo = run
        fast = program.verdicts(inst)
        m._memo = {}
        full = [laws._evaluate(m, law, inst)[0]
                for law in groups()["dinat_pairs"]]
        assert fast == full, inst
    m._memo = None


class Pair(NamedTuple):
    f: Any
    g: Any


def test_extractor_accepts_tuple_subclasses():
    leaves = []
    assert laws._extractor((0, 1))(Pair(UP, DOWN), leaves)
    assert leaves == [UP, DOWN]
    nested = laws._extractor(((0, 1), ThinCell(2, 3)))
    leaves = []
    assert nested((Pair(UP, DOWN), ThinCell(DOWN, UP)), leaves)
    assert leaves == [UP, DOWN, DOWN, UP]
    program = laws._program(PosetModel(), groups()["dinat_pairs"], (UP, DOWN))
    assert program.verdicts(Pair(UP, DOWN)) == program.verdicts((UP, DOWN))


@pytest.mark.parametrize("shape, inst", [
    (0, (UP,)),                                    # a leaf that is a tuple
    (0, ThinCell(UP, UP)),                         # a leaf that is a ThinCell
    ((0, 1), ((UP,), DOWN)),
    ((0, 1), (UP, ThinCell(UP, DOWN))),
    (((0, 1), 2), ((UP, ThinCell(UP, UP)), DOWN)),
    ((0, 1), ThinCell(UP, DOWN)),                  # a ThinCell for a tuple
    (((0, 1), 2), (ThinCell(UP, DOWN), DOWN)),
    ((0, 1), (UP,)),                               # tuples of another length
    ((0, 1), (UP, DOWN, UP)),
    (((0, 1), 2), ((UP, DOWN, UP), DOWN)),
    (((0, 1), 2), ((UP, DOWN), DOWN, UP)),
    (ThinCell(0, 1), (UP, DOWN)),                  # a tuple for a ThinCell
    (ThinCell(0, 1), ThinCell((UP,), DOWN)),
])
def test_extractor_rejects_another_shape(shape, inst):
    assert not laws._extractor(shape)(inst, [])


def structures():
    leaf = st.sampled_from([UP, DOWN])
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(tuple),
            st.builds(Pair, inner, inner),
            st.builds(ThinCell, inner, inner)),
        max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(x=structures(), y=structures())
def test_extractor_accepts_exactly_the_mirrored_shape(x, y):
    # the compiled extractor of x's mirror accepts y exactly when y mirrors
    # to the same shape, and then yields y's leaves in _mirror's order
    xs, ys = [], []
    shape = laws._mirror(x, xs)
    same = laws._mirror(y, ys) == shape
    got = []
    assert laws._extractor(shape)(y, got) == same
    if same:
        assert got == ys
    got = []
    assert laws._extractor(shape)(x, got) and got == xs
