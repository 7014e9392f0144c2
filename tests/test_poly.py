import gc
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from fixcat import poly
from fixcat.errors import NotCartesian, SizeCap, TypeMismatch, ValidationError
from fixcat.poly import (
    POINT,
    CoalgebraSystem,
    PolyMorphism,
    Polynomial,
    WTree,
    binary_tree_poly,
    bisimilar,
    bisimulation_classes,
    constant_poly,
    endo_poly,
    freyd_dinat_check,
    identity_poly,
    identity_poly_morphism,
    is_span,
    mtype_unfold,
    span_uniformity_check,
    stream_poly,
    wtype_counts,
    wtype_enumerate,
    wtype_stages,
    _apply_trees,
    _small_systems,
)

BIN = binary_tree_poly()
AB_STREAM = stream_poly(["a", "b"])
IDP = identity_poly()


def expected_counts(fibers, depth):
    # the stage-count recurrence, derived from the fibers alone
    counts, c = [0], 0
    for _ in range(depth):
        c = sum(c ** k for k in fibers.values())
        counts.append(c)
    return counts


# --- polynomial data ---------------------------------------------------------------

def test_validation_catches_partial_maps():
    with pytest.raises(ValidationError):
        Polynomial((POINT,), ("e",), ("b",), (POINT,),
                   {}, {"e": "b"}, {"b": POINT})
    with pytest.raises(ValidationError):
        Polynomial((POINT,), ("e",), ("b",), (POINT,),
                   {"e": POINT}, {"e": "other"}, {"b": POINT})


def test_span_and_monomial_predicates():
    assert is_span(IDP)
    assert is_span(AB_STREAM)
    assert not is_span(BIN)
    squaring = endo_poly({"q": 2})
    assert not is_span(squaring)
    assert not is_span(constant_poly(["b"]))


# --- W-type chains -----------------------------------------------------------------

def test_wtype_constant_stabilizes_at_depth_one():
    P = constant_poly(["b1", "b2"])
    trees0, stable0 = wtype_enumerate(P, 0)
    assert trees0 == [] and not stable0
    trees, stable = wtype_enumerate(P, 1)
    assert stable and len(trees) == 2
    assert {t.root for t in trees} == {"b1", "b2"}
    assert all(t.children == () for t in trees)


def test_wtype_binary_counts_follow_recurrence():
    want = expected_counts({"leaf": 0, "node": 2}, 4)
    assert want == [0, 1, 2, 5, 26]
    for depth in range(5):
        trees, stable = wtype_enumerate(BIN, depth)
        assert len(trees) == want[depth]
        assert not stable
        assert all(t.height() < depth for t in trees)


def test_wtype_labelled_stream_is_empty():
    # no base constructor: the empty set is already the fixed point
    trees, stable = wtype_enumerate(AB_STREAM, 3)
    assert trees == [] and stable


def test_wtype_stages_are_increasing():
    stages = wtype_stages(BIN, 4)
    for small, large in zip(stages, stages[1:]):
        assert small <= large


def test_wtype_argument_errors():
    with pytest.raises(ValidationError):
        wtype_enumerate(BIN, -1)
    not_endo = Polynomial(("i", "i2"), (), ("b",), ("i", "i2"),
                          {}, {}, {"b": "i"})
    with pytest.raises(TypeMismatch):
        wtype_enumerate(not_endo, 1)


def test_wtype_stage_budget_trips_before_building_the_stage(stage_builds):
    # stages of a 5-ary tree grow 0, 1, 2, 33, then 1 + 33**5 = 39,135,394
    P = endo_poly({"leaf": 0, "node": 5})
    assert len(wtype_stages(P, 3)[-1]) == 33
    assert stage_builds == [0, 1, 2]
    stage_builds.clear()
    with pytest.raises(SizeCap) as exc:
        wtype_stages(P, 5)
    assert "stage 4 would hold 39135394 trees" in str(exc.value)
    assert stage_builds == []
    with pytest.raises(SizeCap):
        wtype_enumerate(P, 4)
    assert stage_builds == []


def test_wtype_fixed_chain_is_not_rebuilt(stage_builds):
    # a constant polynomial's chain is fixed from stage 1 on: stage 1 is
    # built from the empty stage, and the counts show every later stage
    # is the same set, so none is built again
    stages = wtype_stages(constant_poly(["a", "b"]), 50)
    assert stage_builds == [0]
    assert len(stages) == 51
    assert [len(s) for s in stages] == [0] + [2] * 50
    assert all(s == stages[1] for s in stages[1:])


def test_wtype_over_budget_depth_is_refused_before_any_tree(stage_builds):
    # bintree stages grow 0, 1, 2, 5, 26, 677, 458,330, then 458,330**2 + 1
    with pytest.raises(SizeCap) as exc:
        wtype_stages(BIN, 7)
    assert str(exc.value) == ("bintree: W-type stage 7 would hold "
                              "210066388901 trees, over the bound of 1000000 "
                              "(poly.MAX_STAGE_TREES)")
    assert stage_builds == []


@pytest.mark.parametrize("enabled", [True, False])
def test_stage_build_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    # the collector is paused while a stage is built, and afterwards is on
    # exactly when it was on before, also when the build raises
    seen = []
    real = poly.WTree

    def watching(*args):
        seen.append(gc.isenabled())
        return real(*args)

    def failing(*args):
        raise RuntimeError("no tree")

    (gc.enable if enabled else gc.disable)()
    try:
        monkeypatch.setattr(poly, "WTree", watching)
        assert len(_apply_trees(BIN, _apply_trees(BIN, ()))) == 2
        assert seen and not any(seen)
        assert gc.isenabled() == enabled
        monkeypatch.setattr(poly, "WTree", failing)
        with pytest.raises(RuntimeError):
            _apply_trees(BIN, ())
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


def test_wtype_stage_budget_admits_depth_six_of_bintree():
    # 458,330 trees at depth 6 stay under the bound; depth 7 would not
    assert poly._next_stage_size(BIN, 677) == 458_330 <= poly.MAX_STAGE_TREES
    assert poly._next_stage_size(BIN, 458_330) > poly.MAX_STAGE_TREES


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(["u", "v", "w"]),
                       st.integers(0, 2), min_size=1, max_size=3))
def test_wtype_counts_match_fiber_recurrence(fibers):
    P = endo_poly(fibers)
    want = expected_counts(fibers, 4)
    for depth in range(5):
        trees, _ = wtype_enumerate(P, depth)
        assert len(trees) == want[depth]


@pytest.mark.parametrize("P, depths", [
    (BIN, 5),
    (constant_poly(["a", "b"]), 5),
    (AB_STREAM, 5),
    (endo_poly({"leaf": 0, "node": 5}), 4),
])
def test_wtype_counts_are_the_built_stage_sizes(P, depths):
    for d in range(depths):
        assert wtype_counts(P, d) == [len(s) for s in wtype_stages(P, d)]


# stages over this many trees are counted against the recurrence only:
# building them would make each example take seconds
BUILD_CAP = 5_000


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(["u", "v", "w"]),
                       st.integers(0, 3), max_size=3))
def test_wtype_counts_are_the_built_stage_sizes_property(fibers):
    P = endo_poly(fibers)
    for d in range(5):
        want = expected_counts(fibers, d)
        if max(want) > poly.MAX_STAGE_TREES:
            with pytest.raises(SizeCap) as counted:
                wtype_counts(P, d)
            with pytest.raises(SizeCap) as staged:
                wtype_stages(P, d)
            assert str(counted.value) == str(staged.value)
            continue
        counts = wtype_counts(P, d)
        assert counts == want
        if counts[-1] <= BUILD_CAP:
            assert counts == [len(s) for s in wtype_stages(P, d)]


def test_wtype_counts_refuse_where_the_stages_do(stage_builds):
    P = endo_poly({"leaf": 0, "node": 5})
    with pytest.raises(SizeCap) as counted:
        wtype_counts(P, 5)
    with pytest.raises(SizeCap) as staged:
        wtype_stages(P, 5)
    assert str(counted.value) == str(staged.value) == (
        "P: W-type stage 4 would hold 39135394 trees, over the bound of "
        "1000000 (poly.MAX_STAGE_TREES)")
    assert stage_builds == []
    with pytest.raises(ValidationError):
        wtype_counts(P, -1)


def test_wtree_shape_helpers():
    leaf = WTree("leaf")
    node = WTree("node", ((("node", 0), leaf), (("node", 1), leaf)))
    assert leaf.height() == 0 and node.height() == 1
    assert leaf.size() == 1 and node.size() == 3


# --- coalgebra systems and bisimilarity ----------------------------------------------

def loop(poly, label, name="loop"):
    slots = poly.fiber(label)
    return CoalgebraSystem(poly, ("s",), {"s": (label, {e: "s" for e in slots})},
                           name=name)


def test_system_validation():
    with pytest.raises(ValidationError):
        CoalgebraSystem(AB_STREAM, ("s",), {})
    with pytest.raises(ValidationError):
        CoalgebraSystem(AB_STREAM, ("s",), {"s": ("zzz", {})})
    with pytest.raises(ValidationError):
        CoalgebraSystem(AB_STREAM, ("s",), {"s": ("a", {})})
    with pytest.raises(ValidationError):
        CoalgebraSystem(AB_STREAM, ("s",),
                        {"s": ("a", {("a", 0): "elsewhere"})})


def test_bisimilar_same_state():
    c = loop(AB_STREAM, "a")
    assert bisimilar(c, c, "s", "s")


def test_bisimilar_under_fiber_one_single_constructor_never_splits():
    c1 = loop(IDP, POINT)
    c2 = CoalgebraSystem(IDP, (0, 1),
                         {0: (POINT, {(POINT, 0): 1}), 1: (POINT, {(POINT, 0): 0})})
    for x in c2.states:
        assert bisimilar(c1, c2, "s", x)
        assert bisimilar(c2, c2, 0, x)


def test_bisimilar_splits_on_head_label():
    assert not bisimilar(loop(AB_STREAM, "a"), loop(AB_STREAM, "b"), "s", "s")


def test_bisimilar_folds_unreachable_duplicates():
    # 0 -> 1 -> 1 ... is the same stream as the one-state loop
    c = CoalgebraSystem(AB_STREAM, (0, 1),
                        {0: ("a", {("a", 0): 1}), 1: ("a", {("a", 0): 1})})
    assert bisimilar(c, loop(AB_STREAM, "a"), 0, "s")
    # but an a-head over a b-loop differs from the pure a-loop
    d = CoalgebraSystem(AB_STREAM, (0, 1),
                        {0: ("a", {("a", 0): 1}), 1: ("b", {("b", 0): 1})})
    assert not bisimilar(d, loop(AB_STREAM, "a"), 0, "s")


def test_bisimilar_requires_matching_polynomial():
    with pytest.raises(TypeMismatch):
        bisimilar(loop(AB_STREAM, "a"), loop(IDP, POINT), "s", "s")
    with pytest.raises(ValidationError):
        bisimilar(loop(AB_STREAM, "a"), loop(AB_STREAM, "a"), "s", "zzz")


def test_bisimilar_is_an_equivalence_on_a_small_corpus():
    systems = _small_systems(AB_STREAM, max_states=2, cap=12)
    pool = [(c, x) for c in systems for x in c.states]
    for c, x in pool:
        assert bisimilar(c, c, x, x)
    for (c1, x1), (c2, x2) in itertools.combinations(pool, 2):
        assert bisimilar(c1, c2, x1, x2) == bisimilar(c2, c1, x2, x1)
    for (c1, x1), (c2, x2), (c3, x3) in itertools.combinations(pool[:10], 3):
        if bisimilar(c1, c2, x1, x2) and bisimilar(c2, c3, x2, x3):
            assert bisimilar(c1, c3, x1, x3)


def test_unfold_depth_zero_is_the_constructor():
    assert mtype_unfold(loop(AB_STREAM, "a"), "s", 0) == "a"


def test_unfold_single_state_loop():
    c = loop(IDP, POINT)
    slot = (POINT, 0)
    assert mtype_unfold(c, "s", 2) == (POINT, ((slot, (POINT, ((slot, POINT),))),))
    with pytest.raises(ValidationError):
        mtype_unfold(c, "s", -1)


def test_unfold_agreement_decides_bisimilarity():
    # exact cross-oracle: refinement equality iff deep unfoldings coincide
    for poly in (AB_STREAM, BIN):
        systems = _small_systems(poly, max_states=2, cap=10)
        for c1, c2 in itertools.combinations_with_replacement(systems, 2):
            depth = len(c1.states) + len(c2.states)
            for x1 in c1.states:
                for x2 in c2.states:
                    agree = mtype_unfold(c1, x1, depth) == mtype_unfold(c2, x2, depth)
                    assert bisimilar(c1, c2, x1, x2) == agree


MIX = endo_poly({"a": 1, "b": 2, "c": 0}, name="mix")


def random_system(rng, n, name):
    states = [f"x{i}" for i in range(n)]
    step = {}
    for x in states:
        b = rng.choice(MIX.B)
        step[x] = (b, {e: rng.choice(states) for e in MIX.fiber(b)})
    return CoalgebraSystem(MIX, states, step, name=name)


def refined_per_pair(c1, c2, x1, x2):
    # the reference: a fresh refinement for one state pair, len(states)
    # rounds of (constructor, successor blocks by slot) on the disjoint union
    tagged = [(0, x) for x in c1.states] + [(1, x) for x in c2.states]
    systems = (c1, c2)
    block = {st: systems[st[0]].step[st[1]][0] for st in tagged}
    for _ in range(len(tagged)):
        fresh, nxt_block = {}, {}
        for tag, x in tagged:
            b, succ = systems[tag].step[x]
            sig = (b, tuple((e, block[tag, succ[e]]) for e in sorted(succ)))
            nxt_block[tag, x] = fresh.setdefault(sig, len(fresh))
        block = nxt_block
    return block[0, x1] == block[1, x2]


def test_bisimulation_classes_agree_with_a_refinement_per_pair():
    rng = random.Random(7)
    for trial in range(30):
        c1 = random_system(rng, rng.randint(1, 6), f"p{trial}")
        c2 = random_system(rng, rng.randint(1, 6), f"q{trial}")
        classes1, classes2 = bisimulation_classes(c1, c2)
        assert set(classes1) == set(c1.states)
        assert set(classes2) == set(c2.states)
        for x1 in c1.states:
            for x2 in c2.states:
                want = refined_per_pair(c1, c2, x1, x2)
                assert (classes1[x1] == classes2[x2]) == want
                assert bisimilar(c1, c2, x1, x2) == want


def test_bisimulation_classes_of_60_state_systems_are_quick():
    # a refinement per state pair took seconds at 20 states and did not
    # finish at 80; one refinement for all pairs takes milliseconds
    rng = random.Random(60)
    c1, c2 = random_system(rng, 60, "p"), random_system(rng, 60, "q")
    start = time.perf_counter()
    classes1, classes2 = bisimulation_classes(c1, c2)
    assert time.perf_counter() - start < 2.0
    assert len(classes1) == len(classes2) == 60


# --- cartesian morphisms --------------------------------------------------------------

def relabel_to_single(name="collapse"):
    target = stream_poly(["x"])
    return target, PolyMorphism(
        AB_STREAM, target, {"a": "x", "b": "x"},
        {("a", ("x", 0)): ("a", 0), ("b", ("x", 0)): ("b", 0)}, name=name)


def test_identity_morphism_on_trees_and_systems():
    m = identity_poly_morphism(BIN)
    trees, _ = wtype_enumerate(BIN, 3)
    for t in trees:
        assert m.on_tree(t) == t
    c = loop(AB_STREAM, "a")
    back = identity_poly_morphism(AB_STREAM).on_system(c)
    assert back.step == c.step


def test_morphism_relabels_a_system():
    target, m = relabel_to_single()
    c = CoalgebraSystem(AB_STREAM, (0, 1),
                        {0: ("a", {("a", 0): 1}), 1: ("b", {("b", 0): 0})})
    image = m.on_system(c)
    assert image.poly == target
    assert image.step == {0: ("x", {("x", 0): 1}), 1: ("x", {("x", 0): 0})}


def test_morphism_validation_rejects_bad_data():
    with pytest.raises(NotCartesian):
        PolyMorphism(AB_STREAM, AB_STREAM, {"a": "b"}, {})
    with pytest.raises(NotCartesian):
        PolyMorphism(AB_STREAM, AB_STREAM, {"a": "b", "b": "a"}, {})
    # fiber sizes differ: no bijection can exist
    with pytest.raises(NotCartesian):
        PolyMorphism(BIN, stream_poly(["x"]),
                     {"leaf": "x", "node": "x"},
                     {("leaf", ("x", 0)): ("node", 0),
                      ("node", ("x", 0)): ("node", 0)})
    # slot image lands in the wrong fiber
    with pytest.raises(NotCartesian):
        PolyMorphism(AB_STREAM, AB_STREAM, {"a": "a", "b": "b"},
                     {("a", ("a", 0)): ("b", 0), ("b", ("b", 0)): ("a", 0)})


def test_uniformity_check_identity_morphisms():
    for poly in (BIN, AB_STREAM, IDP, constant_poly(["b1", "b2"])):
        report = span_uniformity_check(identity_poly_morphism(poly), poly, poly,
                                       depth=3)
        assert report["holds"] and report["w_ok"] and report["m_ok"]
        assert report["systems_checked"] >= 1


def test_uniformity_check_span_relabellings():
    target, m = relabel_to_single()
    assert is_span(AB_STREAM) and is_span(target)
    report = span_uniformity_check(m, AB_STREAM, target, depth=4)
    assert report["holds"]
    swap = PolyMorphism(AB_STREAM, AB_STREAM, {"a": "b", "b": "a"},
                        {("a", ("b", 0)): ("a", 0), ("b", ("a", 0)): ("b", 0)})
    report = span_uniformity_check(swap, AB_STREAM, AB_STREAM, depth=4)
    assert report["holds"]


def test_uniformity_check_constant_shape_map():
    # with no slots the induced map is just the constructor relabelling
    f, g = constant_poly(["b1", "b2"]), constant_poly(["c"])
    m = PolyMorphism(f, g, {"b1": "c", "b2": "c"}, {})
    report = span_uniformity_check(m, f, g, depth=2)
    assert report["holds"] and report["w_counterexample"] is None


def test_uniformity_check_monomial_morphism():
    # fiber-2 monomials, slot twist
    f, g = endo_poly({"q": 2}), endo_poly({"r": 2})
    m = PolyMorphism(f, g, {"q": "r"},
                     {("q", ("r", 0)): ("q", 1), ("q", ("r", 1)): ("q", 0)})
    assert len(f.B) == 1 and len(g.B) == 1   # both monomials
    report = span_uniformity_check(m, f, g, depth=3)
    assert report["holds"]


def test_uniformity_check_rejects_mismatched_boundary():
    with pytest.raises(TypeMismatch):
        span_uniformity_check(identity_poly_morphism(BIN), AB_STREAM, AB_STREAM)
    with pytest.raises(NotCartesian):
        span_uniformity_check(PolyMorphism(AB_STREAM, AB_STREAM,
                                           {"a": "a", "b": "b"}, {}),
                              AB_STREAM, AB_STREAM)


# --- rolling the composite -------------------------------------------------------------

def test_rolling_constant_constant():
    f, g = constant_poly(["f1"]), constant_poly(["g1", "g2"])
    report = freyd_dinat_check(f, g, depth=3)
    assert report["holds"] and not report["partial"]
    assert report["stabilized_at"] == 1
    assert report["fixed_point_ok"] and report["chains_agree"]


def test_rolling_constant_with_binary():
    report = freyd_dinat_check(constant_poly(["c"]), BIN, depth=3)
    assert report["holds"] and report["stabilized_at"] == 1
    # and with the constant on the other side
    report = freyd_dinat_check(BIN, constant_poly(["c"]), depth=3)
    assert report["holds"] and not report["partial"]


def test_rolling_empty_streams():
    report = freyd_dinat_check(stream_poly(["a"]), stream_poly(["b"]), depth=3)
    assert report["holds"] and report["stabilized_at"] == 0
    assert report["stage_counts"]["composite_gf"] == (0, 0, 0, 0)


def test_rolling_binary_binary_partial_stages():
    report = freyd_dinat_check(BIN, BIN, depth=1)
    assert report["partial"] and report["holds"]
    c = expected_counts({"leaf": 0, "node": 2}, 4)
    # composite stages sample the one-step recurrence at even depths
    assert report["stage_counts"]["composite_gf"] == (c[0], c[2])
    assert report["stage_counts"]["composite_fg"] == (c[0], c[2])


def test_rolling_over_budget_depth_is_refused_before_any_tree(stage_builds):
    # the g.f chain of bintree with itself passes 458,330 trees at stage 3;
    # stage 4 would apply bintree to them, 458,330**2 + 1 trees
    with pytest.raises(SizeCap) as exc:
        freyd_dinat_check(BIN, BIN, depth=4)
    assert str(exc.value) == ("bintree.bintree: W-type stage 4 would hold "
                              "210066388901 trees, over the bound of 1000000 "
                              "(poly.MAX_STAGE_TREES)")
    assert stage_builds == []


def test_rolling_negative_depth_is_rejected(stage_builds):
    with pytest.raises(ValidationError):
        freyd_dinat_check(BIN, BIN, depth=-1)
    assert stage_builds == []


def test_rolling_fixed_chains_are_not_rebuilt(stage_builds):
    # both composite chains are fixed after one round: each builds only
    # the stages its counts show are new, f(T_d) is built once per
    # distinct T_d, and the fixed-point check adds three builds; building
    # every stage to depth 2000 took 10,006
    report = freyd_dinat_check(constant_poly(["c"]),
                               endo_poly({"leaf": 0, "node": 1}), depth=2000)
    assert report["holds"] and report["stabilized_at"] == 1
    assert report["stage_counts"]["composite_gf"] == (0,) + (2,) * 2000
    assert len(stage_builds) <= 9


def test_rolling_stream_wrap_around_binary():
    # wrapping each stage in a fiber-1 label leaves the counts on the
    # one-step recurrence
    report = freyd_dinat_check(stream_poly(["a"]), BIN, depth=3)
    assert report["partial"] and report["holds"]
    assert report["stage_counts"]["composite_gf"] == (0, 1, 2, 5)
    assert report["stage_counts"]["composite_fg"] == (0, 1, 2, 5)


@pytest.mark.parametrize("P, stabilizes", [
    (constant_poly(["b1", "b2"]), True),
    (AB_STREAM, True),
    (IDP, True),
    (endo_poly({}), True),
    (endo_poly({"z": 0, "s": 1}), False),
    (BIN, False),
], ids=["constant", "stream", "identity", "empty", "nat", "bintree"])
def test_wtype_stability_from_counts_matches_built_stage(P, stabilizes):
    # the count-based answer against building stage depth+1 and comparing
    answers = []
    for depth in range(5):
        trees, stable = wtype_enumerate(P, depth)
        stage = frozenset(trees)
        assert stable == (_apply_trees(P, stage) == stage)
        answers.append(stable)
    assert any(answers) == stabilizes
