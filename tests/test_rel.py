"""Multiset relations and ideal relations: composition, stars, products."""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fixcat import rel
from fixcat.errors import SizeCap, TypeMismatch, ValidationError
from fixcat.rel import (
    EMPTY_CARRIER,
    EMPTY_MSET,
    EMPTY_PREORDER,
    IdealRel,
    MultisetRel,
    Preorder,
    disjoint_union,
    mrel_compose,
    mrel_from_function,
    mrel_identity,
    mrel_pairing,
    mrel_proj1,
    mrel_proj2,
    mrel_star,
    mset,
    mset_support,
    mset_union,
    preorder_disjoint_union,
    scott_compose,
    scott_from_function,
    scott_identity,
    scott_pairing,
    scott_proj1,
    scott_proj2,
    scott_star,
    scott_star_set,
    tag_left,
    tag_right,
    tree_star,
    uset,
)
from fixcat.rel import _skey


# --- test references ----------------------------------------------------------
# Outside the tests, only IdealRel and scott_star_set read rel's preorder
# mask kernels (`_index`, `_need`, `_canon`, `_undominated`).  These entry
# points into them are what the brute-force definitions further down are
# compared against.

def discrete_preorder(elements, name="disc"):
    return Preorder(elements, {(x, x) for x in elements}, name=name,
                    _validate=False)


def have_mask(down, v):
    """The down-closure of v as a mask; a foreign element adds nothing."""
    out = 0
    for y in v:
        out |= down.get(y, 0)
    return out


def hoare_leq(pre, u, v):
    """u below v when every element of u is dominated by one of v."""
    down = rel._index(pre).down
    need = rel._need(down, u)
    return need & have_mask(down, v) == need


def class_rep(pre, x):
    """Least-keyed member of x's equivalence class, or x itself if foreign."""
    return rel._index(pre).rep.get(x, x)


def canon_uset(pre, u):
    """Canonical representative of u's Hoare-equivalence class: the
    maximal elements, each replaced by its class representative.  u may
    be unsorted and hold duplicates; a foreign element is kept."""
    return rel._canon(rel._index(pre), u)[0]


def normalize_pairs(src, tgt, pairs):
    """Drop subsumed pairs by IdealRel's own scan; mutually subsuming
    classes keep their least representative under the canonical sort
    key."""
    sdown, tdown = rel._index(src).down, rel._index(tgt).down
    rows = {p: (rel._need(sdown, p[0]), have_mask(sdown, p[0]),
                tdown.get(p[1], -1), tdown.get(p[1], 0)) for p in pairs}
    return rel._undominated(rows.items())


def holds(r, u, b):
    """Membership of (u, b) in the downward closed relation r denotes:
    some stored pair needs no more than u and promises at least b."""
    u = uset(u)
    return any(hoare_leq(r.source, u0, u) and r.target.leq(b, b0)
               for (u0, b0) in r.pairs)


# --- multisets ----------------------------------------------------------------

def test_mset_canonical_form():
    assert mset(["b", "a", "a"]) == (("a", 2), ("b", 1))
    assert mset([]) == EMPTY_MSET == ()
    assert mset_union(mset(["a"]), mset(["a", "b"])) == (("a", 2), ("b", 1))
    assert mset_support(mset(["a", "a", "b"])) == {"a", "b"}


def test_mset_sorts_mixed_types():
    m = mset([("inl", 0), "a", ("inl", 0)])
    assert mset_support(m) == {("inl", 0), "a"}
    assert m == mset(["a", ("inl", 0), ("inl", 0)])


# --- multiset relations -------------------------------------------------------

def test_mrel_validation():
    with pytest.raises(ValidationError):
        MultisetRel(["a"], ["b"], {(mset(["a"]), "c")})  # output off target
    with pytest.raises(ValidationError):
        MultisetRel(["a"], ["b"], {(mset(["x"]), "b")})  # premise off source
    with pytest.raises(ValidationError):
        MultisetRel(["a"], ["b"], {((("a", 0),), "b")})  # zero count not canonical


def test_mrel_identity_laws():
    f = MultisetRel(["a", "b"], ["x", "y"],
                    {(mset(["a", "b"]), "x"), (EMPTY_MSET, "y"), (mset(["b", "b"]), "y")})
    assert mrel_compose(f, mrel_identity(["a", "b"])) == f
    assert mrel_compose(mrel_identity(["x", "y"]), f) == f
    with pytest.raises(TypeMismatch):
        mrel_compose(f, f)


def test_mrel_compose_threads_one_derivation_per_occurrence():
    # f can make "x" two ways; g needs two x's, so the composite mixes them
    f = MultisetRel(["a", "b"], ["x"], {(mset(["a"]), "x"), (mset(["b"]), "x")})
    g = MultisetRel(["x"], ["z"], {(mset(["x", "x"]), "z")})
    gf = mrel_compose(g, f)
    assert gf.pairs == {(mset(["a", "a"]), "z"),
                        (mset(["a", "b"]), "z"),
                        (mset(["b", "b"]), "z")}


def test_mrel_compose_counts_its_premises_against_the_budget(monkeypatch):
    # g's premise x^3 picks 3 of f's 2 ways to make x, with repetition:
    # C(4, 3) = 4 choices of 3 premises each, 12 premises in all
    f = MultisetRel(["a", "b"], ["x"], {(mset(["a"]), "x"), (mset(["b"]), "x")},
                    name="f")
    g = MultisetRel(["x"], ["z"], {(mset(["x"] * 3), "z")}, name="g")
    monkeypatch.setattr(rel, "MAX_COMPOSE_PREMISES", 12)
    assert len(mrel_compose(g, f).pairs) == 4
    monkeypatch.setattr(rel, "MAX_COMPOSE_PREMISES", 11)
    with pytest.raises(SizeCap) as info:
        mrel_compose(g, f)
    assert str(info.value) == ("g.f: composite premises over the bound of "
                               "11 (rel.MAX_COMPOSE_PREMISES)")
    # the count runs over every premise of g, not one at a time
    g2 = MultisetRel(["x"], ["z", "w"], {(mset(["x"] * 3), "z"),
                                         (mset(["x"] * 3), "w")})
    monkeypatch.setattr(rel, "MAX_COMPOSE_PREMISES", 23)
    with pytest.raises(SizeCap):
        mrel_compose(g2, f)


def test_mrel_compose_drops_unservable_premises():
    f = MultisetRel(["a"], ["x", "y"], {(mset(["a"]), "x")})
    g = MultisetRel(["x", "y"], ["z"], {(mset(["y"]), "z"), (mset(["x"]), "z")})
    assert mrel_compose(g, f).pairs == {(mset(["a"]), "z")}


def test_mrel_star_frozen_examples():
    # an axiom for a, then a gives b: everything is derivable
    f = MultisetRel(["a", "b"], ["a", "b"],
                    {(EMPTY_MSET, "a"), (mset(["a"]), "b")})
    assert mrel_star(f).pairs == {(EMPTY_MSET, "a"), (EMPTY_MSET, "b")}
    # self-supporting loop with no axiom: nothing is derivable
    g = MultisetRel(["a"], ["a"], {(mset(["a"]), "a")})
    assert mrel_star(g).pairs == set()
    assert mrel_star(g).source == EMPTY_CARRIER


def test_mrel_star_is_a_fixpoint():
    f = MultisetRel([0, 1, 2], [0, 1, 2],
                    {(EMPTY_MSET, 0), (mset([0, 0]), 1), (mset([0, 1]), 2),
                     (mset([2]), 2)})
    s = mrel_star(f)
    assert mrel_compose(f, s) == s


def test_tree_star_stages():
    f = MultisetRel([0, 1, 2], [0, 1, 2],
                    {(EMPTY_MSET, 0), (mset([0]), 1), (mset([1]), 2)})
    t0 = tree_star(f, 0)
    assert t0.stages == [frozenset({0}), frozenset({0, 1})]
    assert not t0.stabilized
    t2 = tree_star(f, 2)
    assert t2.stages[-1] == frozenset({0, 1, 2})
    assert t2.stabilized
    assert t2.final == frozenset({0, 1, 2})


# --- derivation certificates as an independent oracle ---------------------------

def build_witness_trees(f):
    """One derivation tree per derivable element, found by saturation."""
    trees = {}
    for _ in range(len(f.target) + 1):
        for (m, b) in sorted(f.pairs, key=repr):
            if b in trees:
                continue
            if all(x in trees for x in mset_support(m)):
                kids = [trees[x] for (x, k) in m for _ in range(k)]
                trees[b] = ((m, b), kids)
    return trees


def check_witness(f, tree):
    (m, b), kids = tree
    assert (m, b) in f.pairs
    assert mset(k[0][1] for k in kids) == m
    for k in kids:
        check_witness(f, k)


def small_mrels():
    carrier = (0, 1)
    premises = [mset(p) for size in range(3)
                for p in itertools.combinations_with_replacement(carrier, size)]
    all_pairs = [(m, b) for m in premises for b in carrier]
    return carrier, all_pairs


CARRIER2, PAIRS2 = small_mrels()


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from(PAIRS2), max_size=8))
def test_star_routes_agree_with_certificates(pairs):
    f = MultisetRel(CARRIER2, CARRIER2, pairs, _validate=False)
    star_set = {b for (_, b) in mrel_star(f).pairs}
    trees = build_witness_trees(f)
    for b, tree in trees.items():
        check_witness(f, tree)
    assert star_set == set(trees)
    t = tree_star(f, len(CARRIER2))
    assert t.stabilized
    assert t.final == star_set


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from(PAIRS2), max_size=6),
       st.sets(st.sampled_from(PAIRS2), max_size=6),
       st.sets(st.sampled_from(PAIRS2), max_size=6))
def test_mrel_compose_is_associative(ps1, ps2, ps3):
    f = MultisetRel(CARRIER2, CARRIER2, ps1, _validate=False)
    g = MultisetRel(CARRIER2, CARRIER2, ps2, _validate=False)
    h = MultisetRel(CARRIER2, CARRIER2, ps3, _validate=False)
    assert mrel_compose(h, mrel_compose(g, f)) == \
        mrel_compose(mrel_compose(h, g), f)


# --- tagged unions as products ---------------------------------------------------

def test_mrel_product_laws():
    a, b = ("a1", "a2"), ("b1",)
    p1, p2 = mrel_proj1(a, b), mrel_proj2(a, b)
    f = MultisetRel(["c"], a, {(mset(["c"]), "a1"), (EMPTY_MSET, "a2")})
    g = MultisetRel(["c"], b, {(mset(["c", "c"]), "b1")})
    h = mrel_pairing(f, g)
    assert mrel_compose(p1, h) == f
    assert mrel_compose(p2, h) == g
    # every map into the union splits as a pairing, so pairings are unique
    assert mrel_pairing(mrel_compose(p1, h), mrel_compose(p2, h)) == h


def test_mrel_pairing_is_the_only_splitting():
    a, b = ("a1",), ("b1", "b2")
    p1, p2 = mrel_proj1(a, b), mrel_proj2(a, b)
    u = disjoint_union(a, b)
    some_pairs = [(EMPTY_MSET, tag_left("a1")), (mset(["c"]), tag_right("b2")),
                  (mset(["c", "c"]), tag_left("a1")), (EMPTY_MSET, tag_right("b1"))]
    for ps in itertools.combinations(some_pairs, 2):
        h = MultisetRel(["c"], u, set(ps))
        assert mrel_pairing(mrel_compose(p1, h), mrel_compose(p2, h)) == h


def test_mrel_swap_and_cross():
    a, b = ("a1", "a2"), ("b1",)
    # the symmetry: the pairing of the projections in swapped order
    s = mrel_pairing(mrel_proj2(a, b), mrel_proj1(a, b))
    s_back = mrel_pairing(mrel_proj2(b, a), mrel_proj1(b, a))
    assert mrel_compose(s_back, s) == mrel_identity(disjoint_union(a, b))
    assert (mset([tag_left("a1")]), tag_right("a1")) in s.pairs
    f = MultisetRel(a, a, {(mset(["a1"]), "a2")})
    g = MultisetRel(b, b, {(EMPTY_MSET, "b1")})
    # f x g: the pairing of the two composites with the projections
    p1, p2 = mrel_proj1(a, b), mrel_proj2(a, b)
    fg = mrel_pairing(mrel_compose(f, p1), mrel_compose(g, p2))
    assert mrel_compose(mrel_proj1(a, b), fg) == \
        mrel_compose(f, mrel_proj1(a, b))
    assert mrel_compose(mrel_proj2(a, b), fg) == \
        mrel_compose(g, mrel_proj2(a, b))


def test_mrel_from_function():
    j = mrel_from_function((0, 1), ("x", "y"), lambda n: "x" if n == 0 else "y")
    assert j.pairs == {(mset([0]), "x"), (mset([1]), "y")}


# --- preorders and ideal relations ------------------------------------------------

P_CHAIN = Preorder(["p", "q"], [("p", "p"), ("q", "q"), ("p", "q")], name="p<q")
P_EQUIV = Preorder(["p", "q"],
                   [("p", "p"), ("q", "q"), ("p", "q"), ("q", "p")], name="p~q")
T_CHAIN = Preorder(["x", "y"], [("x", "x"), ("y", "y"), ("x", "y")], name="x<y")


def test_preorder_validation():
    with pytest.raises(ValidationError):
        Preorder([0, 1], [(0, 0)])  # not reflexive at 1
    with pytest.raises(ValidationError):
        Preorder([0, 1, 2], [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])  # not transitive
    assert P_EQUIV.leq("q", "p")  # no antisymmetry requirement


def test_hoare_order():
    assert hoare_leq(P_CHAIN, ("p",), ("q",))
    assert not hoare_leq(P_CHAIN, ("q",), ("p",))
    assert hoare_leq(P_CHAIN, (), ("p",))
    assert hoare_leq(P_CHAIN, ("p", "q"), ("q",))


def test_uset_canonical():
    assert uset(["b", "a", "b"]) == ("a", "b")
    assert uset([]) == ()


def test_idealrel_normalization_drops_subsumed():
    # needing q and promising only x is strictly worse than needing p for y
    r = IdealRel(P_CHAIN, T_CHAIN, {(("q",), "x"), (("p",), "y")})
    assert r.pairs == {(("p",), "y")}
    assert holds(r, ("q",), "x")  # still denoted, just not stored


def test_idealrel_mutual_subsumption_keeps_one():
    r = IdealRel(P_EQUIV, T_CHAIN, {(("p",), "x"), (("q",), "x")})
    assert r.pairs == {(("p",), "x")}
    assert holds(r, ("q",), "x")


def test_idealrel_incomparable_pairs_survive():
    disc = discrete_preorder(["p", "q"])
    r = IdealRel(disc, disc, {(("p",), "p"), (("q",), "q")})
    assert len(r.pairs) == 2


def test_scott_identity_laws():
    f = IdealRel(P_CHAIN, T_CHAIN, {(("p", "q"), "x"), ((), "y")})
    assert scott_compose(f, scott_identity(P_CHAIN)) == f
    assert scott_compose(scott_identity(T_CHAIN), f) == f


def test_scott_compose_cover_matches():
    # f promises y (above x); g consumes x; the composite must still fire
    f = IdealRel(P_CHAIN, T_CHAIN, {(("p",), "y")})
    g = IdealRel(T_CHAIN, P_CHAIN, {(("x",), "q")})
    assert scott_compose(g, f).pairs == {(("p",), "q")}


def expand(r: IdealRel) -> set:
    """The full downward closed denotation over subsets of the source."""
    subsets = [uset(c) for k in range(len(r.source.elements) + 1)
               for c in itertools.combinations(r.source.elements, k)]
    return {(u, b) for u in subsets for b in r.target.elements if holds(r, u, b)}


def literal_compose(g_pairs, f_pairs, src, mid, tgt):
    """Textbook composition with exact premise matching, on full denotations."""
    out = set()
    for (v, c) in g_pairs:
        slots = []
        ok = True
        for b in v:
            cands = [u for (u, b2) in f_pairs if b2 == b]
            if not cands:
                ok = False
                break
            slots.append(cands)
        if not ok:
            continue
        for choice in itertools.product(*slots):
            out.add((uset(x for u in choice for x in u), c))
    return out


PREORDERS = [discrete_preorder(["p", "q"], name="disc"), P_CHAIN, P_EQUIV]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.data())
def test_scott_compose_matches_literal_composition_of_denotations(i, j, data):
    src, mid = PREORDERS[i], PREORDERS[j]
    tgt = T_CHAIN
    usets_src = [(), ("p",), ("q",), ("p", "q")]
    usets_mid = usets_src
    f_pairs = data.draw(st.sets(
        st.tuples(st.sampled_from(usets_src), st.sampled_from(mid.elements)),
        max_size=4))
    g_pairs = data.draw(st.sets(
        st.tuples(st.sampled_from(usets_mid), st.sampled_from(tgt.elements)),
        max_size=4))
    f = IdealRel(src, mid, f_pairs, _validate=False)
    g = IdealRel(mid, tgt, g_pairs, _validate=False)
    fast = scott_compose(g, f)
    slow = IdealRel(src, tgt,
                    literal_compose(expand(g), expand(f), src, mid, tgt),
                    _validate=False)
    assert fast == slow


def test_scott_star_frozen_examples():
    a_disc = discrete_preorder(["a"])
    f = IdealRel(a_disc, a_disc, {((), "a")})
    assert scott_star_set(f) == {"a"}
    assert scott_star(f).pairs == {((), "a")}
    assert scott_star(f).source == EMPTY_PREORDER
    # with b below a, deriving a also yields b, but b is subsumed in the result
    ba = Preorder(["a", "b"], [("a", "a"), ("b", "b"), ("b", "a")], name="b<a")
    g = IdealRel(ba, ba, {((), "a")})
    assert scott_star_set(g) == {"a", "b"}
    assert scott_star(g).pairs == {((), "a")}
    # self-supporting loop derives nothing
    h = IdealRel(a_disc, a_disc, {(("a",), "a")})
    assert scott_star_set(h) == frozenset()


def test_scott_star_is_a_fixpoint():
    f = IdealRel(P_CHAIN, P_CHAIN, {((), "p"), (("p",), "q")})
    s = scott_star(f)
    assert scott_compose(f, s) == s


@settings(max_examples=150, deadline=None)
@given(st.sets(st.sampled_from(PAIRS2), max_size=8))
def test_scott_star_agrees_with_mrel_star_on_discrete(pairs):
    f = MultisetRel(CARRIER2, CARRIER2, pairs, _validate=False)
    disc = discrete_preorder(CARRIER2)
    f_ideal = IdealRel(disc, disc,
                       {(uset(mset_support(m)), b) for (m, b) in pairs},
                       _validate=False)
    assert scott_star_set(f_ideal) == {b for (_, b) in mrel_star(f).pairs}


def test_scott_from_function_checks_monotonicity():
    j = scott_from_function(P_CHAIN, T_CHAIN,
                            lambda e: "x" if e == "p" else "y")
    assert j.pairs == {(("p",), "x"), (("q",), "y")}
    with pytest.raises(ValidationError):
        scott_from_function(P_CHAIN, T_CHAIN,
                            lambda e: "y" if e == "p" else "x")


def test_scott_from_function_reports_the_least_broken_pair():
    # two broken pairs: the one reported must not depend on the hash seed
    p = Preorder("abcd", {(x, x) for x in "abcd"} | {("a", "b"), ("c", "d")})
    with pytest.raises(ValidationError,
                       match=r"^J: function not monotone on 'a' <= 'b'$"):
        scott_from_function(p, discrete_preorder("abcd"), lambda e: e)


def test_scott_product_laws():
    u = preorder_disjoint_union(P_CHAIN, T_CHAIN)
    assert u.leq(tag_left("p"), tag_left("q"))
    assert not u.leq(tag_left("p"), tag_right("y"))
    p1, p2 = scott_proj1(P_CHAIN, T_CHAIN), scott_proj2(P_CHAIN, T_CHAIN)
    f = IdealRel(P_EQUIV, P_CHAIN, {(("p",), "q")})
    g = IdealRel(P_EQUIV, T_CHAIN, {((), "x")})
    h = scott_pairing(f, g)
    assert scott_compose(p1, h) == f
    assert scott_compose(p2, h) == g
    assert scott_pairing(scott_compose(p1, h), scott_compose(p2, h)) == h


def test_scott_swap_and_cross():
    s = scott_pairing(scott_proj2(P_CHAIN, T_CHAIN),
                      scott_proj1(P_CHAIN, T_CHAIN))
    s_back = scott_pairing(scott_proj2(T_CHAIN, P_CHAIN),
                           scott_proj1(T_CHAIN, P_CHAIN))
    assert scott_compose(s_back, s) == \
        scott_identity(preorder_disjoint_union(P_CHAIN, T_CHAIN))
    f = IdealRel(P_CHAIN, P_CHAIN, {(("p",), "q")})
    g = IdealRel(T_CHAIN, T_CHAIN, {((), "x")})
    # f x g: the pairing of the two composites with the projections
    fg = scott_pairing(scott_compose(f, scott_proj1(P_CHAIN, T_CHAIN)),
                       scott_compose(g, scott_proj2(P_CHAIN, T_CHAIN)))
    assert scott_compose(scott_proj1(P_CHAIN, T_CHAIN), fg) == \
        scott_compose(f, scott_proj1(P_CHAIN, T_CHAIN))


# --- kernel equivalence ------------------------------------------------------------

def reference_compose(g, f):
    """g after f by the general loop: every premise through combinations
    and a multiset union, with no shortcut for small premises."""
    by_target = {}
    for (m, b) in f.pairs:
        by_target.setdefault(b, []).append(m)
    out = set()
    for (n, c) in g.pairs:
        slots = []
        feasible = True
        for (b, k) in n:
            cands = by_target.get(b, [])
            if not cands:
                feasible = False
                break
            slots.append(list(itertools.combinations_with_replacement(cands, k)))
        if not feasible:
            continue
        for choice in itertools.product(*slots):
            ms = [m for group in choice for m in group]
            out.add((mset_union(*ms), c))
    return out


def random_mrel_pairs(data, source, target):
    premise = (st.dictionaries(st.sampled_from(source), st.integers(1, 2),
                               max_size=2)
               if source else st.just({}))
    pair = st.tuples(premise, st.sampled_from(target))
    drawn = data.draw(st.lists(pair, max_size=6)) if target else []
    return {(mset(x for (x, k) in counts.items() for _ in range(k)), b)
            for (counts, b) in drawn}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_mrel_compose_matches_general_loop(na, nb, nc, data):
    a = tuple(f"a{i}" for i in range(na))
    b = tuple(range(nb))
    c = tuple(f"c{i}" for i in range(nc))
    f = MultisetRel(a, b, random_mrel_pairs(data, a, b))
    g = MultisetRel(b, c, random_mrel_pairs(data, b, c))
    gf = mrel_compose(g, f)
    assert gf.validate() == []
    assert gf.pairs == reference_compose(g, f)
    assert (gf.source, gf.target) == (f.source, g.target)


def test_permuted_carriers_compare_hash_and_compose_equal():
    pairs = {(mset(["a"]), "b"), (EMPTY_MSET, "a")}
    r = MultisetRel(("a", "b"), ("a", "b"), pairs)
    r_perm = MultisetRel(("b", "a"), ("b", "a"), pairs)
    assert r == r_perm and hash(r) == hash(r_perm)
    assert mrel_compose(r_perm, r) == mrel_compose(r, r)
    assert mrel_compose(r, r_perm) == mrel_compose(r, r)
    assert mrel_star(r_perm) == mrel_star(r)
    assert tree_star(r_perm, 3).final == tree_star(r, 3).final


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_relations_equal_up_to_carrier_order_hash_equal(na, nb, data):
    a = tuple(f"a{i}" for i in range(na))
    b = tuple(range(nb))
    pairs = random_mrel_pairs(data, a, b)
    r = MultisetRel(a, b, pairs)
    r_perm = MultisetRel(data.draw(st.permutations(a)),
                         data.draw(st.permutations(b)), pairs)
    assert r == r_perm and hash(r) == hash(r_perm)


def test_empty_relations_on_distinct_carriers_hash_apart():
    # their pairs name no element; a law run's table holds many of them
    empties = [MultisetRel(EMPTY_CARRIER, (f"E{i}0", f"E{i}1"), set())
               for i in range(50)]
    assert len({hash(r) for r in empties}) == 50
    a, b = ("x", "y"), ("y", "x")
    assert hash(MultisetRel(a, b, set())) == hash(MultisetRel(b, a, set()))


def test_different_carriers_differ_and_refuse_to_compose():
    r = MultisetRel(("a", "b"), ("a", "b"), {(mset(["a"]), "b")})
    wider = MultisetRel(("a", "b", "c"), ("a", "b", "c"), {(mset(["a"]), "b")})
    assert r != wider
    with pytest.raises(TypeMismatch):
        mrel_compose(wider, r)
    lopsided = MultisetRel(("a", "b"), ("a",), {(mset(["b"]), "a")})
    for star in (mrel_star, lambda x: tree_star(x, 2)):
        with pytest.raises(TypeMismatch):
            star(lopsided)


MIXED_ELEMENTS = [0, "0", 1, "b", "a", ("t", 1), 2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(MIXED_ELEMENTS), unique=True, max_size=5),
       st.data())
def test_class_rep_matches_brute_force(elements, data):
    edges = data.draw(st.sets(st.tuples(st.sampled_from(elements),
                                        st.sampled_from(elements)))
                      if elements else st.just(set()))
    leq = {(x, x) for x in elements} | edges
    while True:
        step = {(x, z) for (x, y) in leq for (y2, z) in leq if y == y2}
        if step <= leq:
            break
        leq |= step
    pre = Preorder(elements, leq)
    for x in elements:
        cls = [y for y in elements if (x, y) in leq and (y, x) in leq]
        assert class_rep(pre, x) == min(cls, key=_skey)
    assert class_rep(pre, "foreign") == "foreign"


# --- bit-mask kernels against their brute-force definitions -----------------

FOREIGN = ["foreign", 3, ("t", 2)]


def brute_hoare_leq(pre, u, v):
    return all(any(pre.leq(x, y) for y in v) for x in u)


def brute_normalize_pairs(src, tgt, pairs):
    def subsumes(p, q):
        (u0, b0), (u, b) = p, q
        return brute_hoare_leq(src, u0, u) and tgt.leq(b, b0)

    keep = []
    for p in sorted(pairs, key=_skey):
        dominated = False
        for q in pairs:
            if q == p:
                continue
            if subsumes(q, p):
                if not subsumes(p, q) or _skey(q) < _skey(p):
                    dominated = True
                    break
        if not dominated:
            keep.append(p)
    return frozenset(keep)


def brute_scott_star_set(f):
    pre = f.source
    x = frozenset()
    for _ in range(len(pre.elements) + 1):
        nxt = frozenset(b for b in pre.elements
                        for (u, b0) in f.pairs
                        if set(u) <= x and pre.leq(b, b0))
        if nxt == x:
            break
        x = nxt
    return x


@st.composite
def mixed_preorders(draw):
    elements = draw(st.lists(st.sampled_from(MIXED_ELEMENTS), unique=True,
                             max_size=5))
    edges = draw(st.sets(st.tuples(st.sampled_from(elements),
                                   st.sampled_from(elements)))
                 if elements else st.just(set()))
    leq = {(x, x) for x in elements} | edges
    while True:
        step = {(x, z) for (x, y) in leq for (y2, z) in leq if y == y2}
        if step <= leq:
            break
        leq |= step
    return Preorder(elements, leq)


def input_sets(pre):
    # carrier elements mixed with elements outside the preorder
    return st.lists(st.sampled_from(list(pre.elements) + FOREIGN),
                    max_size=3).map(uset)


@settings(max_examples=200, deadline=None)
@given(mixed_preorders(), mixed_preorders(), st.data())
def test_mask_kernels_match_brute_force(src, tgt, data):
    u, v = data.draw(input_sets(src)), data.draw(input_sets(src))
    assert hoare_leq(src, u, v) == brute_hoare_leq(src, u, v)
    assert hoare_leq(src, u, u) == all(x in src.elements for x in u)

    outputs = st.sampled_from(list(tgt.elements) + FOREIGN)
    pairs = data.draw(st.sets(st.tuples(input_sets(src), outputs),
                              max_size=6))
    assert (normalize_pairs(src, tgt, pairs)
            == brute_normalize_pairs(src, tgt, pairs))

    rules = data.draw(st.sets(st.tuples(
        input_sets(src), st.sampled_from(list(src.elements) + FOREIGN)),
        max_size=6))
    endo = SimpleNamespace(source=src, target=src, pairs=frozenset(rules))
    assert scott_star_set(endo) == brute_scott_star_set(endo)


# --- canonical forms against their brute-force definitions -------------------

def brute_class_rep(pre, x):
    cls = [y for y in pre.elements if pre.leq(x, y) and pre.leq(y, x)]
    return min(cls, key=_skey) if cls else x


def brute_canon_uset(pre, u):
    """The maximal elements of u, then their class representatives, then
    `_skey` order; an element outside the preorder is kept as it is."""
    inside = [x for x in u if x in pre.elements]
    maximal = [x for x in inside
               if not any(pre.leq(x, y) and not pre.leq(y, x) for y in inside)]
    foreign = [x for x in u if x not in pre.elements]
    return tuple(sorted({brute_class_rep(pre, x) for x in maximal}
                        | set(foreign), key=_skey))


def raw_input_sets(pre):
    # unsorted, with duplicates, mixing carrier and foreign elements
    return st.lists(st.sampled_from(list(pre.elements) + FOREIGN),
                    max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@given(mixed_preorders(), st.data())
def test_canon_uset_matches_brute_force(pre, data):
    u = data.draw(raw_input_sets(pre))
    canon = canon_uset(pre, u)
    assert canon == brute_canon_uset(pre, u)
    assert canon_uset(pre, canon) == canon
    assert canon_uset(pre, tuple(reversed(u))) == canon


@settings(max_examples=200, deadline=None)
@given(mixed_preorders(), mixed_preorders(), st.data())
def test_idealrel_pairs_are_brute_normal_forms(src, tgt, data):
    outputs = st.sampled_from(list(tgt.elements) + FOREIGN)
    pairs = data.draw(st.lists(st.tuples(raw_input_sets(src), outputs),
                               max_size=6))
    r = IdealRel(src, tgt, pairs, _validate=False)
    canon = {(brute_canon_uset(src, u), brute_class_rep(tgt, b))
             for (u, b) in pairs}
    assert r.pairs == brute_normalize_pairs(src, tgt, canon)
    # no stored pair subsumes another: each one is needed
    for p in r.pairs:
        for q in r.pairs:
            if q != p:
                assert not (brute_hoare_leq(src, q[0], p[0])
                            and tgt.leq(p[1], q[1]))


def brute_mrel_star_set(f):
    s = frozenset()
    for _ in range(len(f.target) + 1):
        nxt = frozenset(b for (m, b) in f.pairs
                        if all(x in s for (x, _) in m))
        if nxt == s:
            break
        s = nxt
    return s


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(MIXED_ELEMENTS), unique=True, max_size=4),
       st.data())
def test_mrel_star_matches_brute_force_with_foreign_elements(carrier, data):
    # premises and outputs may name elements outside the carrier
    names = carrier + FOREIGN
    premise = st.lists(st.sampled_from(names), max_size=3).map(mset)
    pairs = data.draw(st.sets(st.tuples(premise, st.sampled_from(names)),
                              max_size=8))
    f = MultisetRel(carrier, carrier, pairs, _validate=False)
    star = mrel_star(f)
    assert star.pairs == {(EMPTY_MSET, b) for b in brute_mrel_star_set(f)}
    assert (star.source, star.target) == (EMPTY_CARRIER, f.target)
