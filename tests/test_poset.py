"""Pointed posets: fixpoints two ways, and products."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fixcat.errors import TypeMismatch, ValidationError
from fixcat.poset import (
    ONE_POINT,
    MonotoneMap,
    PointedPoset,
    all_fixpoints,
    bifree_star,
    compose_maps,
    fin,
    identity_map,
    iterates,
    kleene_star,
    mediating_map,
    omega_bar_leq,
    omega_bar_successor,
    point_map,
    product,
    TOP,
)


def chain(n, name=None):
    elems = list(range(n))
    leq = [(i, j) for i in elems for j in elems if i <= j]
    return PointedPoset(elems, leq, 0, name=name or f"C{n}")


C2 = chain(2)
C3 = chain(3)

# bottom < a, b < top, a and b incomparable
DIAMOND = PointedPoset(
    ["bot", "a", "b", "top"],
    [(x, x) for x in ["bot", "a", "b", "top"]]
    + [("bot", "a"), ("bot", "b"), ("bot", "top"), ("a", "top"), ("b", "top")],
    "bot", name="diamond")

# bottom plus two incomparable points, no top
FORK = PointedPoset(
    ["bot", "l", "r"],
    [(x, x) for x in ["bot", "l", "r"]] + [("bot", "l"), ("bot", "r")],
    "bot", name="fork")

FIXTURES = [C2, C3, DIAMOND, FORK]


def endomaps(p):
    """All monotone endomaps of p, brute force."""
    maps = []
    for images in itertools.product(p.elements, repeat=len(p.elements)):
        assignment = dict(zip(p.elements, images))
        if all(p.leq(assignment[x], assignment[y]) for (x, y) in p.leq_pairs):
            maps.append(MonotoneMap(p, p, assignment, _validate=False))
    return maps


def maps_between(p, q):
    maps = []
    for images in itertools.product(q.elements, repeat=len(p.elements)):
        assignment = dict(zip(p.elements, images))
        if all(q.leq(assignment[x], assignment[y]) for (x, y) in p.leq_pairs):
            maps.append(MonotoneMap(p, q, assignment, _validate=False))
    return maps


def least_fixpoint_oracle(f):
    """Least fixpoint found by inspection of the whole fixpoint set.

    Independent of the iteration: collect every fixpoint and return the one
    below all others.  Monotone endomaps of finite pointed posets always
    have exactly one such element.
    """
    fps = all_fixpoints(f)
    least = [x for x in fps if all(f.source.leq(x, y) for y in fps)]
    assert len(least) == 1
    return least[0]


# --- validation ------------------------------------------------------------

def test_poset_validation_catches_broken_order():
    with pytest.raises(ValidationError):
        PointedPoset([0, 1], [(0, 0), (0, 1)], 0)  # not reflexive at 1
    with pytest.raises(ValidationError):
        PointedPoset([0, 1], [(0, 0), (1, 1)], 0)  # bottom not below 1
    with pytest.raises(ValidationError):
        # antisymmetry: 0 <= 1 <= 0 with 0 != 1
        PointedPoset([0, 1], [(0, 0), (1, 1), (0, 1), (1, 0)], 0)
    with pytest.raises(ValidationError):
        # transitivity: 0 <= 1 <= 2 but not 0 <= 2
        PointedPoset([0, 1, 2], [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)], 0)


def test_map_validation():
    with pytest.raises(ValidationError):
        MonotoneMap(C2, C2, {0: 1, 1: 0})  # order-reversing
    f = MonotoneMap(C2, C2, {0: 1, 1: 1})
    assert not f.is_bottom_preserving()
    assert identity_map(C2).is_bottom_preserving()


def test_compose_respects_boundaries_and_strictness():
    f = MonotoneMap(C2, C3, {0: 0, 1: 2})
    g = MonotoneMap(C3, C2, {0: 0, 1: 1, 2: 1})
    assert compose_maps(g, f).assignment == {0: 0, 1: 1}
    assert compose_maps(g, f).is_bottom_preserving()
    with pytest.raises(TypeMismatch):
        compose_maps(f, f)


def test_one_point_is_terminal():
    for p in FIXTURES:
        bang = MonotoneMap(p, ONE_POINT, {x: "*" for x in p.elements})
        assert maps_between(p, ONE_POINT) == [bang]
    assert point_map(C3, 2).assignment == {"*": 2}


# --- fixpoints: frozen examples --------------------------------------------

def test_star_on_three_chain():
    # successor-like map: 0 -> 1 -> 2 -> 2; iterating from bottom walks the
    # whole chain, so the least fixpoint is the top
    f = MonotoneMap(C3, C3, {0: 1, 1: 2, 2: 2})
    assert kleene_star(f) == 2
    assert iterates(f) == [0, 1, 2]
    assert bifree_star(f) == 2


def test_star_on_diamond():
    f = MonotoneMap(DIAMOND, DIAMOND,
                    {"bot": "a", "a": "a", "b": "top", "top": "top"})
    # both "a" and "top" are fixed; the iteration must stop at the lower one
    assert all_fixpoints(f) == ["a", "top"]
    assert kleene_star(f) == "a"
    assert bifree_star(f) == "a"


def test_star_of_identity_is_bottom():
    for p in FIXTURES:
        assert kleene_star(identity_map(p)) == p.bottom
        assert bifree_star(identity_map(p)) == p.bottom


def test_star_requires_endomap():
    f = MonotoneMap(C2, C3, {0: 0, 1: 2})
    with pytest.raises(TypeMismatch):
        kleene_star(f)
    with pytest.raises(TypeMismatch):
        mediating_map(f)


# --- fixpoints: both routes against the oracle, exhaustively ----------------

@pytest.mark.parametrize("p", FIXTURES, ids=lambda p: p.name)
def test_both_star_routes_match_oracle(p):
    for f in endomaps(p):
        expected = least_fixpoint_oracle(f)
        assert kleene_star(f) == expected
        assert bifree_star(f) == expected


def test_mediating_map_probes():
    f = MonotoneMap(C3, C3, {0: 1, 1: 2, 2: 2})
    u = mediating_map(f)
    assert u.at(fin(0)) == 0
    assert u.at(fin(1)) == 1
    assert u.at(fin(5)) == 2  # beyond stabilization the value is pinned
    assert u.at(TOP) == 2
    # the defining square, spot-checked from outside
    for n in range(6):
        assert u.at(omega_bar_successor(fin(n))) == f.assignment[u.at(fin(n))]
    assert u.at(omega_bar_successor(TOP)) == f.assignment[u.at(TOP)]


def test_omega_bar_order_shape():
    assert omega_bar_leq(fin(0), fin(3))
    assert not omega_bar_leq(fin(3), fin(0))
    assert omega_bar_leq(fin(7), TOP)
    assert not omega_bar_leq(TOP, fin(7))
    assert omega_bar_leq(TOP, TOP)
    assert omega_bar_successor(fin(4)) == fin(5)
    assert omega_bar_successor(TOP) == TOP


# --- products ----------------------------------------------------------------

def test_product_order_and_projections():
    pr = product(C2, C3)
    assert not pr.poset.validate()
    assert pr.poset.bottom == (0, 0)
    assert pr.poset.leq((0, 1), (1, 2))
    assert not pr.poset.leq((1, 0), (0, 2))
    assert pr.proj1.assignment[(1, 2)] == 1
    assert pr.proj2.assignment[(1, 2)] == 2


def test_pairing_laws_and_uniqueness():
    pr = product(C2, C2)
    for f in maps_between(DIAMOND, C2):
        for g in maps_between(DIAMOND, C2):
            h = pr.pair(f, g)
            assert not h.validate()
            assert compose_maps(pr.proj1, h).assignment == f.assignment
            assert compose_maps(pr.proj2, h).assignment == g.assignment
            # h is the only map with those composites
            matches = [k for k in maps_between(DIAMOND, pr.poset)
                       if compose_maps(pr.proj1, k).assignment == f.assignment
                       and compose_maps(pr.proj2, k).assignment == g.assignment]
            assert matches == [h]


def test_pairing_rejects_mismatched_legs():
    pr = product(C2, C2)
    f = MonotoneMap(C2, C2, {0: 0, 1: 1})
    g = MonotoneMap(C3, C2, {0: 0, 1: 0, 2: 1})
    with pytest.raises(TypeMismatch):
        pr.pair(f, g)


def test_swap_is_an_involution():
    # the symmetry: the pairing of the projections in swapped order
    c23, c32 = product(C2, C3), product(C3, C2)
    s = c32.pair(c23.proj2, c23.proj1)
    s_back = c23.pair(c32.proj2, c32.proj1)
    assert compose_maps(s_back, s).assignment == \
        identity_map(product(C2, C3).poset).assignment
    assert s.assignment[(1, 2)] == (2, 1)


# --- property tests over generated posets -------------------------------------

def _closure(n, extra_pairs):
    """Reflexive-transitive closure of bottom-below-all plus drawn pairs.

    Drawn pairs all point upward in index order, so the result is
    automatically antisymmetric.
    """
    leq = {(i, i) for i in range(n)} | {(0, j) for j in range(n)} | set(extra_pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(leq):
            for (c, d) in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    return leq


@st.composite
def poset_with_endomap(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ij: ij[0] < ij[1])
    extra = draw(st.sets(pair, max_size=8))
    p = PointedPoset(range(n), _closure(n, extra), 0, name=f"gen{n}")
    maps = endomaps(p)
    f = maps[draw(st.integers(0, len(maps) - 1))]
    return p, f


@settings(max_examples=200, deadline=None)
@given(poset_with_endomap())
def test_property_star_routes_agree(pf):
    p, f = pf
    expected = least_fixpoint_oracle(f)
    assert kleene_star(f) == expected
    assert bifree_star(f) == expected


@settings(max_examples=100, deadline=None)
@given(poset_with_endomap())
def test_property_star_is_below_every_prefixpoint(pf):
    # anything with f(x) <= x sits above the least fixpoint
    p, f = pf
    star = kleene_star(f)
    for x in p.elements:
        if p.leq(f.assignment[x], x):
            assert p.leq(star, x)
