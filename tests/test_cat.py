"""Tests for the finite-category core: tables, functors, 2-cell calculus."""

from __future__ import annotations

import itertools

import pytest

from fixcat.cat import (
    Arrow, FinCategory, FunctorData, NatTransfData, SearchBound,
    compose_functors, constant_functor, discrete_category,
    enumerate_functors, enumerate_nat_transfs, hcomp, identity_functor,
    identity_transf, inverse_transf, is_invertible_transf, preorder_category,
    point_functor, validate_category, vcomp, whisker_left, whisker_right,
    TERMINAL_CATEGORY,
)
from fixcat.errors import BoundaryMismatch, SizeCap, TypeMismatch, ValidationError


def brute_force_nat_transfs(f, g):
    """Oracle: try every component assignment over all target arrows."""
    c, d = f.source, f.target
    objs = sorted(c.objects)
    found = []
    for choice in itertools.product(sorted(d.arrows), repeat=len(objs)):
        comps = dict(zip(objs, choice))
        ok = all(d.arrows[comps[x]].src == f.omap[x]
                 and d.arrows[comps[x]].dst == g.omap[x] for x in objs)
        if not ok:
            continue
        for aid, a in c.arrows.items():
            if d.table[(comps[a.dst], f.amap[aid])] != d.table[(g.amap[aid], comps[a.src])]:
                ok = False
                break
        if ok:
            found.append(comps)
    return found


CHAIN2 = preorder_category("chain2", ["0", "1"], [("0", "1")])
CHAIN3 = preorder_category("chain3", ["0", "1", "2"], [("0", "1"), ("1", "2"), ("0", "2")])
DISC2 = discrete_category("disc2", ["a", "b"])
DISC3 = discrete_category("disc3", ["p", "q", "r"])


def walking_iso_category():
    """Initial object 0 plus an isomorphic pair x ~ y."""
    objects = ["0", "x", "y"]
    arrows = [
        Arrow("id_0", "0", "0"), Arrow("id_x", "x", "x"), Arrow("id_y", "y", "y"),
        Arrow("0x", "0", "x"), Arrow("0y", "0", "y"),
        Arrow("i", "x", "y"), Arrow("j", "y", "x"),
    ]
    identity = {"0": "id_0", "x": "id_x", "y": "id_y"}
    table = {}
    ids = {a.id: a for a in arrows}
    def comp(g, f):
        a, b = ids[f], ids[g]
        if f.startswith("id_"):
            return g
        if g.startswith("id_"):
            return f
        word = {("i", "0x"): "0y", ("j", "0y"): "0x",
                ("j", "i"): "id_x", ("i", "j"): "id_y"}
        return word[(g, f)]
    for f in ids.values():
        for g in ids.values():
            if f.dst == g.src:
                table[(g.id, f.id)] = comp(g.id, f.id)
    return FinCategory(objects, arrows, identity, table, name="walking_iso")


WALKING_ISO = walking_iso_category()


def test_validate_accepts_well_formed_categories():
    for c in [CHAIN2, CHAIN3, DISC2, DISC3, WALKING_ISO, TERMINAL_CATEGORY]:
        assert validate_category(c) == []


def test_validate_reports_corrupted_composition_table():
    broken = dict(CHAIN3.table)
    broken[("1<2", "0<1")] = "id_0"  # wrong boundary
    c = FinCategory(CHAIN3.objects, CHAIN3.arrows.values(), CHAIN3.identity,
                    broken, name="bad", _validate=False)
    problems = validate_category(c)
    assert problems
    assert any("0<1" in p for p in problems)


def test_validate_reports_missing_composite():
    broken = dict(CHAIN3.table)
    del broken[("1<2", "0<1")]
    c = FinCategory(CHAIN3.objects, CHAIN3.arrows.values(), CHAIN3.identity,
                    broken, name="bad2", _validate=False)
    assert any("missing" in p for p in validate_category(c))


def test_validate_reports_table_entry_on_unknown_arrows():
    broken = dict(CHAIN3.table)
    broken[("0<1", "nowhere")] = "0<1"
    c = FinCategory(CHAIN3.objects, CHAIN3.arrows.values(), CHAIN3.identity,
                    broken, name="bad3", _validate=False)
    assert any("unknown arrows" in p for p in validate_category(c))


def test_validate_reports_associativity_breakage():
    # a 1-object category with two idempotent-ish arrows wired inconsistently
    objects = ["z"]
    arrows = [Arrow("id_z", "z", "z"), Arrow("u", "z", "z"), Arrow("v", "z", "z")]
    identity = {"z": "id_z"}
    table = {}
    for f in ["id_z", "u", "v"]:
        table[(f, "id_z")] = f
        table[("id_z", f)] = f
    # (u.u).u = v.u = id_z but u.(u.u) = u.v = u
    table[("u", "u")] = "v"
    table[("u", "v")] = "u"
    table[("v", "u")] = "id_z"
    table[("v", "v")] = "v"
    c = FinCategory(objects, arrows, identity, table, name="bad3", _validate=False)
    assert any("associativity" in p for p in validate_category(c))


def test_compose_and_identity_laws():
    assert CHAIN3.compose("1<2", "0<1") == "0<2"
    assert CHAIN3.compose("id_1", "0<1") == "0<1"
    assert CHAIN3.compose("0<1", "id_0") == "0<1"
    with pytest.raises(TypeMismatch):
        CHAIN3.compose("0<1", "1<2")


def test_inverse_search():
    assert WALKING_ISO.inverse("i") == "j"
    assert WALKING_ISO.inverse("0x") is None
    assert WALKING_ISO.is_iso("id_x")


def test_initial_objects():
    assert CHAIN3.initial_objects() == ["0"]
    assert WALKING_ISO.initial_objects() == ["0"]
    assert DISC2.initial_objects() == []


def test_enumerate_functors_discrete_counts():
    # maps of 2 objects into 3 objects, no arrow constraints: 3^2 = 9
    assert len(enumerate_functors(DISC2, DISC3)) == 9


def test_enumerate_functors_respects_composition():
    fs = enumerate_functors(CHAIN2, CHAIN2)
    # monotone endomaps of the 2-chain: 00, 01, 11
    assert len(fs) == 3
    for f in fs:
        for (g, h), comp in CHAIN2.table.items():
            assert CHAIN2.table[(f.amap[g], f.amap[h])] == f.amap[comp]


def test_enumerate_functors_size_cap():
    with pytest.raises(SizeCap):
        enumerate_functors(DISC2, DISC3, bound=SearchBound(max_objects=2))


def test_enumerate_nat_transfs_forced_components():
    f = constant_functor(DISC2, CHAIN2, "0")
    g = constant_functor(DISC2, CHAIN2, "0")
    assert len(enumerate_nat_transfs(f, g)) == 1
    h = constant_functor(DISC2, CHAIN2, "1")
    assert len(enumerate_nat_transfs(f, h)) == 1
    assert enumerate_nat_transfs(h, f) == []


def test_enumerate_nat_transfs_matches_brute_force_oracle():
    pairs = []
    for c, d in [(DISC2, CHAIN2), (CHAIN2, CHAIN3), (CHAIN2, WALKING_ISO)]:
        fs = enumerate_functors(c, d)
        for f in fs:
            for g in fs:
                pairs.append((f, g))
    assert pairs
    for f, g in pairs:
        fast = sorted(tuple(sorted(t.components.items()))
                      for t in enumerate_nat_transfs(f, g))
        slow = sorted(tuple(sorted(comps.items()))
                      for comps in brute_force_nat_transfs(f, g))
        assert fast == slow


def test_vcomp_unit_laws():
    fs = enumerate_functors(CHAIN2, CHAIN3)
    for f in fs:
        for g in fs:
            for t in enumerate_nat_transfs(f, g):
                assert vcomp(t, identity_transf(f)) == t
                assert vcomp(identity_transf(g), t) == t


def test_hcomp_of_identities_is_identity_of_composite():
    f = constant_functor(DISC2, CHAIN2, "0")       # DISC2 -> CHAIN2
    g = enumerate_functors(CHAIN2, CHAIN3)[0]      # CHAIN2 -> CHAIN3
    assert hcomp(identity_transf(f), identity_transf(g)) == \
        identity_transf(compose_functors(g, f))


def test_interchange_law():
    """vcomp(hcomp(a,b), hcomp(a2,b2)) == hcomp(vcomp(a,a2), vcomp(b,b2))."""
    fs1 = enumerate_functors(DISC2, CHAIN2)
    fs2 = enumerate_functors(CHAIN2, CHAIN3)
    checked = 0
    for f, f2, f3 in itertools.product(fs1, repeat=3):
        for a2 in enumerate_nat_transfs(f, f2):
            for a in enumerate_nat_transfs(f2, f3):
                for g, g2, g3 in itertools.product(fs2, repeat=3):
                    for b2 in enumerate_nat_transfs(g, g2):
                        for b in enumerate_nat_transfs(g2, g3):
                            lhs = vcomp(hcomp(a, b), hcomp(a2, b2))
                            rhs = hcomp(vcomp(a, a2), vcomp(b, b2))
                            assert lhs == rhs
                            checked += 1
    assert checked > 0


def test_whiskering_agrees_with_hcomp_with_identity():
    f = enumerate_functors(CHAIN2, CHAIN2)[1]  # 0->0, 1->1 is the identity; pick any
    for g in enumerate_functors(CHAIN2, CHAIN2):
        for t in enumerate_nat_transfs(f, g):
            h = enumerate_functors(CHAIN2, CHAIN3)[0]
            assert whisker_left(h, t) == hcomp(t, identity_transf(h))
        for t in enumerate_nat_transfs(f, g):
            k = constant_functor(DISC2, CHAIN2, "0")
            assert whisker_right(t, k) == hcomp(identity_transf(k), t)


def test_vcomp_compares_pastings_by_value():
    f = point_functor(WALKING_ISO, "x")
    g = point_functor(WALKING_ISO, "y")
    i = NatTransfData(f, g, {"*": "i"})
    j = NatTransfData(g, f, {"*": "j"})
    round_trip = vcomp(j, i)
    assert round_trip == identity_transf(f)
    assert vcomp(i, identity_transf(f)) == i
    with pytest.raises(BoundaryMismatch):
        vcomp(i, i)


def test_whiskers_evaluate_componentwise():
    f = point_functor(WALKING_ISO, "x")
    g = point_functor(WALKING_ISO, "y")
    i = NatTransfData(f, g, {"*": "i"})
    h = identity_functor(WALKING_ISO)
    left = whisker_left(h, i)
    assert left.components == {"*": "i"}
    assert (left.source, left.target) == (compose_functors(h, f),
                                          compose_functors(h, g))
    const = constant_functor(DISC2, TERMINAL_CATEGORY, "*")
    assert whisker_right(i, const).components == {"a": "i", "b": "i"}


def test_invertibility_helpers():
    f = point_functor(WALKING_ISO, "x")
    g = point_functor(WALKING_ISO, "y")
    i = NatTransfData(f, g, {"*": "i"})
    assert is_invertible_transf(i)
    assert inverse_transf(i).components == {"*": "j"}
    to_x = NatTransfData(point_functor(WALKING_ISO, "0"), f, {"*": "0x"})
    assert not is_invertible_transf(to_x)


def test_functor_validation_catches_non_functor():
    with pytest.raises(ValidationError):
        FunctorData(CHAIN2, CHAIN2, {"0": "1", "1": "0"},
                    {"id_0": "id_1", "id_1": "id_0", "0<1": "id_0"})


def test_nat_transf_validation_catches_non_natural():
    f = identity_functor(CHAIN2)
    g = constant_functor(CHAIN2, CHAIN2, "1")
    # component at 0 must make the square with 0<1 commute; id_1 at 1 and
    # the only choice 0<1 at 0 works, anything else fails boundaries
    ok = NatTransfData(f, g, {"0": "0<1", "1": "id_1"})
    assert ok.components["0"] == "0<1"
    with pytest.raises(ValidationError):
        NatTransfData(f, g, {"0": "id_0", "1": "id_1"})
