"""Tests for the finite-category core: tables, functors, 2-cell calculus."""

from __future__ import annotations

import itertools

import pytest

from fixcat.cat import (
    Arrow, FinCategory, FunctorData, NatTransfData,
    compose_functors, constant_functor, enumerate_functors,
    enumerate_nat_transfs, identity_functor, identity_transf,
    inverse_transf, is_invertible_transf, point_functor, thin_category,
    validate_category, vcomp, whisker_left, whisker_right, TERMINAL_CATEGORY,
)
from fixcat.corpora import THREE, TWO, WALK
from fixcat.errors import BoundaryMismatch, SizeCap, TypeMismatch, ValidationError
from fixcat.models import CatModel

# the horizontal composite: whisker-then-stack, as every adapter has it
hcomp2 = CatModel().hcomp2


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


DISC2 = thin_category("disc2", ["a", "b"])
DISC3 = thin_category("disc3", ["p", "q", "r"])


def chain(n):
    """The thin category of the n-element total order."""
    xs = [str(i) for i in range(n)]
    return thin_category(f"chain{n}", xs,
                         [(x, y) for x in xs for y in xs if x < y])


def test_validate_accepts_well_formed_categories():
    for c in [TWO, THREE, DISC2, DISC3, WALK, TERMINAL_CATEGORY]:
        assert validate_category(c) == []


def test_thin_category_rejects_a_pair_with_a_foreign_element():
    with pytest.raises(ValidationError,
                       match=r"pair \('0', '1'\) names 1, which is not an element"):
        thin_category("x", ["0"], [("0", "1")])


def test_thin_category_rejects_a_non_transitive_relation():
    with pytest.raises(ValidationError, match="not transitive at 0,2"):
        thin_category("bad", ["0", "1", "2"], [("0", "1"), ("1", "2")])


def test_validate_reports_corrupted_composition_table():
    broken = dict(THREE.table)
    broken[("1to2", "0to1")] = "id_0"  # wrong boundary
    c = FinCategory(THREE.objects, THREE.arrows.values(), THREE.identity,
                    broken, name="bad", _validate=False)
    problems = validate_category(c)
    assert problems
    assert any("0to1" in p for p in problems)


def test_validate_reports_missing_composite():
    broken = dict(THREE.table)
    del broken[("1to2", "0to1")]
    c = FinCategory(THREE.objects, THREE.arrows.values(), THREE.identity,
                    broken, name="bad2", _validate=False)
    assert any("missing" in p for p in validate_category(c))


def test_validate_reports_table_entry_on_unknown_arrows():
    broken = dict(THREE.table)
    broken[("0to1", "nowhere")] = "0to1"
    c = FinCategory(THREE.objects, THREE.arrows.values(), THREE.identity,
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
    assert THREE.compose("1to2", "0to1") == "0to2"
    assert THREE.compose("id_1", "0to1") == "0to1"
    assert THREE.compose("0to1", "id_0") == "0to1"
    with pytest.raises(TypeMismatch):
        THREE.compose("0to1", "1to2")


def test_inverse_search():
    assert WALK.inverse("i") == "j"
    assert WALK.inverse("0x") is None
    assert WALK.is_iso("id_x")


def test_initial_objects():
    assert THREE.initial_objects() == ["0"]
    assert WALK.initial_objects() == ["0"]
    assert DISC2.initial_objects() == []


def test_enumerate_functors_discrete_counts():
    # maps of 2 objects into 3 objects, no arrow constraints: 3^2 = 9
    assert len(enumerate_functors(DISC2, DISC3)) == 9


def test_enumerate_functors_respects_composition():
    fs = enumerate_functors(TWO, TWO)
    # monotone endomaps of the 2-chain: 00, 01, 11
    assert len(fs) == 3
    for f in fs:
        for (g, h), comp in TWO.table.items():
            assert TWO.table[(f.amap[g], f.amap[h])] == f.amap[comp]


def test_enumerate_functors_size_cap(monkeypatch):
    # at the default bounds: 6x6 objects, and a 5-chain's 15 arrows
    with pytest.raises(SizeCap, match="over the bound of 5x5"):
        enumerate_functors(chain(6), chain(6))
    with pytest.raises(SizeCap, match=r"arrow count 15 over the bound of 12 "
                                      r"\(cat.MAX_ARROWS\)"):
        enumerate_functors(chain(5), TWO)
    # the bound is read at call time
    monkeypatch.setattr("fixcat.cat.MAX_OBJECTS", 2)
    with pytest.raises(SizeCap) as exc:
        enumerate_functors(DISC2, DISC3)
    assert str(exc.value) == ("disc2 -> disc3: object count product 2x3 over "
                              "the bound of 2x2 (cat.MAX_OBJECTS)")


def test_enumerate_nat_transfs_size_cap(monkeypatch):
    f = identity_functor(DISC3)
    monkeypatch.setattr("fixcat.cat.MAX_ARROWS", 2)
    with pytest.raises(SizeCap) as exc:
        enumerate_nat_transfs(f, f)
    assert str(exc.value) == ("disc3 -> disc3: arrow count 3 over the bound "
                              "of 2 (cat.MAX_ARROWS)")


def test_enumerate_nat_transfs_forced_components():
    f = constant_functor(DISC2, TWO, "0")
    g = constant_functor(DISC2, TWO, "0")
    assert len(enumerate_nat_transfs(f, g)) == 1
    h = constant_functor(DISC2, TWO, "1")
    assert len(enumerate_nat_transfs(f, h)) == 1
    assert enumerate_nat_transfs(h, f) == []


def test_enumerate_nat_transfs_matches_brute_force_oracle():
    pairs = []
    for c, d in [(DISC2, TWO), (TWO, THREE), (TWO, WALK)]:
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
    fs = enumerate_functors(TWO, THREE)
    for f in fs:
        for g in fs:
            for t in enumerate_nat_transfs(f, g):
                assert vcomp(t, identity_transf(f)) == t
                assert vcomp(identity_transf(g), t) == t


def test_hcomp_of_identities_is_identity_of_composite():
    f = constant_functor(DISC2, TWO, "0")       # DISC2 -> TWO
    g = enumerate_functors(TWO, THREE)[0]      # TWO -> THREE
    assert hcomp2(identity_transf(f), identity_transf(g)) == \
        identity_transf(compose_functors(g, f))


def test_interchange_law():
    """vcomp(hcomp2(a,b), hcomp2(a2,b2)) == hcomp2(vcomp(a,a2), vcomp(b,b2))."""
    fs1 = enumerate_functors(DISC2, TWO)
    fs2 = enumerate_functors(TWO, THREE)
    checked = 0
    for f, f2, f3 in itertools.product(fs1, repeat=3):
        for a2 in enumerate_nat_transfs(f, f2):
            for a in enumerate_nat_transfs(f2, f3):
                for g, g2, g3 in itertools.product(fs2, repeat=3):
                    for b2 in enumerate_nat_transfs(g, g2):
                        for b in enumerate_nat_transfs(g2, g3):
                            lhs = vcomp(hcomp2(a, b), hcomp2(a2, b2))
                            rhs = hcomp2(vcomp(a, a2), vcomp(b, b2))
                            assert lhs == rhs
                            checked += 1
    assert checked > 0


def test_whiskering_agrees_with_hcomp_with_identity():
    f = enumerate_functors(TWO, TWO)[1]  # 0->0, 1->1 is the identity; pick any
    for g in enumerate_functors(TWO, TWO):
        for t in enumerate_nat_transfs(f, g):
            h = enumerate_functors(TWO, THREE)[0]
            assert whisker_left(h, t) == hcomp2(t, identity_transf(h))
        for t in enumerate_nat_transfs(f, g):
            k = constant_functor(DISC2, TWO, "0")
            assert whisker_right(t, k) == hcomp2(identity_transf(k), t)


def test_vcomp_compares_pastings_by_value():
    f = point_functor(WALK, "x")
    g = point_functor(WALK, "y")
    i = NatTransfData(f, g, {"*": "i"})
    j = NatTransfData(g, f, {"*": "j"})
    round_trip = vcomp(j, i)
    assert round_trip == identity_transf(f)
    assert vcomp(i, identity_transf(f)) == i
    with pytest.raises(BoundaryMismatch):
        vcomp(i, i)


def test_whiskers_evaluate_componentwise():
    f = point_functor(WALK, "x")
    g = point_functor(WALK, "y")
    i = NatTransfData(f, g, {"*": "i"})
    h = identity_functor(WALK)
    left = whisker_left(h, i)
    assert left.components == {"*": "i"}
    assert (left.source, left.target) == (compose_functors(h, f),
                                          compose_functors(h, g))
    const = constant_functor(DISC2, TERMINAL_CATEGORY, "*")
    assert whisker_right(i, const).components == {"a": "i", "b": "i"}


def test_invertibility_helpers():
    f = point_functor(WALK, "x")
    g = point_functor(WALK, "y")
    i = NatTransfData(f, g, {"*": "i"})
    assert is_invertible_transf(i)
    assert inverse_transf(i).components == {"*": "j"}
    to_x = NatTransfData(point_functor(WALK, "0"), f, {"*": "0x"})
    assert not is_invertible_transf(to_x)


def test_functor_validation_catches_non_functor():
    with pytest.raises(ValidationError):
        FunctorData(TWO, TWO, {"0": "1", "1": "0"},
                    {"id_0": "id_1", "id_1": "id_0", "0to1": "id_0"})


def test_nat_transf_validation_catches_non_natural():
    f = identity_functor(TWO)
    g = constant_functor(TWO, TWO, "1")
    # component at 0 must make the square with 0to1 commute; id_1 at 1 and
    # the only choice 0to1 at 0 works, anything else fails boundaries
    ok = NatTransfData(f, g, {"0": "0to1", "1": "id_1"})
    assert ok.components["0"] == "0to1"
    with pytest.raises(ValidationError):
        NatTransfData(f, g, {"0": "id_0", "1": "id_1"})
