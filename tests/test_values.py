"""The contract of the immutable value classes.

Objects, 1-cells and W-type trees are set members and memo keys, hashed
over and over.  Each class keeps its fields in slots, caches its hash, and
compares by value: two separately built equal values are equal and hash
alike, and a difference deep inside a value makes it unequal.  The two
order classes validate their order in time near-linear in its pairs.
"""

import random
import time

import pytest

from fixcat.errors import in_fixed_order

from fixcat.laws import ThinCell
from fixcat.poly import WTree
from fixcat.poset import MonotoneMap, PointedPoset
from fixcat.rel import IdealRel, MultisetRel, Preorder, mset


def _pointed_poset(deep):
    # equal elements and bottom; the order differs in one pair
    leq = {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)}
    if deep:
        leq.add((1, 2))
    return PointedPoset((0, 1, 2), leq, 0, name="V")


def _monotone_map(deep):
    # equal assignments; the target differs in one order pair
    two = PointedPoset((0, 1), {(0, 0), (1, 1), (0, 1)}, 0, name="2")
    return MonotoneMap(two, _pointed_poset(deep), {0: 0, 1: 2}, name="f")


def _multiset_rel(deep):
    # equal carriers and outputs; one premise differs in one multiplicity
    premise = mset(["a", "a"]) if deep else mset(["a", "a", "a"])
    return MultisetRel(("a", "b"), ("a", "b"),
                       {(mset([]), "a"), (premise, "b")}, name="r")


def _preorder(deep):
    leq = {("x", "x"), ("y", "y"), ("z", "z"), ("x", "y")}
    if deep:
        leq.add(("y", "z"))
        leq.add(("x", "z"))
    return Preorder(("x", "y", "z"), leq, name="P")


def _ideal_rel(deep):
    # equal pairs; the source preorder differs in its order
    return IdealRel(_preorder(deep), _preorder(False), {((), "x")},
                    name="r")


def _wtree(deep):
    leaf = WTree("leaf")
    twig = WTree("node", ((0, leaf), (1, WTree("stop" if deep else "leaf"))))
    return WTree("node", ((0, leaf), (1, WTree("node", ((0, leaf),
                                                         (1, twig))))))


BUILDERS = {
    "PointedPoset": _pointed_poset,
    "MonotoneMap": _monotone_map,
    "MultisetRel": _multiset_rel,
    "Preorder": _preorder,
    "IdealRel": _ideal_rel,
    "WTree": _wtree,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_value_class_contract(name):
    build = BUILDERS[name]
    a, b, deep = build(False), build(False), build(True)
    assert type(a).__name__ == name
    assert not hasattr(a, "__dict__")
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != deep
    # the hash is kept in the value once computed
    assert "_hash" in type(a).__slots__
    assert a._hash == hash(a)


def test_wtree_hash_and_repr_are_the_dataclass_ones():
    t = _wtree(False)
    assert hash(t) == hash((t.root, t.children))
    assert hash(WTree("leaf")) == hash(("leaf", ()))
    assert repr(WTree("leaf")) == "WTree(root='leaf', children=())"
    assert repr(WTree("node", ((("node", 0), WTree("leaf")),))) == (
        "WTree(root='node', children=((('node', 0), "
        "WTree(root='leaf', children=())),))")


def test_thin_cell_is_slotted_and_keeps_its_repr():
    # a thin corpus holds thousands of cells
    cell = ThinCell(mset(["a"]), mset([]))
    assert not hasattr(cell, "__dict__")
    assert cell == ThinCell(mset(["a"]), mset([]))
    assert hash(cell) == hash(ThinCell(mset(["a"]), mset([])))
    assert repr(ThinCell(1, 2)) == "ThinCell(1 => 2)"
    with pytest.raises(AttributeError):
        cell.source = None


# --- order validation --------------------------------------------------------

def _reference_problems(order, elems, leq):
    """The problems of a PointedPoset or Preorder, found by the plain
    nested loop over every pair of pairs: the reference the classes'
    successor index must agree with, problem for problem and in order."""
    pointed = isinstance(order, PointedPoset)
    problems = []
    carrier = set(order.elements)
    if len(order.elements) != len(carrier):
        problems.append("duplicate elements")
    if pointed and order.bottom not in carrier:
        problems.append("bottom not an element")
    for (x, y) in leq:
        if x not in carrier or y not in carrier:
            problems.append(f"{'relation ' if pointed else ''}pair "
                            f"({x!r},{y!r}) outside carrier")
    for x in elems:
        if (x, x) not in order.leq_pairs:
            problems.append(f"not reflexive at {x!r}")
        if pointed and (order.bottom, x) not in order.leq_pairs:
            problems.append(f"bottom not below {x!r}")
    for (x, y) in leq:
        if pointed and x != y and (y, x) in order.leq_pairs:
            problems.append(f"antisymmetry fails on {x!r},{y!r}")
        for (y2, z) in leq:
            if y2 == y and (x, z) not in order.leq_pairs:
                problems.append(f"transitivity fails on {x!r},{y!r},{z!r}")
    return problems


def _random_order(rng, cls):
    """A random, mostly broken order: a carrier of 0..4 elements, pairs
    over it and two foreign elements, some reflexive pairs dropped, and
    (for a pointed poset) a bottom that may be foreign."""
    elems = rng.sample(range(5), rng.randint(0, 4))
    names = elems + ["x", "y"]
    leq = {(a, b) for a in names for b in names if rng.random() < 0.3}
    leq |= {(a, a) for a in elems if rng.random() < 0.8}
    if cls is PointedPoset:
        return PointedPoset(elems, leq, rng.choice(names), _validate=False)
    return Preorder(elems, leq, _validate=False)


@pytest.mark.parametrize("cls", [PointedPoset, Preorder])
def test_order_validation_matches_the_nested_loop(cls):
    rng = random.Random(0)
    for _ in range(400):
        order = _random_order(rng, cls)
        elems, leq = set(order.elements), order.leq_pairs
        assert order._problems(elems, leq) == _reference_problems(
            order, elems, leq)
        assert order.validate() == in_fixed_order(
            lambda e, l: _reference_problems(order, e, l), elems, leq)


@pytest.mark.parametrize("cls", [PointedPoset, Preorder])
def test_a_160_element_chain_validates_quickly(cls):
    # 12,880 order pairs: the nested loop took over 7 s per build
    n = 160
    leq = [(i, j) for i in range(n) for j in range(i, n)]
    args = (range(n), leq, 0) if cls is PointedPoset else (range(n), leq)
    start = time.perf_counter()
    order = cls(*args)
    assert time.perf_counter() - start < 2
    assert order.validate() == []
