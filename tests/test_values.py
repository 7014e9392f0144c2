"""The contract of the immutable value classes.

Objects, 1-cells and W-type trees are set members and memo keys, hashed
over and over.  Each class keeps its fields in slots, caches its hash, and
compares by value: two separately built equal values are equal and hash
alike, and a difference deep inside a value makes it unequal.
"""

import pytest

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
