"""Finite pointed posets, monotone maps, and least-fixpoint machinery.

Endomaps get their least fixpoint two independent ways: iteration from
bottom (`kleene_star`), and the least prefixpoint read off the order
(`bifree_star`), which is the value at the top point of the canonical
map out of the successor chain-with-top.  Binary products and their
pairing serve the product route to dinaturality, which builds the
symmetry as the pairing of swapped projections.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (TypeMismatch, ValidationError, in_fixed_order,
                     require_valid)


class PointedPoset:
    """A finite poset with a designated least element.

    Elements are arbitrary hashable values (strings in documents, tuples
    for internally built carriers).  `leq` is stored as a set of pairs and
    must be reflexive, antisymmetric, transitive, with bottom below all.
    Posets are immutable; equality and the (cached) hash ignore the name.
    """

    __slots__ = ("name", "elements", "leq_pairs", "bottom", "_hash")

    def __init__(self, elements, leq, bottom, name="P", _validate=True):
        self.name = name
        self.elements = tuple(elements)
        self.leq_pairs = frozenset(leq)
        self.bottom = bottom
        self._hash = None
        if _validate:
            require_valid(name, self.validate())

    def validate(self):
        return in_fixed_order(self._problems, set(self.elements),
                              self.leq_pairs)

    def _problems(self, elems, leq):
        problems = []
        carrier = set(self.elements)
        if len(self.elements) != len(carrier):
            problems.append("duplicate elements")
        if self.bottom not in carrier:
            problems.append("bottom not an element")
        for (x, y) in leq:
            if x not in carrier or y not in carrier:
                problems.append(f"relation pair ({x!r},{y!r}) outside carrier")
        for x in elems:
            if (x, x) not in self.leq_pairs:
                problems.append(f"not reflexive at {x!r}")
            if (self.bottom, x) not in self.leq_pairs:
                problems.append(f"bottom not below {x!r}")
        succ = {}               # y -> the z of each (y, z) in leq, in order
        for (y, z) in leq:
            succ.setdefault(y, []).append(z)
        for (x, y) in leq:
            if x != y and (y, x) in self.leq_pairs:
                problems.append(f"antisymmetry fails on {x!r},{y!r}")
            for z in succ.get(y, ()):
                if (x, z) not in self.leq_pairs:
                    problems.append(f"transitivity fails on {x!r},{y!r},{z!r}")
        return problems

    def leq(self, x, y) -> bool:
        return (x, y) in self.leq_pairs

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PointedPoset):
            return NotImplemented
        return (set(self.elements) == set(other.elements)
                and self.leq_pairs == other.leq_pairs
                and self.bottom == other.bottom)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.elements), self.leq_pairs,
                               self.bottom))
        return self._hash

    def __repr__(self):
        return f"PointedPoset({self.name}: {len(self.elements)} elements)"


class MonotoneMap:
    """A monotone map between pointed posets.

    Equality compares boundaries and the assignment only; strictness is
    `is_bottom_preserving`.  Maps are immutable; the hash matches equality
    and is cached.
    """

    __slots__ = ("source", "target", "assignment", "name", "_hash")

    def __init__(self, source: PointedPoset, target: PointedPoset, assignment,
                 name="f", _validate=True):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        self.name = name
        self._hash = None
        if _validate:
            require_valid(name, self.validate())

    def validate(self):
        return in_fixed_order(self._problems, self.source.leq_pairs)

    def _problems(self, leq):
        problems = []
        for x in self.source.elements:
            if x not in self.assignment:
                problems.append(f"no image for {x!r}")
            elif self.assignment[x] not in set(self.target.elements):
                problems.append(f"image of {x!r} outside target")
        if problems:
            return problems
        for (x, y) in leq:
            if not self.target.leq(self.assignment[x], self.assignment[y]):
                problems.append(f"not monotone on {x!r} <= {y!r}")
        return problems

    def __call__(self, x):
        return self.assignment[x]

    def is_bottom_preserving(self) -> bool:
        return self.assignment[self.source.bottom] == self.target.bottom

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, MonotoneMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.assignment == other.assignment)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source, self.target,
                               frozenset(self.assignment.items())))
        return self._hash

    def __repr__(self):
        return f"MonotoneMap({self.name}: {self.source.name}->{self.target.name})"


def identity_map(p: PointedPoset) -> MonotoneMap:
    return MonotoneMap(p, p, {x: x for x in p.elements}, name=f"id_{p.name}")


def compose_maps(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """g after f."""
    if f.target != g.source:
        raise TypeMismatch("map boundaries do not match")
    return MonotoneMap(f.source, g.target,
                       {x: g.assignment[f.assignment[x]] for x in f.source.elements},
                       name=f"{g.name}.{f.name}", _validate=False)


ONE_POINT = PointedPoset(["*"], [("*", "*")], "*", name="1")


def point_map(p: PointedPoset, x) -> MonotoneMap:
    """The map from the one-point poset picking out x."""
    return MonotoneMap(ONE_POINT, p, {"*": x}, name=f"pt_{x!r}")


# ---------------------------------------------------------------------------
# Fixpoints.

def kleene_star(f: MonotoneMap):
    """Least fixpoint of an endomap by iteration from bottom."""
    if f.source != f.target:
        raise TypeMismatch("kleene_star needs an endomap")
    return iterates(f)[-1]


def iterates(f: MonotoneMap):
    """The orbit bottom, f(bottom), ... up to and including stabilization."""
    x = f.source.bottom
    orbit = [x]
    for _ in range(len(f.source.elements) + 1):
        nxt = f.assignment[x]
        if nxt == x:
            return orbit
        orbit.append(nxt)
        x = nxt
    raise ValidationError("iteration failed to stabilize; map is not monotone?")


def bifree_star(f: MonotoneMap):
    """Least fixpoint as the least prefixpoint, the least x with f(x) <= x.

    It is the value at the top of the map out of the chain-with-top: a
    fixpoint, since the successor fixes top, and below every prefixpoint x,
    since each f^n(bottom) <= x.
    """
    if f.source != f.target:
        raise TypeMismatch("bifree_star needs an endomap")
    p, image = f.source, f.assignment
    pre = [x for x in p.elements if p.leq(image[x], x)]
    for x in pre:
        if all(p.leq(x, y) for y in pre):
            return x
    raise ValidationError("no least prefixpoint; map is not monotone?")


# ---------------------------------------------------------------------------
# Binary products.

@dataclass
class PosetProduct:
    poset: PointedPoset
    left: PointedPoset
    right: PointedPoset
    proj1: MonotoneMap
    proj2: MonotoneMap

    def pair(self, f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
        """The unique map with proj1 . pair = f and proj2 . pair = g."""
        if f.source != g.source:
            raise TypeMismatch("pairing needs a common source")
        if f.target != self.left or g.target != self.right:
            raise TypeMismatch("pairing legs must land in the factors")
        return MonotoneMap(
            f.source, self.poset,
            {x: (f.assignment[x], g.assignment[x]) for x in f.source.elements},
            name=f"<{f.name},{g.name}>", _validate=False)


def product(p: PointedPoset, q: PointedPoset) -> PosetProduct:
    """Componentwise-ordered pairs; projections are strict."""
    elems = [(a, b) for a in p.elements for b in q.elements]
    leq = {((a, b), (c, d)) for (a, b) in elems for (c, d) in elems
           if p.leq(a, c) and q.leq(b, d)}
    poset = PointedPoset(elems, leq, (p.bottom, q.bottom),
                         name=f"{p.name}x{q.name}", _validate=False)
    pi1 = MonotoneMap(poset, p, {(a, b): a for (a, b) in elems}, name="pi1",
                      _validate=False)
    pi2 = MonotoneMap(poset, q, {(a, b): b for (a, b) in elems}, name="pi2",
                      _validate=False)
    return PosetProduct(poset, p, q, pi1, pi2)

