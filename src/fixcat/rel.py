"""Relational models: multiset relations and ideal relations over preorders.

A multiset relation A -|-> B is a finite set of pairs (m, b) where m is a
multiset of inputs needed to produce b.  Composition threads one derivation
per occurrence.  The least fixpoint of an endo-relation is the least set of
elements derivable from nothing, computed either as a closure iteration
(`mrel_star`) or in explicit derivation-tree stages (`tree_star`).

Ideal relations refine this over preorders: a pair (u, b) stands for its
whole downward closure (any input set dominating u produces anything below
b), and relations are kept in normal form with subsumed pairs dropped.
Composition then has to cover-match premises instead of matching them
literally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

from .errors import (SizeCap, TypeMismatch, ValidationError, in_fixed_order,
                     require_valid)
from .errors import sort_key as _skey


def _same_carrier(a, b):
    """Carrier tuples name the same set; equal tuples need no set built."""
    return a == b or set(a) == set(b)


# ---------------------------------------------------------------------------
# Multisets as sorted ((elem, count), ...) tuples.

def mset(items) -> Tuple:
    counts = {}
    for x in items:
        counts[x] = counts.get(x, 0) + 1
    return tuple(sorted(counts.items(), key=lambda ec: _skey(ec[0])))


EMPTY_MSET = mset([])


def mset_union(*msets) -> Tuple:
    counts = {}
    for m in msets:
        for (x, k) in m:
            counts[x] = counts.get(x, 0) + k
    return tuple(sorted(counts.items(), key=lambda ec: _skey(ec[0])))


def mset_support(m) -> frozenset:
    return frozenset(x for (x, _) in m)


def mset_size(m) -> int:
    return sum(k for (_, k) in m)


class MultisetRel:
    """A finite multiset relation between finite carriers.

    Relations are immutable; equality and the (cached) hash ignore the name
    and the order of the carriers.  A carrier has no repeated element, so
    carriers that name the same set have the same size, and the hash
    covers the pairs and both carrier sizes.  An empty relation's pairs
    name no element, so its hash covers both carriers as sets instead:
    empty relations between distinct carriers of one size would all
    collide in a value-keyed table.
    """

    __slots__ = ("source", "target", "pairs", "name", "_hash")

    def __init__(self, source, target, pairs, name="r", _validate=True):
        self.source = tuple(source)
        self.target = tuple(target)
        self.pairs = frozenset(pairs)
        self.name = name
        self._hash = None
        if _validate:
            require_valid(name, self.validate())

    def validate(self):
        return in_fixed_order(self._problems, self.pairs)

    def _problems(self, pairs):
        problems = []
        src, tgt = set(self.source), set(self.target)
        if len(src) != len(self.source):
            problems.append("duplicate source elements")
        if len(tgt) != len(self.target):
            problems.append("duplicate target elements")
        for (m, b) in pairs:
            if b not in tgt:
                problems.append(f"output {b!r} outside target")
            # merged and sorted, every count at least 1; never expanded
            if not (all(isinstance(k, int) and k >= 1 for (_, k) in m)
                    and mset_union(m) == m):
                problems.append(f"premise {m!r} not in canonical form")
            if not mset_support(m) <= src:
                problems.append(f"premise {m!r} outside source")
        return problems

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, MultisetRel):
            return NotImplemented
        return (_same_carrier(self.source, other.source)
                and _same_carrier(self.target, other.target)
                and self.pairs == other.pairs)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.pairs, len(self.source), len(self.target))
                              if self.pairs else
                              (frozenset(self.source), frozenset(self.target)))
        return self._hash

    def __repr__(self):
        return f"MultisetRel({self.name}: {len(self.pairs)} pairs)"


def mrel_identity(carrier) -> MultisetRel:
    return MultisetRel(carrier, carrier, {(mset([a]), a) for a in carrier},
                       name="id", _validate=False)


def mrel_from_function(source, target, fn, name="J") -> MultisetRel:
    """A function as a relation: one singleton premise per input."""
    return MultisetRel(source, target, {(mset([a]), fn(a)) for a in source},
                       name=name)


def mrel_rename(f: MultisetRel, names) -> MultisetRel:
    """f with every element x its pairs name renamed names[x].  With names
    a permutation of each carrier, the carriers stay as they are: this is
    f conjugated by that relabelling."""
    return MultisetRel(
        f.source, f.target,
        {(tuple(sorted(((names[x], k) for (x, k) in m),
                       key=lambda ec: _skey(ec[0]))), names[b])
         for (m, b) in f.pairs},
        name=f.name, _validate=False)


# The most f-premises one composite may read off its expanded choices:
# each g-premise with k occurrences of b picks a multiset of k among b's
# f-premises, C(|cands|+k-1, k) ways, and each choice holds sum(k) of them.
MAX_COMPOSE_PREMISES = 1_000_000


def mrel_compose(g: MultisetRel, f: MultisetRel) -> MultisetRel:
    """g after f: one f-derivation per occurrence in each g-premise.

    A premise with no occurrence, or with a single one, needs no union: the
    f-premises are canonical already, so each is its own composite premise.
    Every other premise's choices are counted before they are expanded, and
    SizeCap is raised once they would hold more than MAX_COMPOSE_PREMISES
    premises in all.
    """
    if not _same_carrier(f.target, g.source):
        raise TypeMismatch("relation boundaries do not match")
    by_target = {}
    for (m, b) in f.pairs:
        by_target.setdefault(b, []).append(m)
    out = set()
    budget = MAX_COMPOSE_PREMISES
    for (n, c) in g.pairs:
        if not n:
            out.add((EMPTY_MSET, c))
            continue
        if len(n) == 1 and n[0][1] == 1:
            out.update((m, c) for m in by_target.get(n[0][0], ()))
            continue
        slots = [(by_target.get(b), k) for (b, k) in n]
        if not all(cands for cands, _ in slots):
            continue
        budget -= mset_size(n) * math.prod(
            math.comb(len(cands) + k - 1, k) for cands, k in slots)
        if budget < 0:
            raise SizeCap(f"{g.name}.{f.name}: composite premises over the "
                          f"bound of {MAX_COMPOSE_PREMISES} "
                          f"(rel.MAX_COMPOSE_PREMISES)")
        for choice in itertools.product(
                *(itertools.combinations_with_replacement(cands, k)
                  for cands, k in slots)):
            ms = [m for group in choice for m in group]
            out.add((mset_union(*ms), c))
    return MultisetRel(f.source, g.target, out, name=f"{g.name}.{f.name}",
                       _validate=False)


EMPTY_CARRIER = ()


def mrel_star(f: MultisetRel) -> MultisetRel:
    """Least fixpoint of an endo-relation, as a relation out of the empty carrier.

    Iterates the one-step derivability operator from the empty set; the
    result is the least S with S = {b : some (m, b) in f has support inside S}.
    Each element the pairs name gets a bit for this call, inside the
    carrier or not, so a premise's support is read once, into an int mask.
    """
    if not _same_carrier(f.source, f.target):
        raise TypeMismatch("mrel_star needs an endo-relation")
    bit = {}
    rules = []
    for (m, b) in f.pairs:
        need = 0
        for (x, _) in m:
            need |= bit.setdefault(x, 1 << len(bit))
        rules.append((need, bit.setdefault(b, 1 << len(bit))))
    s = 0
    for _ in range(len(f.target) + 1):
        nxt = 0
        for (need, out) in rules:
            if need & s == need:
                nxt |= out
        if nxt == s:
            break
        s = nxt
    return MultisetRel(EMPTY_CARRIER, f.target,
                       {(EMPTY_MSET, b) for b, i in bit.items() if i & s},
                       name=f"{f.name}*", _validate=False)


@dataclass
class TreeStar:
    """Derivation-tree stages: stages[d] holds the roots of trees of height <= d+1."""

    stages: list
    stabilized: bool

    @property
    def final(self) -> frozenset:
        return self.stages[-1]


def tree_star(f: MultisetRel, depth: int) -> TreeStar:
    """Stage d+1 derives b when some pair (m, b) has all its support at stage d."""
    if not _same_carrier(f.source, f.target):
        raise TypeMismatch("tree_star needs an endo-relation")
    supports = [(mset_support(m), b) for (m, b) in f.pairs]
    stages = [frozenset(b for (u, b) in supports if not u)]
    for _ in range(depth + 1):
        prev = stages[-1]
        stages.append(frozenset(b for (u, b) in supports if u <= prev))
    return TreeStar(stages, stabilized=stages[-1] == stages[-2])


# Disjoint unions play the role of products: a derivation into a tagged
# union is exactly a pair of derivations, one per tag.

def tag_left(x):
    return ("inl", x)


def tag_right(x):
    return ("inr", x)


def disjoint_union(a_carrier, b_carrier):
    return tuple(tag_left(a) for a in a_carrier) + tuple(tag_right(b) for b in b_carrier)


def mrel_proj1(a_carrier, b_carrier) -> MultisetRel:
    u = disjoint_union(a_carrier, b_carrier)
    return MultisetRel(u, a_carrier, {(mset([tag_left(a)]), a) for a in a_carrier},
                       name="pi1", _validate=False)


def mrel_proj2(a_carrier, b_carrier) -> MultisetRel:
    u = disjoint_union(a_carrier, b_carrier)
    return MultisetRel(u, b_carrier, {(mset([tag_right(b)]), b) for b in b_carrier},
                       name="pi2", _validate=False)


def mrel_pairing(f: MultisetRel, g: MultisetRel) -> MultisetRel:
    if set(f.source) != set(g.source):
        raise TypeMismatch("pairing needs a common source")
    pairs = {(m, tag_left(a)) for (m, a) in f.pairs} | \
            {(m, tag_right(b)) for (m, b) in g.pairs}
    return MultisetRel(f.source, disjoint_union(f.target, g.target), pairs,
                       name=f"<{f.name},{g.name}>", _validate=False)


# ---------------------------------------------------------------------------
# Preorders and ideal relations.

class Preorder:
    """A finite preorder: reflexive and transitive, no antisymmetry required.

    Preorders are immutable; equality and the (cached) hash ignore the name.
    Its bit index (`_Index`) is built on first use.
    """

    __slots__ = ("name", "elements", "leq_pairs", "_hash", "_index")

    def __init__(self, elements, leq, name="P", _validate=True):
        self.name = name
        self.elements = tuple(elements)
        self.leq_pairs = frozenset(leq)
        self._hash = None
        self._index = None
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
        for (x, y) in leq:
            if x not in carrier or y not in carrier:
                problems.append(f"pair ({x!r},{y!r}) outside carrier")
        for x in elems:
            if (x, x) not in self.leq_pairs:
                problems.append(f"not reflexive at {x!r}")
        succ = {}               # y -> the z of each (y, z) in leq, in order
        for (y, z) in leq:
            succ.setdefault(y, []).append(z)
        for (x, y) in leq:
            for z in succ.get(y, ()):
                if (x, z) not in self.leq_pairs:
                    problems.append(f"transitivity fails on {x!r},{y!r},{z!r}")
        return problems

    def leq(self, x, y) -> bool:
        return (x, y) in self.leq_pairs

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Preorder):
            return NotImplemented
        return (set(self.elements) == set(other.elements)
                and self.leq_pairs == other.leq_pairs)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.elements), self.leq_pairs))
        return self._hash

    def __repr__(self):
        return f"Preorder({self.name}: {len(self.elements)} elements)"


def discrete_preorder(elements, name="disc") -> Preorder:
    return Preorder(elements, {(x, x) for x in elements}, name=name,
                    _validate=False)


EMPTY_PREORDER = Preorder((), set(), name="0", _validate=False)


def uset(items) -> Tuple:
    """Canonical form for a finite input set: sorted, deduplicated tuple."""
    return tuple(sorted(set(items), key=_skey))


class _Index:
    """A preorder read into bits once: bit i stands for `order[i]`, the
    i-th element in `_skey` order.  `down` maps each element to the mask of
    its down-set, so x is below y exactly when x's mask lies inside y's,
    and `rep` to its class representative, the lowest bit of its class.
    `above[i]` masks the elements strictly above bit i, and `reps` the
    representatives.  A foreign element has no bit: it is below nothing,
    not even itself."""

    __slots__ = ("order", "down", "rep", "above", "reps")

    def __init__(self, pre: Preorder):
        order = self.order = tuple(sorted(set(pre.elements), key=_skey))
        bit = {x: 1 << i for i, x in enumerate(order)}
        down = self.down = dict.fromkeys(order, 0)
        up = dict.fromkeys(order, 0)
        for (x, y) in pre.leq_pairs:
            if x in bit and y in bit:
                down[y] |= bit[x]
                up[x] |= bit[y]
        self.rep, self.above, self.reps = {}, [], 0
        for x in order:
            cls = down[x] & up[x] | bit[x]
            low = cls & -cls
            self.rep[x] = order[low.bit_length() - 1]
            self.above.append(up[x] & ~cls)
            self.reps |= low


def _index(pre: Preorder) -> _Index:
    idx = pre._index
    if idx is None:
        idx = pre._index = _Index(pre)
    return idx


def _need(down, u) -> int:
    """The down-closure of u as a mask, or -1, a superset of every mask,
    when u holds a foreign element, which nothing dominates."""
    out = 0
    for x in u:
        d = down.get(x)
        if d is None:
            return -1
        out |= d
    return out


def _have(down, v) -> int:
    """The down-closure of v as a mask; a foreign element adds nothing."""
    out = 0
    for y in v:
        out |= down.get(y, 0)
    return out


def hoare_leq(pre: Preorder, u, v) -> bool:
    """u below v when every element of u is dominated by one of v."""
    down = _index(pre).down
    need = _need(down, u)
    return need & _have(down, v) == need


def _subsumes(src: Preorder, tgt: Preorder, p, q) -> bool:
    """p subsumes q: p needs less input and promises more output."""
    (u0, b0), (u, b) = p, q
    return hoare_leq(src, u0, u) and tgt.leq(b, b0)


def _class_rep(pre: Preorder, x):
    """Least-keyed member of x's equivalence class, or x itself if foreign."""
    return _index(pre).rep.get(x, x)


def _canon(idx: _Index, u):
    """u's canonical form, with the need and have masks of u (`_need`,
    `_have`), which are those of its canonical form too."""
    have = 0
    foreign = []
    down = idx.down
    for x in u:
        d = down.get(x)
        if d is None:
            foreign.append(x)
        else:
            have |= d
    # the representatives of the maximal classes inside have, in bit order
    out = []
    above, order = idx.above, idx.order
    reps = have & idx.reps
    while reps:
        low = reps & -reps
        i = low.bit_length() - 1
        if not above[i] & have:
            out.append(order[i])
        reps ^= low
    if foreign:
        return uset(out + foreign), -1, have
    return tuple(out), have, have


def canon_uset(pre: Preorder, u) -> Tuple:
    """Canonical representative of u's Hoare-equivalence class.

    Dominated elements add nothing to the requirement, so only the maximal
    ones survive, each replaced by its class representative.  Two input
    sets are Hoare-equivalent exactly when they canonicalize identically.
    u may be unsorted and hold duplicates; a foreign element is kept.
    """
    return _canon(_index(pre), u)[0]


def _undominated(rows) -> frozenset:
    """The pairs no other pair subsumes; mutually subsuming pairs keep only
    their least member under the canonical sort key.

    `rows` holds each pair (u, b) with the need and have masks of u in
    the source and of b in the target: q = (u', b') subsumes p = (u, b)
    when u' lies below u and b below b'."""
    keep = []
    for (p, (un, uh, bn, bh)) in rows:
        for (q, (qun, quh, qbn, qbh)) in rows:
            if q is p or qun & uh != qun or bn & qbh != bn:
                continue            # q does not subsume p
            if un & quh != un or qbn & bh != qbn or _skey(q) < _skey(p):
                break
        else:
            keep.append(p)
    return frozenset(keep)


def normalize_pairs(src: Preorder, tgt: Preorder, pairs) -> frozenset:
    """Drop subsumed pairs; mutually subsuming classes keep their least
    representative under the canonical sort key.  Each pair is read into
    masks once."""
    sdown, tdown = _index(src).down, _index(tgt).down
    rows = {p: (_need(sdown, p[0]), _have(sdown, p[0]),
                tdown.get(p[1], -1), tdown.get(p[1], 0)) for p in pairs}
    return _undominated(rows.items())


class IdealRel:
    """A normalized relation between preorders.

    Pairs (u, b) with u a canonical input set and b an output; each pair
    stands for every (u', b') with u below-dominating u' and b' below b.
    Construction normalizes, so structural equality is semantic equality.
    Relations are immutable; the hash matches equality and is cached.
    Validation checks every pair given, before normalization drops any.
    """

    __slots__ = ("source", "target", "pairs", "name", "_hash")

    def __init__(self, source: Preorder, target: Preorder, pairs, name="r",
                 _validate=True):
        self.source = source
        self.target = target
        sidx, tidx = _index(source), _index(target)
        tdown, trep = tidx.down, tidx.rep
        rows = {}
        for (u, b) in pairs:
            cu, need, have = _canon(sidx, u)
            d = tdown.get(b)
            if d is None:
                rows[cu, b] = (need, have, -1, 0)
            else:
                rows[cu, trep[b]] = (need, have, d, d)
        self.pairs = _undominated(rows.items())
        self.name = name
        self._hash = None
        if _validate:
            require_valid(name, in_fixed_order(self._problems, rows))

    def _problems(self, pairs):
        problems = []
        src, tgt = set(self.source.elements), set(self.target.elements)
        for (u, b) in pairs:
            if b not in tgt:
                problems.append(f"output {b!r} outside target")
            if not set(u) <= src:
                problems.append(f"input set {u!r} outside source")
        return problems

    def holds(self, u, b) -> bool:
        """Membership in the denoted (downward closed) relation."""
        u = uset(u)
        return any(_subsumes(self.source, self.target, p, (u, b))
                   for p in self.pairs)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, IdealRel):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.pairs == other.pairs)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source, self.target, self.pairs))
        return self._hash

    def __repr__(self):
        return f"IdealRel({self.name}: {len(self.pairs)} pairs)"


def scott_identity(pre: Preorder) -> IdealRel:
    return IdealRel(pre, pre, {((a,), a) for a in pre.elements}, name="id",
                    _validate=False)


def scott_from_function(source: Preorder, target: Preorder, fn, name="J") -> IdealRel:
    rel = IdealRel(source, target, {((a,), fn(a)) for a in source.elements},
                   name=name)
    broken = in_fixed_order(
        lambda leq: [(x, y) for (x, y) in leq if not target.leq(fn(x), fn(y))],
        source.leq_pairs)
    if broken:
        x, y = broken[0]
        raise ValidationError(f"{name}: function not monotone on {x!r} <= {y!r}")
    return rel


def scott_compose(g: IdealRel, f: IdealRel) -> IdealRel:
    """g after f on normal forms.

    Premises of g are cover-matched: an occurrence b can be served by any
    f-pair promising at least b.  Literal matching would be wrong here
    because normalization may have dropped the exactly-matching pair.
    Each premise union goes to `IdealRel` as it is, unsorted.
    """
    if f.target != g.source:
        raise TypeMismatch("relation boundaries do not match")
    mid = f.target
    out = set()
    for (v, c) in g.pairs:
        slots = []
        for b in v:
            cands = [u0 for (u0, b0) in f.pairs if mid.leq(b, b0)]
            if not cands:
                break
            slots.append(cands)
        if len(slots) < len(v):
            continue                # an occurrence no f-pair serves
        if len(slots) == 1:
            out.update((u0, c) for u0 in slots[0])  # no union to take
            continue
        for choice in itertools.product(*slots):
            out.add((tuple(x for u0 in choice for x in u0), c))
    return IdealRel(f.source, g.target, out, name=f"{g.name}.{f.name}",
                    _validate=False)


def scott_star_set(f: IdealRel) -> frozenset:
    """The least downward closed X with X = everything producible from X.

    Down-closure is built into the step, so the premise test u subset-of X
    is equivalent to cover-matching against X.
    """
    if f.source != f.target:
        raise TypeMismatch("scott_star needs an endo-relation")
    pre = f.source
    down = _index(pre).down
    rules = [(_need(down, u), down.get(b0, 0)) for (u, b0) in f.pairs]
    x = 0
    for _ in range(len(pre.elements) + 1):
        nxt = 0
        for (need, below) in rules:
            if need & x == need:
                nxt |= below
        if nxt == x:
            break
        x = nxt
    return frozenset(e for e, d in down.items() if d & x == d)


def scott_star(f: IdealRel) -> IdealRel:
    return IdealRel(EMPTY_PREORDER, f.target,
                    {((), b) for b in scott_star_set(f)},
                    name=f"{f.name}*", _validate=False)


def preorder_disjoint_union(a: Preorder, b: Preorder) -> Preorder:
    elems = tuple(tag_left(x) for x in a.elements) + \
        tuple(tag_right(y) for y in b.elements)
    leq = {(tag_left(x), tag_left(y)) for (x, y) in a.leq_pairs} | \
          {(tag_right(x), tag_right(y)) for (x, y) in b.leq_pairs}
    return Preorder(elems, leq, name=f"{a.name}+{b.name}", _validate=False)


def scott_proj1(a: Preorder, b: Preorder) -> IdealRel:
    u = preorder_disjoint_union(a, b)
    return IdealRel(u, a, {((tag_left(x),), x) for x in a.elements},
                    name="pi1", _validate=False)


def scott_proj2(a: Preorder, b: Preorder) -> IdealRel:
    u = preorder_disjoint_union(a, b)
    return IdealRel(u, b, {((tag_right(y),), y) for y in b.elements},
                    name="pi2", _validate=False)


def scott_pairing(f: IdealRel, g: IdealRel) -> IdealRel:
    if f.source != g.source:
        raise TypeMismatch("pairing needs a common source")
    pairs = {(u, tag_left(a)) for (u, a) in f.pairs} | \
            {(u, tag_right(b)) for (u, b) in g.pairs}
    return IdealRel(f.source, preorder_disjoint_union(f.target, g.target),
                    pairs, name=f"<{f.name},{g.name}>", _validate=False)

