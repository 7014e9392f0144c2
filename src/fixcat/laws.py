"""Model-generic fixpoint-operator contract and the law-checking engine.

A model adapter packages one ambient setting (pointed posets, multiset
relations, ideal relations over preorders, finite categories) behind a
single interface: 1-cells with identities and composition, 2-cells with
vertical composition and whiskering, a star operation sending endo 1-cells
to points One -> A, and three structural witness families:

    fix(f)         : f . f*   =>  f*
    dinat(f, g)    : (fg)*    =>  f . (gf)*
    unif(s,f,g,y)  : s . f*   =>  g*      given  y : s . f => g . s, s strict

Laws are data: each is declared once, in `FIX_LAWS`, `DINAT_LAWS` and
`UNIF_LAWS`, as functions of the adapter and one instance, and no law is
derived from another.  `run_laws` is their one runner, instance-major:
each corpus instance is evaluated once for every law that reads its
channel.  Memoized adapter methods, composites, stars and the cat
adapter's chains alike, read one table, `_memo`, and only `run_laws`
opens it: one table per channel walk, which every evaluation of an
instance in the walk reads, by the recorded program or law by law, so
each distinct composite and star of the walk is computed once.  The
program is compiled once per channel: its steps of memoized methods do
`memoized`'s lookup inline, in that table and under the same key, and
an eq1 test of two slots that are both the table's objects is an
identity test.
Every table keeps one object per value: a leaf the program enters, or a
star or composite equal to a value the table holds already (f.f* and f*
where fix holds, id.f and f), is that value's object, so equal values
share one object for the table's life.  An unhashable result, such as
the cat adapter's chain, cannot be looked up by value and is kept as
computed.

Thin adapters present a 2-cell as a ThinCell: the bare claim that its two
boundary 1-cells are equal.  Pasting then only composes boundaries, and
each law degenerates to the chain of 1-cell equalities it means in a
locally discrete setting.  The claim is tested when a cell is consumed
(cell_ok / eq2), not at construction, so a violated law surfaces as a
counterexample in a report instead of a crash inside a pasting.  On a
thin adapter `run_laws` records a channel's laws once as the 1-cells they
build and the equations each tests, which give every law its verdict at
an instance.  Only instances that list cannot judge, every cat instance,
and each failing law once, to render it, are evaluated law by law.
Two thin operators agree up to a unique invertible 2-cell exactly when
their stars are equal, so `compare_operators` is that 1-cell equality
test, on thin adapters only; it opens no adapter table.

A lawful operator commutes with relabelling the elements of a carrier
(uniformity at an invertible strict 1-cell), so every thin law gives one
verdict on a whole relabelling orbit of instances.  Where a corpus maps
its exhaustive prefixes into orbits (`Symmetry`), `run_laws` and
`compare_operators` judge one representative per orbit, but only on an
adapter whose 1-cell operations are marked `equivariant` and whose star
passes `_equivariant_star`; otherwise every instance is judged.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

from .errors import (BoundaryMismatch, InvalidSquare, NoProducts,
                     NotContractible, TypeMismatch)


@dataclass(frozen=True, slots=True)
class ThinCell:
    """A 2-cell of a locally discrete model: the claim source == target."""

    source: Any
    target: Any

    def __repr__(self):
        return f"ThinCell({self.source!r} => {self.target!r})"


# Each `memoized` wrapper -> the raw method it wraps.  Only these wrappers
# are marked: another wrapper around one (a tracer's, say) is not.
_MEMOIZED = {}


def memoized(method):
    """Share an adapter method's results by argument value, in the one
    table `_memo`.  While it is None the method is simply called.  The key
    is the function and the argument values, not the adapter, and a star
    reads adapter state such as `star_impl`, so a table belongs to one
    adapter.  A call that raises is not kept; the wrapped methods never
    return None.  Only `run_laws` opens the table: one per channel walk.
    Every table keeps one object per value: a result is also stored
    under itself, and when the table holds an equal value already, the
    call returns that object instead.  Most stars and composites of a
    channel walk repeat earlier values, and sharing them keeps one copy
    alive.  An unhashable result (the cat adapter's chain) cannot be a
    key and is kept as computed.
    Each wrapper is entered in `_MEMOIZED` with its raw method.  A
    recorded program's step of such a method does this lookup inline, in
    the walk's table and with this key (`_Program`), so the two share
    one cache."""

    @functools.wraps(method)
    def shared(self, *args):
        table = self._memo
        if table is None:
            return method(self, *args)
        key = (method, *args)
        out = table.get(key)
        if out is None:
            out = method(self, *args)
            try:
                out = table.setdefault(out, out)
            except TypeError:
                pass
            table[key] = out
        return out
    _MEMOIZED[shared] = method
    return shared


# The adapter methods marked `equivariant`.  As with `_MEMOIZED`, only the
# marked functions count: a wrapper around one (a tracer's, say) does not.
_EQUIVARIANT = set()


def equivariant(method):
    """Mark an adapter method as commuting with relabelling: renaming the
    elements of each carrier by a permutation, in its arguments, renames
    its result (or its error) the same way, and leaves a truth value as
    it is.  A corpus's `Symmetry` judges one instance per orbit only on
    an adapter whose `_RELABELLED` methods are all marked."""
    _EQUIVARIANT.add(method)
    return method


class FixpointModel:
    """Adapter contract consumed by the law engine.

    Every adapter supplies identity, compose, strictness, star and the three
    witnesses; one that is not a ThinModel also supplies the 2-cell
    operations.  Products are optional: an adapter whose `has_products()`
    holds supplies proj1, proj2 and pair, which only the product route
    reads; it builds the symmetry from them.
    A 2-cell carries its boundary 1-cells as `source` and `target`, which
    the engine reads directly.  Boundaries and equality of 1-cells (src,
    dst, eq1: `source`, `target` and `==`), equality of 2-cells (eq2:
    `==`), the horizontal composite (hcomp2: whisker-then-stack) and the
    description hooks have workable defaults.
    `_memo` is the one table `memoized` methods read; only `run_laws`
    opens it.
    """

    name = "model"
    _memo = None

    # -- objects and 1-cells ------------------------------------------------
    def identity(self, obj):
        raise NotImplementedError

    def compose(self, g, f):
        raise NotImplementedError

    @equivariant
    def src(self, f):
        return f.source

    @equivariant
    def dst(self, f):
        return f.target

    @equivariant
    def eq1(self, f, g) -> bool:
        return f == g

    def eq_obj(self, a, b) -> bool:
        return a == b

    def is_strict(self, s) -> bool:
        raise NotImplementedError

    def star(self, f):
        raise NotImplementedError

    # -- 2-cells -------------------------------------------------------------
    def id2(self, f):
        raise NotImplementedError

    def vcomp2(self, after, before):
        raise NotImplementedError

    def whisker_l(self, h, t):
        raise NotImplementedError

    def whisker_r(self, t, h):
        raise NotImplementedError

    def eq2(self, a, b) -> bool:
        return a == b

    def cell_ok(self, t) -> bool:
        raise NotImplementedError

    def is_invertible2(self, t) -> bool:
        raise NotImplementedError

    def inverse2(self, t):
        raise NotImplementedError

    def star_2cell(self, alpha):
        """Transport a 2-cell between endo 1-cells to one between their stars."""
        raise NotImplementedError

    def hcomp2(self, first, second):
        """second . first on 1-cells; standard whisker-then-stack composite."""
        return self.vcomp2(self.whisker_l(second.target, first),
                           self.whisker_r(second, first.source))

    # -- witnesses -----------------------------------------------------------
    def fix_witness(self, f):
        raise NotImplementedError

    def dinat_witness(self, f, g):
        raise NotImplementedError

    def unif_witness(self, s, f, g, gamma):
        raise NotImplementedError

    # -- optional products ----------------------------------------------------
    def has_products(self) -> bool:
        return False

    def proj1(self, a, b):
        raise NoProducts(f"{self.name} has no products")

    def proj2(self, a, b):
        raise NoProducts(f"{self.name} has no products")

    def pair(self, f, g):
        raise NoProducts(f"{self.name} has no products")

    # -- reporting hooks -------------------------------------------------------
    def describe1(self, f) -> str:
        return repr(f)

    def describe2(self, t) -> str:
        if isinstance(t, ThinCell):
            return f"{self.describe1(t.source)} => {self.describe1(t.target)}"
        return repr(t)


class ThinModel(FixpointModel):
    """The 2-cell calculus and the witnesses of every locally discrete adapter.

    With at most one 2-cell between parallel 1-cells, the paper's operator
    is the 1-categorical one of Simpson & Plotkin: fix, dinat and unif are
    the claims f.f* = f*, (fg)* = f.(gf)* and s.f* = g*, the same for every
    thin model.  An adapter supplies 1-cells, compose, star, strictness and
    products; the calculus here only composes boundaries and compares them,
    through identity, compose, src, dst, star, eq1, eq_obj and is_strict
    alone.  That is what lets `run_laws` record the laws once as 1-cell
    obligations; an adapter that overrides a method of the calculus is
    evaluated law by law instead.
    """

    def id2(self, f):
        return ThinCell(f, f)

    def vcomp2(self, after, before):
        if not self.eq1(before.target, after.source):
            raise BoundaryMismatch(
                f"{self.name}: vertical composite boundary mismatch: "
                f"{self.describe1(before.target)} vs {self.describe1(after.source)}")
        return ThinCell(before.source, after.target)

    def whisker_l(self, h, t):
        return ThinCell(self.compose(h, t.source), self.compose(h, t.target))

    def whisker_r(self, t, h):
        return ThinCell(self.compose(t.source, h), self.compose(t.target, h))

    def cell_ok(self, t) -> bool:
        return self.eq1(t.source, t.target)

    def eq2(self, a, b) -> bool:
        # a nonexistent cell (boundary inequality) is never equal to anything
        return (self.cell_ok(a) and self.cell_ok(b)
                and self.eq1(a.source, b.source) and self.eq1(a.target, b.target))

    def is_invertible2(self, t) -> bool:
        return self.cell_ok(t)

    def inverse2(self, t):
        if not self.cell_ok(t):
            raise BoundaryMismatch(
                f"{self.name}: cannot invert a cell whose boundary equality fails: "
                f"{self.describe2(t)}")
        return ThinCell(t.target, t.source)

    def star_2cell(self, alpha):
        return ThinCell(self.star(alpha.source), self.star(alpha.target))

    # -- witnesses: the 1-cell equations of Simpson & Plotkin's operator -------
    def fix_witness(self, f):
        fs = self.star(f)
        return ThinCell(self.compose(f, fs), fs)

    def dinat_witness(self, f, g):
        _require_opposed(self, f, g)
        return ThinCell(self.star(self.compose(f, g)),
                        self.compose(f, self.star(self.compose(g, f))))

    def unif_witness(self, s, f, g, gamma):
        require_square(self, s, f, g, gamma)
        return ThinCell(self.compose(s, self.star(f)), self.star(g))


# ---------------------------------------------------------------------------
# Reports.

@dataclass
class LawReport:
    law_id: str
    statement: str
    instances: int
    passes: int
    counterexample: Optional[dict]
    vacuous: bool

    @property
    def failed(self) -> bool:
        return self.counterexample is not None

    def line(self) -> str:
        status = "FAIL" if self.failed else ("VACUOUS" if self.vacuous else "pass")
        out = f"[{status}] {self.law_id}: {self.passes}/{self.instances}"
        if self.failed:
            ce = self.counterexample
            out += f"  counterexample {ce['inputs']}: {ce['left']} != {ce['right']}"
        return out


@dataclass
class Corpus:
    """Instance channels consumed by the law checks.

    Channels a model's corpus leaves empty make the corresponding laws
    report as vacuous rather than silently passing.
    `symmetry`, None unless the builder sets it, is the `Symmetry` of
    the corpus's exhaustive prefixes.  It is kept in a slot beside the
    channels, so `dataclasses.fields` and `vars` list the channels alone,
    and a corpus built from another's channels has none.
    """

    __slots__ = ("__dict__", "__weakref__", "symmetry")

    endos: list = field(default_factory=list)
    endo_cells: list = field(default_factory=list)       # alpha : f => f', endos
    dinat_pairs: list = field(default_factory=list)      # (f: A->B, g: B->A)
    dinat_triples: list = field(default_factory=list)    # (f: A->B, g: B->C, h: C->A)
    dinat_cells: list = field(default_factory=list)      # (alpha: f => f', g: B->A)
    unif_squares: list = field(default_factory=list)     # (s, f, g, gamma)
    unif_stacks: list = field(default_factory=list)      # ((s,f,g,gamma), (r,g,h,rho))
    unif_thetas: list = field(default_factory=list)      # (theta: s => r, f, g, gamma, rho)
    unif_transports: list = field(default_factory=list)  # (s, alpha: f=>h, beta: g=>k, gamma, rho)
    unif_dinat: list = field(default_factory=list)       # (s, r, f, g, h, k, gamma, rho)

    def __post_init__(self):
        self.symmetry = None


class Symmetry(NamedTuple):
    """The orbits of a corpus's exhaustive prefixes under relabelling, a
    permutation of the elements of each carrier.

    `orbits[channel]` is (reps, sizes): the channel's first sum(sizes)
    instances fall into orbits, each listed by its first labelled member,
    in ascending order, and its size.  An instance over two carriers,
    such as a dinat pair or a uniformity square, relabels each of them
    by its own permutation, even when they are one carrier.
    `orbits["endos"]` covers the endo layer that every mapped channel
    stars in, a square's f and g included.  `images(i)` lists, for
    the endo at index i of that layer, (p, j) for every relabelling p of
    its carrier but the identity, where endos[j] is endos[i] relabelled
    by p, and `relabel(x, p)` relabels a 1-cell by p: together they let
    `_equivariant_star` test a star on the layer."""

    orbits: dict
    images: Callable
    relabel: Callable


class Law(NamedTuple):
    """One law: the corpus channel it reads and how to judge an instance.

    A law is data: its functions take the adapter as their first argument,
    so one law runs on any adapter, the recorder of `_program` included.
    `evaluate(m, inst)` returns (ok, left, right).  The two sides stay
    objects until a counterexample is written: `sides(m, left, right)`
    renders them (describe2 of both by default) and `describe(m, inst)`
    renders the instance, for the first failing instance only.
    """

    law_id: str
    statement: str
    channel: str
    evaluate: Callable
    describe: Callable
    sides: Optional[Callable] = None


def run_laws(m: FixpointModel, corpus: Corpus, laws):
    """Evaluate `laws` on `corpus`, instance-major: each channel is walked
    once, and every law reading it is judged at each instance in turn.

    Each walk opens one table, `_memo`, which every evaluation in the
    walk reads.  On a thin adapter the laws of a channel are first
    recorded as one straight-line program of 1-cell operations and the
    equations each law tests (`_program`), and it
    gives every law its verdict: the instance's leaves are looked up in
    the table first, so each leaf and each memoized step's result is the
    table's one object for its value, and a distinct composite or star,
    such as f.(gf)* or id.f, is computed once per channel walk.  An
    instance the program cannot judge, and every instance of a channel
    without a program, is evaluated law by law under the same table.
    The table is keyed by value, so the verdicts are blind to names.
    After the walks, each failing law's first counterexample is rendered
    from one more evaluation of it alone, under a fresh table, so it
    carries its instance's names.  Reports come back in `laws`' order.

    A channel that the corpus's `Symmetry` maps is walked one instance
    per orbit, when `_orbit_walk_sound` holds: each representative's
    verdicts count once for every member of its orbit, and the instances
    after the mapped prefix are walked one by one.  The failing instances
    are then whole orbits, so the first failing representative is the
    first failing instance, and the reports are those of the walk over
    every instance.
    """
    by_channel = {}
    tallies = []
    for law in laws:
        tally = [law, 0, None]        # law, passes, first failing index
        tallies.append(tally)
        by_channel.setdefault(law.channel, []).append(tally)
    symmetry = corpus.symmetry
    sound = None                      # _orbit_walk_sound, once it is asked
    try:
        for channel, group in by_channel.items():
            insts = getattr(corpus, channel)
            program = (_program(m, [t[0] for t in group], insts[0])
                       if insts else None)
            m._memo = {}
            orbits = None
            if (symmetry and channel in symmetry.orbits
                    and all(t[0] in _DECLARED for t in group)):
                if sound is None:
                    sound = _orbit_walk_sound(m, symmetry, corpus.endos)
                if sound:
                    orbits = symmetry.orbits[channel]
            for i, weight in _walk(orbits, len(insts)):
                inst = insts[i]
                verdicts = program.verdicts(inst) if program else None
                if verdicts is None:
                    verdicts = [_evaluate(m, t[0], inst)[0] for t in group]
                for tally, ok in zip(group, verdicts):
                    if ok:
                        tally[1] += weight
                    elif tally[2] is None:
                        tally[2] = i
        reports = []
        for law, passes, first in tallies:
            insts = getattr(corpus, law.channel)
            ce = None
            if first is not None:
                m._memo = {}
                inst = insts[first]
                _, left, right = _evaluate(m, law, inst)
                ce = _counterexample(m, law, inst, left, right)
            reports.append(LawReport(law.law_id, law.statement, len(insts),
                                     passes, ce, vacuous=not insts))
    finally:
        m._memo = None
    return reports


def _walk(orbits, count):
    """(index, weight) of each instance a walk of `count` instances
    judges: each orbit's representative, weighted by its size, and then
    every instance after the mapped prefix; every instance, weight 1,
    without `orbits`."""
    if orbits is None:
        return zip(range(count), itertools.repeat(1))
    reps, sizes = orbits
    return itertools.chain(zip(reps, sizes),
                           zip(range(sum(sizes), count), itertools.repeat(1)))


# The adapter methods a relabelling must commute with, besides star, for
# one verdict to stand for an orbit.
_RELABELLED = ("identity", "compose", "src", "dst", "eq1", "eq_obj",
               "is_strict")


def _orbit_walk_sound(m, symmetry, endos):
    """Whether a declared law's verdict at an instance of a mapped channel
    is its verdict at every instance of the instance's orbit.

    Uniformity at an invertible strict 1-cell p says p.f* = (p f p^-1)*:
    a lawful operator commutes with relabelling.  A law on a thin adapter
    builds its 1-cells from the instance by identity, compose, src, dst
    and star, and tests them by eq1, eq_obj and is_strict.  If each of
    them commutes with relabelling, the law's sides at a relabelled
    instance are its sides at the instance, relabelled, and the verdict
    is the same.  So this holds when the adapter's 2-cell calculus is
    ThinModel's own, its `_RELABELLED` methods are marked `equivariant`,
    and its star passes `_equivariant_star` on the endo layer, where
    every endo that a mapped channel stars lies (the corpus builder's
    claim).  The check computes each layer endo's star in the open
    table, where the walk finds it again."""
    return (_own_calculus(m) and _marked(m)
            and _equivariant_star(m, symmetry, endos, m.star))


def _marked(m):
    """Whether each of adapter m's `_RELABELLED` methods is marked
    `equivariant`."""
    return all(getattr(type(m), name) in _EQUIVARIANT for name in _RELABELLED)


_RAISED = object()


def _equivariant_star(m, symmetry, endos, star):
    """Whether `star` commutes with every relabelling on the endo layer of
    `symmetry`: star(p.r) equals p.star(r), by m.eq1, for each orbit
    representative r and each relabelling p of its carrier, and star
    raises at p.r exactly when it raises at r.  Each labelled endo is
    some p.r, so this is star(p.f) = p.star(f) for every endo f of the
    layer and every p, stabilizers of the representatives included."""
    def attempt(f):
        try:
            return star(f)
        except Exception:
            return _RAISED

    for r in symmetry.orbits["endos"][0]:
        base = attempt(endos[r])
        for p, j in symmetry.images(r):
            got = attempt(endos[j])
            if base is _RAISED or got is _RAISED:
                if got is not base:
                    return False
            elif not m.eq1(got, symmetry.relabel(base, p)):
                return False
    return True


def _evaluate(m, law, inst):
    """(ok, left, right) of `law` at `inst`; an adapter crash is this law's
    counterexample, not the end of the run."""
    try:
        return law.evaluate(m, inst)
    except Exception as e:
        return False, None, e


def _counterexample(m, law, inst, left, right):
    """The report entry for a failing instance; the only place sides and
    instances are rendered to text."""
    if isinstance(right, Exception):
        left, right = "<error>", f"{right.__class__.__name__}: {right}"
    elif law.sides is None:
        left, right = m.describe2(left), m.describe2(right)
    else:
        left, right = law.sides(m, left, right)
    return {"inputs": law.describe(m, inst), "raw": inst,
            "left": left, "right": right}


# ---------------------------------------------------------------------------
# Thin laws as recorded 1-cell obligations.

# The ThinModel methods a recorded program stands in for: an adapter that
# overrides any of them is evaluated law by law.
_CALCULUS = ("id2", "vcomp2", "whisker_l", "whisker_r", "hcomp2", "eq2",
             "cell_ok", "is_invertible2", "inverse2", "star_2cell",
             "fix_witness", "dinat_witness", "unif_witness")


class _Recorder(ThinModel):
    """A thin adapter whose 1-cells and objects are slots of a program.

    Slots 0..inputs-1 hold an instance's leaf 1-cells.  `identity`,
    `compose`, `src`, `dst` and `star` append a step computing a new slot,
    unless a structurally equal one was recorded already; `eq1`, `eq_obj`
    and `is_strict` record a test and answer True, so a law runs down the
    path on which every one of its checks holds; the indices of the tests
    a law touches collect in `touched`, a set the caller supplies.  The
    2-cell calculus and the witnesses are ThinModel's own, unchanged.
    """

    def __init__(self, inputs):
        self.inputs = inputs
        self.steps = []               # (method name, *argument slots)
        self.tests = {}               # (method name, *argument slots) -> index
        self._slots = {}

    def _step(self, *key):
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = self.inputs + len(self.steps)
            self.steps.append(key)
        return slot

    def _test(self, *key):
        self.touched.add(self.tests.setdefault(key, len(self.tests)))
        return True

    def identity(self, obj):
        return self._step("identity", obj)

    def compose(self, g, f):
        return self._step("compose", g, f)

    def src(self, f):
        return self._step("src", f)

    def dst(self, f):
        return self._step("dst", f)

    def star(self, f):
        return self._step("star", f)

    def eq1(self, f, g):
        return self._test("eq1", f, g)

    def eq_obj(self, a, b):
        return self._test("eq_obj", a, b)

    def is_strict(self, s):
        return self._test("is_strict", s)


def _mirror(x, leaves):
    """`x` with each leaf 1-cell replaced by its input slot: tuples and
    ThinCells are kept, and the leaves, collected in `leaves`, are
    numbered in order."""
    if isinstance(x, tuple):
        return tuple(_mirror(y, leaves) for y in x)
    if isinstance(x, ThinCell):
        return ThinCell(_mirror(x.source, leaves), _mirror(x.target, leaves))
    leaves.append(x)
    return len(leaves) - 1


_NOT_LEAF = (tuple, ThinCell)


def _extractor(shape):
    """The leaf walker of instances shaped like the mirror `shape`,
    compiled once: `extract(x, out)` appends the leaf 1-cells of `x` to
    `out` in slot order and is False when `x` has another shape (some
    leaves may be appended by then).  A leaf is anything but a tuple or a
    ThinCell; a tuple of the shape's length (a tuple subclass too) stands
    for a tuple, and a ThinCell for a ThinCell."""
    if type(shape) is int:
        def leaf(x, out):
            if isinstance(x, _NOT_LEAF):
                return False
            out.append(x)
            return True
        return leaf
    if type(shape) is ThinCell:
        source, target = _extractor(shape.source), _extractor(shape.target)

        def cell(x, out):
            return (isinstance(x, ThinCell) and source(x.source, out)
                    and target(x.target, out))
        return cell
    size = len(shape)
    if all(type(s) is int for s in shape):
        def leaves(x, out):
            if not isinstance(x, tuple) or len(x) != size:
                return False
            for y in x:
                if isinstance(y, _NOT_LEAF):
                    return False
            out.extend(x)
            return True
        return leaves
    parts = [_extractor(s) for s in shape]

    def tree(x, out):
        if not isinstance(x, tuple) or len(x) != size:
            return False
        for part, y in zip(parts, x):
            if not part(y, out):
                return False
        return True
    return tree


# The 1-cell fields FixpointModel's src and dst read.
_FIELDS = {"src": "source", "dst": "target"}


class _Program:
    """The 1-cell obligations of a group of laws, bound to one adapter:
    steps and tests in recorded order, and each law's tests.  The steps
    fill the slots after the instance's leaves.

    The program is compiled once, for the fewest Python calls per
    instance.  A step of a `memoized` method does that method's lookup
    inline, in the walk's table `_memo` and under its key (the raw
    method and the argument values): on a miss it calls the raw method
    and keeps the table's one object for the result.  Other steps call
    the adapter's method, or read `source`/`target` where src/dst are
    FixpointModel's.  The leaves, entered in the table first, and the
    results of inline steps are canonical slots: the table's one object
    for their value.  Two canonical slots are equal exactly when they
    are one object, so an eq1 test of two of them is `operator.is_` when
    the adapter's eq1 is FixpointModel's `==`; every other test calls the
    adapter's method."""

    def __init__(self, m, shape, inputs, steps, tests, laws):
        self.m = m
        self.extract = _extractor(shape)
        canonical = set(range(inputs))
        self.steps = []             # (function, slot, slot or None, inline)
        for slot, (name, a, *b) in enumerate(steps, inputs):
            method = getattr(m, name)
            func = getattr(method, "__func__", None)
            raw = _MEMOIZED.get(func)
            if raw is not None:
                canonical.add(slot)
                method = raw
            elif name in _FIELDS and func is getattr(FixpointModel, name):
                method = operator.attrgetter(_FIELDS[name])
            self.steps.append((method, a, b[0] if b else None,
                               raw is not None))
        self.tests = []             # (function, slot, slot or None)
        for name, a, *b in tests:
            method = getattr(m, name)
            if (name == "eq1"
                    and getattr(method, "__func__", None) is FixpointModel.eq1
                    and a in canonical and b[0] in canonical):
                method = operator.is_
            self.tests.append((method, a, b[0] if b else None))
        self.laws = laws
        self.passing = [True] * len(laws)

    def verdicts(self, inst):
        """Per law of the group, whether every one of its own tests holds
        at `inst`; None when `inst` is not shaped like the program or a
        slot is unhashable or a step or test raises.  Each leaf is
        replaced by the table's one object for its value first, and
        each inline step's result is the table's one object for its
        value, so a unit composite id.f is the walk's first f, and a
        later composite of equal values is a hit on the same objects.
        With no table open a fresh one serves this instance alone.  The
        all-pass list is shared: do not change it."""
        vals = []
        if not self.extract(inst, vals):
            return None
        m = self.m
        table = m._memo
        if table is None:
            table = {}
        get, keep = table.get, table.setdefault
        try:
            vals = [keep(x, x) for x in vals]
            append = vals.append
            for fn, a, b, inline in self.steps:
                if inline:
                    if b is None:
                        x = vals[a]
                        key = (fn, x)
                        out = get(key)
                        if out is None:
                            out = fn(m, x)
                            out = table[key] = keep(out, out)
                    else:
                        x, y = vals[a], vals[b]
                        key = (fn, x, y)
                        out = get(key)
                        if out is None:
                            out = fn(m, x, y)
                            out = table[key] = keep(out, out)
                    append(out)
                elif b is None:
                    append(fn(vals[a]))
                else:
                    append(fn(vals[a], vals[b]))
            for fn, a, b in self.tests:
                if not (fn(vals[a]) if b is None else fn(vals[a], vals[b])):
                    break
            else:
                return self.passing
            failed = {i for i, (fn, a, b) in enumerate(self.tests)
                      if not (fn(vals[a]) if b is None else fn(vals[a], vals[b]))}
        except Exception:
            return None
        return [failed.isdisjoint(own) for own in self.laws]


def _own_calculus(m):
    """Whether `m` is thin and its 2-cell calculus is ThinModel's own."""
    return isinstance(m, ThinModel) and all(
        getattr(type(m), name) is getattr(ThinModel, name)
        for name in _CALCULUS)


def _program(m, laws, first):
    """The program of `laws` on adapter `m`, recorded on an instance
    shaped like `first`; None when the laws must be evaluated one by one.

    In a locally discrete model every law is a chain of 1-cell equations,
    and a declared law, run on the recorder, lists the 1-cells it builds
    and the equations, strictness and object checks it tests.  Where every
    step computes, evaluating the law takes the recorded path up to the
    first of its tests that fails, and a failing test fails the law: it
    passes exactly when its own tests hold.  That holds for the declared
    laws on ThinModel's own calculus, so a group holding any other law,
    and an adapter that is not thin or overrides the calculus, get no
    program.
    """
    if not _own_calculus(m) or not all(law in _DECLARED for law in laws):
        return None
    leaves = []
    shape = _mirror(first, leaves)
    rec = _Recorder(len(leaves))
    own = []
    for law in laws:
        rec.touched = set()
        try:
            ok = law.evaluate(rec, shape)[0]
        except Exception:
            return None
        if not ok:
            return None
        own.append(rec.touched)
    return _Program(m, shape, rec.inputs, rec.steps, rec.tests, own)


# ---------------------------------------------------------------------------
# Law checks.

def _d1(m, x):
    return m.describe1(x)


def _d2(m, t):
    return m.describe2(t)


def _dpair(m, inst):
    f, g = inst
    return f"(f={m.describe1(f)}, g={m.describe1(g)})"


def _dsq(m, inst):
    s, f, g, gamma = inst
    return f"(s={m.describe1(s)}, f={m.describe1(f)}, g={m.describe1(g)})"


def _want_cell(what):
    """Sides renderer for a witness checked against its wanted boundary."""
    def sides(m, w, want):
        src, dst = want
        return (m.describe2(w),
                f"{what} {m.describe1(src)} => {m.describe1(dst)}")
    return sides


# -- fix: the fixpoint cell itself and its naturality in the endo argument ----

def _fix_cell(m, f):
    w = m.fix_witness(f)
    fs = m.star(f)
    want_src = m.compose(f, fs)
    shaped = m.eq1(w.source, want_src) and m.eq1(w.target, fs)
    ok = shaped and m.cell_ok(w) and m.is_invertible2(w)
    return ok, w, (want_src, fs)


def _fix_nat(m, alpha):
    f, g = alpha.source, alpha.target
    astar = m.star_2cell(alpha)
    lhs = m.vcomp2(astar, m.fix_witness(f))
    rhs = m.vcomp2(m.fix_witness(g), m.hcomp2(astar, alpha))
    return m.eq2(lhs, rhs), lhs, rhs


FIX_LAWS = (
    Law("fix.cell",
        "fix(f) is a well-formed invertible 2-cell f.f* => f*",
        "endos", _fix_cell, _d1, _want_cell("invertible cell")),
    Law("fix.naturality",
        "star2(a) . fix(f) == fix(g) . hcomp(star2(a), a) for a: f => g",
        "endo_cells", _fix_nat, _d2),
)


# -- dinat: the dinaturality cell family and its axioms -----------------------

def _dinat_cell(m, inst):
    f, g = inst
    w = m.dinat_witness(f, g)
    want_src = m.star(m.compose(f, g))
    want_dst = m.compose(f, m.star(m.compose(g, f)))
    shaped = m.eq1(w.source, want_src) and m.eq1(w.target, want_dst)
    ok = shaped and m.cell_ok(w) and m.is_invertible2(w)
    return ok, w, (want_src, want_dst)


def _dinat_unity(m, f):
    one = m.identity(m.src(f))
    lhs = m.dinat_witness(one, f)
    rhs = m.id2(m.star(f))
    return m.eq2(lhs, rhs), lhs, rhs


def _dinat_fix_remark(m, f):
    # dinat over an identity inner leg determines fix
    one = m.identity(m.src(f))
    lhs = m.vcomp2(m.fix_witness(f), m.dinat_witness(f, one))
    rhs = m.id2(m.star(f))
    return m.eq2(lhs, rhs), lhs, rhs


def _dinat_one_nat(m, inst):
    f, g, h = inst  # f: A->B, g: B->C, h: C->A
    lhs = m.vcomp2(m.whisker_l(g, m.dinat_witness(f, m.compose(h, g))),
                   m.dinat_witness(g, m.compose(f, h)))
    rhs = m.dinat_witness(m.compose(g, f), h)
    return m.eq2(lhs, rhs), lhs, rhs


def _dinat_two_nat(m, inst):
    alpha, g = inst  # alpha: f => f' with f, f': A->B, g: B->A
    f, f2 = alpha.source, alpha.target
    lhs = m.vcomp2(m.dinat_witness(f2, g),
                   m.star_2cell(m.whisker_r(alpha, g)))
    rhs = m.vcomp2(
        m.whisker_r(alpha, m.star(m.compose(g, f2))),
        m.vcomp2(m.whisker_l(f, m.star_2cell(m.whisker_l(g, alpha))),
                 m.dinat_witness(f, g)))
    return m.eq2(lhs, rhs), lhs, rhs


def _dinat_fix_coherence(m, inst):
    f, g = inst
    fg = m.compose(f, g)
    paste = m.vcomp2(m.whisker_l(f, m.dinat_witness(g, f)),
                     m.dinat_witness(f, g))
    lhs = m.vcomp2(m.fix_witness(fg), paste)
    rhs = m.id2(m.star(fg))
    return m.eq2(lhs, rhs), lhs, rhs


DINAT_LAWS = (
    Law("dinat.cell",
        "dinat(f,g) is a well-formed invertible 2-cell (fg)* => f.(gf)*",
        "dinat_pairs", _dinat_cell, _dpair, _want_cell("invertible cell")),
    Law("dinat.unity",
        "dinat(id, f) == id2(f*)",
        "endos", _dinat_unity, _d1),
    Law("dinat.fix_remark",
        "fix(f) . dinat(f, id) == id2(f*)",
        "endos", _dinat_fix_remark, _d1),
    Law("dinat.one_nat",
        "whisker(g, dinat(f, hg)) . dinat(g, fh) == dinat(gf, h)",
        "dinat_triples", _dinat_one_nat,
        lambda m, t: (f"(f={m.describe1(t[0])}, g={m.describe1(t[1])}, "
                      f"h={m.describe1(t[2])})")),
    Law("dinat.two_nat",
        "dinat(f', g) . star2(a.g) == (a.(gf')*) . (f.star2(g.a)) . dinat(f, g)",
        "dinat_cells", _dinat_two_nat,
        lambda m, t: f"(alpha={m.describe2(t[0])}, g={m.describe1(t[1])})"),
    Law("dinat.fix_coherence",
        "fix(fg) . whisker(f, dinat(g, f)) . dinat(f, g) == id2((fg)*)",
        "dinat_pairs", _dinat_fix_coherence, _dpair),
)


def require_square(m: FixpointModel, s, f, g, gamma):
    """Validate uniformity-square data; raises InvalidSquare when it is broken."""
    if not m.is_strict(s):
        raise InvalidSquare(f"{m.describe1(s)} is not strict")
    want_src = m.compose(s, f)
    want_dst = m.compose(g, s)
    if not (m.eq1(gamma.source, want_src) and m.eq1(gamma.target, want_dst)):
        raise InvalidSquare(
            f"square cell boundary is not {m.describe1(want_src)} => {m.describe1(want_dst)}")
    if not m.cell_ok(gamma):
        raise InvalidSquare(f"square cell does not commute: {m.describe2(gamma)}")
    if not m.is_invertible2(gamma):
        raise InvalidSquare(f"square cell is not invertible: {m.describe2(gamma)}")


def _require_opposed(m: FixpointModel, f, g):
    if not (m.eq_obj(m.src(f), m.dst(g)) and m.eq_obj(m.dst(f), m.src(g))):
        raise TypeMismatch("dinat needs f: A -> B and g: B -> A")


# -- unif: the uniformity cell family, its four axioms, and both coherences ---

def _unif_cell(m, inst):
    s, f, g, gamma = inst
    require_square(m, s, f, g, gamma)
    w = m.unif_witness(s, f, g, gamma)
    want_src = m.compose(s, m.star(f))
    want_dst = m.star(g)
    shaped = m.eq1(w.source, want_src) and m.eq1(w.target, want_dst)
    ok = shaped and m.cell_ok(w)
    return ok, w, (want_src, want_dst)


def _unif_invertible(m, inst):
    s, f, g, gamma = inst
    require_square(m, s, f, g, gamma)
    w = m.unif_witness(s, f, g, gamma)
    return m.is_invertible2(w), w, None


def _unif_unity(m, f):
    s = m.identity(m.src(f))
    gamma = m.id2(m.compose(s, f))
    lhs = m.unif_witness(s, f, f, gamma)
    rhs = m.id2(m.star(f))
    return m.eq2(lhs, rhs), lhs, rhs


def _unif_one_nat(m, inst):
    (s, f, g, gamma), (r, g2, h, rho) = inst
    if not m.eq1(g, g2):
        raise InvalidSquare("stacked squares do not share the middle endo")
    require_square(m, s, f, g, gamma)
    require_square(m, r, g, h, rho)
    stacked = m.vcomp2(m.whisker_r(rho, s), m.whisker_l(r, gamma))
    lhs = m.unif_witness(m.compose(r, s), f, h, stacked)
    rhs = m.vcomp2(m.unif_witness(r, g, h, rho),
                   m.whisker_l(r, m.unif_witness(s, f, g, gamma)))
    return m.eq2(lhs, rhs), lhs, rhs


def _unif_two_nat(m, inst):
    theta, f, g, gamma, rho = inst  # theta: s => r
    s, r = theta.source, theta.target
    if not (m.is_strict(s) and m.is_strict(r) and m.cell_ok(theta)
            and m.is_invertible2(theta)):
        raise InvalidSquare("theta is not an invertible cell between strict 1-cells")
    require_square(m, s, f, g, gamma)
    require_square(m, r, f, g, rho)
    pre_l = m.vcomp2(m.whisker_l(g, theta), gamma)
    pre_r = m.vcomp2(rho, m.whisker_r(theta, f))
    if not m.eq2(pre_l, pre_r):
        raise InvalidSquare("theta does not relate the two squares")
    lhs = m.unif_witness(s, f, g, gamma)
    rhs = m.vcomp2(m.unif_witness(r, f, g, rho),
                   m.whisker_r(theta, m.star(f)))
    return m.eq2(lhs, rhs), lhs, rhs


def _unif_transport(m, inst):
    s, alpha, beta, gamma, rho = inst  # alpha: f => h, beta: g => k
    f, h = alpha.source, alpha.target
    g, k = beta.source, beta.target
    require_square(m, s, f, g, gamma)
    require_square(m, s, h, k, rho)
    pre_l = m.vcomp2(rho, m.whisker_l(s, alpha))
    pre_r = m.vcomp2(m.whisker_r(beta, s), gamma)
    if not m.eq2(pre_l, pre_r):
        raise InvalidSquare("alpha/beta do not relate the two squares")
    lhs = m.vcomp2(m.unif_witness(s, h, k, rho),
                   m.whisker_l(s, m.star_2cell(alpha)))
    rhs = m.vcomp2(m.star_2cell(beta), m.unif_witness(s, f, g, gamma))
    return m.eq2(lhs, rhs), lhs, rhs


def _unif_fix_coherence(m, inst):
    s, f, g, gamma = inst
    require_square(m, s, f, g, gamma)
    w = m.unif_witness(s, f, g, gamma)
    lhs = m.vcomp2(m.inverse2(m.fix_witness(g)), w)
    rhs = m.vcomp2(
        m.whisker_l(g, w),
        m.vcomp2(m.whisker_r(gamma, m.star(f)),
                 m.whisker_l(s, m.inverse2(m.fix_witness(f)))))
    return m.eq2(lhs, rhs), lhs, rhs


def _unif_dinat_coherence(m, inst):
    # s: A->C, r: B->D strict; f: A->B, g: B->A, h: C->D, k: D->C;
    # gamma: r.f => h.s, rho: s.g => k.r
    s, r, f, g, h, k, gamma, rho = inst
    glue_r = m.vcomp2(m.whisker_l(h, rho), m.whisker_r(gamma, g))
    glue_s = m.vcomp2(m.whisker_l(k, gamma), m.whisker_r(rho, f))
    fg, gf = m.compose(f, g), m.compose(g, f)
    hk, kh = m.compose(h, k), m.compose(k, h)
    require_square(m, r, fg, hk, glue_r)
    require_square(m, s, gf, kh, glue_s)
    lhs = m.vcomp2(m.dinat_witness(h, k),
                   m.unif_witness(r, fg, hk, glue_r))
    rhs = m.vcomp2(
        m.whisker_l(h, m.unif_witness(s, gf, kh, glue_s)),
        m.vcomp2(m.whisker_r(gamma, m.star(gf)),
                 m.whisker_l(r, m.dinat_witness(f, g))))
    return m.eq2(lhs, rhs), lhs, rhs


UNIF_LAWS = (
    Law("unif.cell",
        "unif(s,f,g,y) is a well-formed 2-cell s.f* => g*",
        "unif_squares", _unif_cell, _dsq, _want_cell("cell")),
    Law("unif.invertible",
        "unif(s,f,g,y) is invertible (reported separately from the axioms)",
        "unif_squares", _unif_invertible, _dsq,
        lambda m, w, _: (m.describe2(w), "an invertible 2-cell")),
    Law("unif.unity",
        "unif(id, f, f, id2) == id2(f*)",
        "endos", _unif_unity, _d1),
    Law("unif.one_nat",
        "unif(rs, f, h, stack(y, p)) == unif(r, g, h, p) . whisker(r, unif(s, f, g, y))",
        "unif_stacks", _unif_one_nat,
        lambda m, t: f"({_dsq(m, t[0])} over {_dsq(m, t[1])})"),
    Law("unif.two_nat",
        "unif(s, f, g, y) == unif(r, f, g, p) . (theta . f*)",
        "unif_thetas", _unif_two_nat,
        lambda m, t: (f"(theta={m.describe2(t[0])}, f={m.describe1(t[1])}, "
                      f"g={m.describe1(t[2])})")),
    Law("unif.transport",
        "unif(s, h, k, p) . (s . star2(a)) == star2(b) . unif(s, f, g, y)",
        "unif_transports", _unif_transport,
        lambda m, t: (f"(s={m.describe1(t[0])}, alpha={m.describe2(t[1])}, "
                      f"beta={m.describe2(t[2])})")),
    Law("unif.fix_coherence",
        "inv(fix(g)) . unif == (g . unif) . (y . f*) . (s . inv(fix(f)))",
        "unif_squares", _unif_fix_coherence, _dsq),
    Law("unif.dinat_coherence",
        "dinat(h,k) . unif(r, fg, hk) == (h . unif(s, gf, kh)) . (y . (gf)*) . (r . dinat(f,g))",
        "unif_dinat", _unif_dinat_coherence,
        lambda m, t: (f"(s={m.describe1(t[0])}, r={m.describe1(t[1])}, "
                      f"f={m.describe1(t[2])}, g={m.describe1(t[3])})")),
)


# The laws a recorded program may stand in for.
_DECLARED = frozenset(FIX_LAWS + DINAT_LAWS + UNIF_LAWS)


# ---------------------------------------------------------------------------
# Dinaturality from products, and operator comparison.

def product_route(m: FixpointModel, f, g):
    """(pi1(h*), pi2(h*)) for h = sw . (f x g): A x B -> A x B, the
    product-route constructions of (gf)* and (fg)*.  The symmetry sw is
    the pairing <pi2, pi1> of B x A's projections; an adapter without
    products raises NoProducts from its projections."""
    _require_opposed(m, f, g)
    a, b = m.src(f), m.dst(f)
    p1 = m.proj1(a, b)
    p2 = m.proj2(a, b)
    fxg = m.pair(m.compose(f, p1), m.compose(g, p2))   # A x B -> B x A
    sw = m.pair(m.proj2(b, a), m.proj1(b, a))          # B x A -> A x B
    h = m.compose(sw, fxg)                             # A x B -> A x B
    sh = m.star(h)
    return m.compose(p1, sh), m.compose(p2, sh)        # (gf)*, (fg)* expected


@dataclass
class CompareReport:
    base: str
    instances: int


def compare_operators(m1: FixpointModel, m2: FixpointModel, endos,
                      pairs=(), symmetry=None):
    """Check that two thin adapters' stars are equal 1-cells.

    In a locally discrete model a 2-cell star1(f) => star2(f) exists, and
    is unique, exactly when the two stars are equal, and it commutes with
    both fix cells exactly when f.f* = f* as well (Simpson & Plotkin's
    1-categorical uniqueness), so no 2-cell is built or searched.  Each
    distinct endo value's stars are computed once and compared, and
    NotContractible, naming the equation that failed, is raised where they
    differ or f.f* differs from f*; at each dinat pair (fg)* must equal
    f.(gf)*.  No cell of the corpus is checked either: a thin 2-cell
    f => g is the claim f = g, so both ends of a well-formed cell have one
    star, and a malformed one is `fix.naturality`'s counterexample in
    `fixcat laws`.
    An adapter that is not a ThinModel raises TypeMismatch.
    With the `Symmetry` of the corpus that `endos` and `pairs` come from,
    only one pair per orbit of the mapped prefix is checked, when m1's
    `_RELABELLED` methods are marked and its star, which every endo
    passed has by now, passes `_equivariant_star`: then (f'g')* and
    f'.(g'f')* at a relabelled pair are the two sides at (f, g),
    relabelled, and the first failing pair is a representative.
    The stars are kept by endo value in a dict of the call's own, with
    one object held per star value; no adapter table is opened, and
    describe1 renders error messages only.  The report names the two
    operators and counts the endos checked.
    """
    for m in (m1, m2):
        if not isinstance(m, ThinModel):
            raise TypeMismatch(f"{m.name} is not thin: compare_operators "
                               f"tests stars for 1-cell equality")
    m = m1
    stars = {}          # endo, by value -> its star, checked
    held = {}           # star, by value -> the one object kept for it

    def fail(at, equation):
        raise NotContractible(f"{m1.name} vs {m2.name} at {at}: {equation}")

    def star(f):
        fs = stars.get(f)
        if fs is None:
            s1, s2 = m1.star(f), m2.star(f)
            if not m.eq1(s1, s2):
                fail(m.describe1(f), "the stars differ")
            if not m.eq1(m.compose(f, s1), s1):
                fail(m.describe1(f), "f.f* != f*")
            fs = stars[f] = held.setdefault(s1, s1)
        return fs

    for f in endos:
        star(f)
    orbits = symmetry.orbits.get("dinat_pairs") if symmetry else None
    if orbits is not None and _marked(m) and _equivariant_star(
            m, symmetry, endos, star):
        pairs = [pairs[i] for i, _ in _walk(orbits, len(pairs))]
    for (f, g) in pairs:
        fg, gf = m.compose(f, g), m.compose(g, f)
        if not m.eq1(star(fg), m.compose(f, star(gf))):
            fail(f"(f={m.describe1(f)}, g={m.describe1(g)})",
                 "(fg)* != f.(gf)*")
    return CompareReport(m1.name + "|" + m2.name, len(endos))


# ---------------------------------------------------------------------------
# Suite driver.

def run_suite(jobs, seed=0):
    """Run every law check for each (model, corpus) job; sorted by law id.

    `jobs` is any iterable of (model, corpus) pairs.  A job's corpus is
    released before the next job is drawn, so a generator that builds
    each corpus on demand keeps only one corpus alive at a time.
    All laws of a job go through one `run_laws` call, so each instance is
    evaluated once for every law that reads it, and on a thin adapter each
    distinct composite and star is computed once per channel.
    Deterministic for a fixed corpus.  `seed` is accepted for callers
    that pass one (perfbench passes `seed=`) and is never read: the
    corpora carry their own seed.
    """
    reports = []
    for model, corpus in jobs:
        for rep in run_laws(model, corpus, FIX_LAWS + DINAT_LAWS + UNIF_LAWS):
            rep.law_id = f"{model.name}/{rep.law_id}"
            reports.append(rep)
        del corpus
    return sorted(reports, key=lambda r: r.law_id)
