"""Finite categories presented by explicit composition tables.

Objects and arrows are opaque string ids.  A category carries its full
composition table, so every law check here is a finite table lookup;
functors and natural transformations are likewise explicit dictionaries.
2-cell calculus (vertical composition, whiskering) is evaluated
componentwise, so two pastings are compared by the transformations they
evaluate to; the horizontal composite is whisker-then-stack, the adapter
contract's `hcomp2`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (BoundaryMismatch, NotInvertible, SizeCap, TypeMismatch,
                     ValidationError, require_valid)


@dataclass(frozen=True)
class Arrow:
    id: str
    src: str
    dst: str


class FinCategory:
    """A finite category: objects, arrows, identities, composition table.

    The table maps (g_id, f_id) to the id of g after f and is defined on
    exactly the composable pairs.  Construction validates everything and
    raises ValidationError; use `validate_category` to collect violations
    as data instead.
    """

    def __init__(self, objects, arrows, identity, table, name="C", _validate=True):
        self.name = name
        self.objects = tuple(objects)
        self.arrows = {a.id: a for a in arrows}
        self.identity = dict(identity)
        self.table = dict(table)
        if _validate:
            require_valid(name, validate_category(self))

    def src(self, aid: str) -> str:
        return self.arrows[aid].src

    def dst(self, aid: str) -> str:
        return self.arrows[aid].dst

    def id_of(self, obj: str) -> str:
        return self.identity[obj]

    def compose(self, g: str, f: str) -> str:
        """Composite of f followed by g."""
        if self.arrows[f].dst != self.arrows[g].src:
            raise TypeMismatch(f"cannot compose {g} after {f}")
        return self.table[(g, f)]

    def hom(self, x: str, y: str):
        return [a.id for a in self.arrows.values() if a.src == x and a.dst == y]

    def is_identity_arrow(self, aid: str) -> bool:
        a = self.arrows[aid]
        return a.src == a.dst and self.identity[a.src] == aid

    def inverse(self, aid: str):
        """Two-sided inverse of an arrow, or None."""
        a = self.arrows[aid]
        for b in self.hom(a.dst, a.src):
            if (self.table.get((b, aid)) == self.identity[a.src]
                    and self.table.get((aid, b)) == self.identity[a.dst]):
                return b
        return None

    def is_iso(self, aid: str) -> bool:
        return self.inverse(aid) is not None

    def initial_objects(self):
        """Objects with exactly one arrow to every object."""
        out = []
        for x in self.objects:
            if all(len(self.hom(x, y)) == 1 for y in self.objects):
                out.append(x)
        return out

    def sorted_arrow_ids(self):
        return sorted(self.arrows)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinCategory):
            return NotImplemented
        return (set(self.objects) == set(other.objects)
                and self.arrows == other.arrows
                and self.identity == other.identity
                and self.table == other.table)

    def __repr__(self):
        return f"FinCategory({self.name}: {len(self.objects)} objects, {len(self.arrows)} arrows)"


def validate_category(c: FinCategory):
    """Collect category-law violations as human-readable strings."""
    problems = []
    for aid, a in c.arrows.items():
        if aid != a.id:
            problems.append(f"arrow key {aid} disagrees with id {a.id}")
        if a.src not in c.objects or a.dst not in c.objects:
            problems.append(f"arrow {aid} has boundary outside the object set")
    for x in c.objects:
        i = c.identity.get(x)
        if i is None or i not in c.arrows:
            problems.append(f"object {x} has no identity arrow")
            continue
        a = c.arrows[i]
        if a.src != x or a.dst != x:
            problems.append(f"identity of {x} has boundary {a.src}->{a.dst}")
    # table defined exactly on composable pairs
    for f in c.arrows.values():
        for g in c.arrows.values():
            key = (g.id, f.id)
            if f.dst == g.src:
                h = c.table.get(key)
                if h is None:
                    problems.append(f"composite {g.id} after {f.id} missing from table")
                elif h not in c.arrows:
                    problems.append(f"composite {g.id} after {f.id} is unknown arrow {h}")
                else:
                    b = c.arrows[h]
                    if b.src != f.src or b.dst != g.dst:
                        problems.append(f"composite {g.id} after {f.id} has wrong boundary")
            elif key in c.table:
                problems.append(f"table defined on non-composable pair {key}")
    for key in c.table:
        if not all(aid in c.arrows for aid in key):
            problems.append(f"table defined on unknown arrows {key}")
    if problems:
        return problems  # identity/associativity laws need a well-formed table
    for f in c.arrows.values():
        if c.table[(c.identity[f.dst], f.id)] != f.id:
            problems.append(f"left identity law fails at {f.id}")
        if c.table[(f.id, c.identity[f.src])] != f.id:
            problems.append(f"right identity law fails at {f.id}")
    for f in c.arrows.values():
        for g in c.arrows.values():
            if f.dst != g.src:
                continue
            for h in c.arrows.values():
                if g.dst != h.src:
                    continue
                left = c.table[(h.id, c.table[(g.id, f.id)])]
                right = c.table[(c.table[(h.id, g.id)], f.id)]
                if left != right:
                    problems.append(
                        f"associativity fails at {h.id} after {g.id} after {f.id}")
    return problems


def _thin_arrow(x, y):
    """The id of the arrow x -> y of a thin category."""
    return f"id_{x}" if x == y else f"{x}to{y}"


def thin_category(name, elements, pairs=()) -> FinCategory:
    """The thin category of a preorder: an identity id_x per element and
    one arrow xtoy per pair (x, y) with x != y.  The reflexive pairs are
    added; foreign or non-transitive pairs raise ValidationError."""
    stray = next(((p, x) for p in pairs for x in p if x not in elements), None)
    if stray:
        raise ValidationError(f"{name}: pair {stray[0]} names {stray[1]}, "
                              "which is not an element")
    order = set(pairs) | {(x, x) for x in elements}
    arrows = [Arrow(_thin_arrow(x, y), x, y)
              for x in elements for y in elements if (x, y) in order]
    table = {}
    for f in arrows:
        for g in arrows:
            if f.dst == g.src:
                x, y = f.src, g.dst
                if (x, y) not in order:
                    raise ValidationError(f"{name}: relation not transitive at {x},{y}")
                table[(g.id, f.id)] = _thin_arrow(x, y)
    return FinCategory(elements, arrows,
                       {x: _thin_arrow(x, x) for x in elements}, table,
                       name=name)


def thin_functor(c: FinCategory, d: FinCategory, omap,
                 name="F") -> FunctorData:
    """The functor between thin categories given by an object map; it is
    valid exactly when the map is monotone."""
    amap = {aid: _thin_arrow(omap[a.src], omap[a.dst])
            for aid, a in c.arrows.items()}
    return FunctorData(c, d, dict(omap), amap, name=name)


TERMINAL_CATEGORY = thin_category("1", ["*"])


class FunctorData:
    """A functor between finite categories, as explicit object/arrow maps."""

    def __init__(self, source: FinCategory, target: FinCategory, omap, amap,
                 name="F", _validate=True):
        self.source = source
        self.target = target
        self.omap = dict(omap)
        self.amap = dict(amap)
        self.name = name
        if _validate:
            require_valid(name, validate_functor(self))

    def on_obj(self, x):
        return self.omap[x]

    def on_arrow(self, aid):
        return self.amap[aid]

    def key(self):
        """Canonical hashable form, for caches and deterministic ordering."""
        return (tuple(sorted(self.omap.items())), tuple(sorted(self.amap.items())))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FunctorData):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.omap == other.omap and self.amap == other.amap)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"FunctorData({self.name}: {self.source.name}->{self.target.name})"


def validate_functor(f: FunctorData):
    problems = []
    c, d = f.source, f.target
    for x in c.objects:
        if f.omap.get(x) not in d.objects:
            problems.append(f"object {x} not mapped into the target")
    for aid, a in c.arrows.items():
        img = f.amap.get(aid)
        if img is None or img not in d.arrows:
            problems.append(f"arrow {aid} not mapped")
            continue
        b = d.arrows[img]
        if b.src != f.omap.get(a.src) or b.dst != f.omap.get(a.dst):
            problems.append(f"arrow {aid} image has wrong boundary")
    if problems:
        return problems
    for x in c.objects:
        if f.amap[c.identity[x]] != d.identity[f.omap[x]]:
            problems.append(f"identity at {x} not preserved")
    for (g, h), comp in c.table.items():
        if d.table[(f.amap[g], f.amap[h])] != f.amap[comp]:
            problems.append(f"composition {g} after {h} not preserved")
    return problems


def identity_functor(c: FinCategory) -> FunctorData:
    return FunctorData(c, c, {x: x for x in c.objects},
                       {a: a for a in c.arrows}, name=f"1_{c.name}")


def compose_functors(g: FunctorData, f: FunctorData) -> FunctorData:
    """g after f."""
    if f.target != g.source:
        raise TypeMismatch("functor boundaries do not match")
    return FunctorData(
        f.source, g.target,
        {x: g.omap[f.omap[x]] for x in f.source.objects},
        {a: g.amap[f.amap[a]] for a in f.source.arrows},
        name=f"{g.name}.{f.name}")


def constant_functor(c: FinCategory, d: FinCategory, obj) -> FunctorData:
    return FunctorData(c, d, {x: obj for x in c.objects},
                       {a: d.identity[obj] for a in c.arrows},
                       name=f"const_{obj}")


def point_functor(d: FinCategory, obj) -> FunctorData:
    """The functor from the terminal category picking out obj."""
    return constant_functor(TERMINAL_CATEGORY, d, obj)


class NatTransfData:
    """A natural transformation, as a component arrow per source object."""

    def __init__(self, source: FunctorData, target: FunctorData, components,
                 name="alpha", _validate=True):
        self.source = source
        self.target = target
        self.components = dict(components)
        self.name = name
        if _validate:
            require_valid(name, validate_nat_transf(self))

    def at(self, x):
        return self.components[x]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, NatTransfData):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.components == other.components)

    def __repr__(self):
        return f"NatTransfData({self.name}: {self.source.name}=>{self.target.name})"


def validate_nat_transf(t: NatTransfData):
    problems = []
    f, g = t.source, t.target
    if f.source != g.source or f.target != g.target:
        return ["source and target functors are not parallel"]
    c, d = f.source, f.target
    for x in c.objects:
        comp = t.components.get(x)
        if comp is None or comp not in d.arrows:
            problems.append(f"missing component at {x}")
            continue
        a = d.arrows[comp]
        if a.src != f.omap[x] or a.dst != g.omap[x]:
            problems.append(f"component at {x} has wrong boundary")
    if problems:
        return problems
    for aid, a in c.arrows.items():
        left = d.table[(t.components[a.dst], f.amap[aid])]
        right = d.table[(g.amap[aid], t.components[a.src])]
        if left != right:
            problems.append(f"naturality fails at arrow {aid}")
    return problems


def identity_transf(f: FunctorData) -> NatTransfData:
    return NatTransfData(f, f, {x: f.target.identity[f.omap[x]] for x in f.source.objects},
                         name=f"id_{f.name}")


def is_invertible_transf(t: NatTransfData) -> bool:
    return all(t.source.target.is_iso(a) for a in t.components.values())


def inverse_transf(t: NatTransfData) -> NatTransfData:
    d = t.source.target
    comps = {}
    for x, a in t.components.items():
        inv = d.inverse(a)
        if inv is None:
            raise NotInvertible(f"component at {x} has no inverse")
        comps[x] = inv
    return NatTransfData(t.target, t.source, comps, name=f"{t.name}^-1")


def vcomp(after: NatTransfData, before: NatTransfData) -> NatTransfData:
    """Vertical composite: before first, then after."""
    if before.target != after.source:
        raise BoundaryMismatch("vertical composite of non-adjacent cells")
    d = before.source.target
    comps = {x: d.table[(after.components[x], before.components[x])]
             for x in before.source.source.objects}
    return NatTransfData(before.source, after.target, comps,
                         name=f"{after.name}.{before.name}")


def whisker_left(h: FunctorData, t: NatTransfData) -> NatTransfData:
    """h applied after both boundary functors: components h(t_x)."""
    if t.source.target != h.source:
        raise BoundaryMismatch("left whisker boundary mismatch")
    return NatTransfData(
        compose_functors(h, t.source), compose_functors(h, t.target),
        {x: h.amap[t.components[x]] for x in t.source.source.objects},
        name=f"{h.name}*{t.name}")


def whisker_right(t: NatTransfData, h: FunctorData) -> NatTransfData:
    """Both boundary functors precomposed with h: components t_{h(x)}."""
    if h.target != t.source.source:
        raise BoundaryMismatch("right whisker boundary mismatch")
    return NatTransfData(
        compose_functors(t.source, h), compose_functors(t.target, h),
        {x: t.components[h.omap[x]] for x in h.source.objects},
        name=f"{t.name}*{h.name}")


# ---------------------------------------------------------------------------
# Enumeration.

# The budget of the brute-force searches below: the two categories' object
# counts multiply to at most MAX_OBJECTS squared, and neither has more than
# MAX_ARROWS arrows.  Both are read when a search starts, and a larger pair
# stops with SizeCap before any functor or transformation is built.
MAX_OBJECTS = 5
MAX_ARROWS = 12


def _check_bound(c: FinCategory, d: FinCategory):
    if len(c.objects) * len(d.objects) > MAX_OBJECTS * MAX_OBJECTS:
        raise SizeCap(f"{c.name} -> {d.name}: object count product "
                      f"{len(c.objects)}x{len(d.objects)} "
                      f"over the bound of {MAX_OBJECTS}x{MAX_OBJECTS} "
                      f"(cat.MAX_OBJECTS)")
    arrows = max(len(c.arrows), len(d.arrows))
    if arrows > MAX_ARROWS:
        raise SizeCap(f"{c.name} -> {d.name}: arrow count {arrows} "
                      f"over the bound of {MAX_ARROWS} "
                      f"(cat.MAX_ARROWS)")


def enumerate_functors(c: FinCategory, d: FinCategory):
    """All functors c -> d, in lexicographic object-map then arrow-map order."""
    _check_bound(c, d)
    results = []
    objs = sorted(c.objects)
    non_id = [a for a in c.sorted_arrow_ids() if not c.is_identity_arrow(a)]
    for images in itertools.product(sorted(d.objects), repeat=len(objs)):
        omap = dict(zip(objs, images))
        candidates = []
        dead = False
        for aid in non_id:
            a = c.arrows[aid]
            h = sorted(d.hom(omap[a.src], omap[a.dst]))
            if not h:
                dead = True
                break
            candidates.append(h)
        if dead:
            continue
        for choice in itertools.product(*candidates):
            amap = {c.identity[x]: d.identity[omap[x]] for x in objs}
            amap.update(dict(zip(non_id, choice)))
            ok = True
            for (g, f), comp in c.table.items():
                if d.table[(amap[g], amap[f])] != amap[comp]:
                    ok = False
                    break
            if ok:
                results.append(FunctorData(c, d, omap, amap, _validate=False))
    return results


def enumerate_nat_transfs(f: FunctorData, g: FunctorData):
    """All natural transformations f => g, ordered by component choice."""
    if f.source != g.source or f.target != g.target:
        raise TypeMismatch("functors are not parallel")
    _check_bound(f.source, f.target)
    c, d = f.source, f.target
    objs = sorted(c.objects)
    candidates = []
    for x in objs:
        h = sorted(d.hom(f.omap[x], g.omap[x]))
        if not h:
            return []
        candidates.append(h)
    results = []
    for choice in itertools.product(*candidates):
        comps = dict(zip(objs, choice))
        ok = True
        for aid, a in c.arrows.items():
            if d.table[(comps[a.dst], f.amap[aid])] != d.table[(g.amap[aid], comps[a.src])]:
                ok = False
                break
        if ok:
            results.append(NatTransfData(f, g, comps, _validate=False))
    return results
