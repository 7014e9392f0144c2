"""Instance corpora feeding the law engine.

Exhaustive layers enumerate every 1-cell of a finitely enumerable fragment
at small size; seeded random layers add a fixed number of draws at the next
sizes up.  Relation carriers admit infinitely many multiset relations, so
their "exhaustive" layers are fragments: premises of size at most one,
plus an axiom-set/partial-graph fragment where the full space is too big.
Category instances are a fixed gallery of finite categories whose
endofunctor chains stabilize.

Corpus builders take (draws, seed); draws is the exact number of random
instances added on top of the exhaustive layer, split between the endo,
dinat-pair, and uniformity-square channels, and may not be negative.  A
thin builder lists only its exhaustive layers: endos, dinat pairs and
triples, and the endos and strict 1-cells its squares range over.
`_square_search` finds those uniformity squares, `derive_channels` builds
the stacks, cells, thetas, transports and dinat squares from the exhaustive
pairs and squares, and `_random_tail` appends the seeded random endos,
pairs and squares.  Each takes the family's own functions (compose, and
identity where it needs one), never an adapter: the adapters' registry
imports this module, not the other way round.

A builder enumerates the exhaustive 1-cells between each pair of objects
once, into one table, and lists its exhaustive dinat pairs, triples and
squares from that table: a pair or triple holds the table's objects, not
fresh copies of them.

`rel_corpus` also sets the corpus's `laws.Symmetry`: the orbits of its
exhaustive endos, endo cells and dinat pairs under relabelling each
carrier, each orbit listed by its first labelled member.  It computes
them on every build, by index arithmetic on the generators' own product
order (a bit product over slots, a mixed-radix product over outputs),
without relabelling a relation.  `laws.run_laws` and
`laws.compare_operators` judge one instance per orbit where the
adapter's star passes an equivariance check.
"""

import itertools
import math
import random

from . import cat, poset, rel
from .errors import ValidationError
from .laws import Corpus, Symmetry, ThinCell

TRIPLE_CAP = 900        # dinat one-naturality triples per model
STACK_CAP = 400         # stacked uniformity squares per model
DERIVED_CAP = 200       # theta / transport / dinat-square channels per model


def _stride_indices(total, cap):
    """The indices a stride sample keeps out of range(total): every step-th
    one, step = ceil(total / cap), at most cap of them."""
    if total <= cap:
        return range(total)
    return range(0, total, -(-total // cap))[:cap]


def _stride_sample(items, cap):
    """Deterministic spread sample: every k-th item, at most cap of them."""
    items = list(items)
    return [items[i] for i in _stride_indices(len(items), cap)]


def _stride_sample_products(blocks, cap):
    """_stride_sample of the concatenated itertools.product(*factors) over
    blocks, without building the products: each kept index is decoded in
    mixed radix, last factor fastest, inside the block it falls in."""
    sizes = [math.prod(map(len, factors)) for factors in blocks]
    out = []
    block = start = 0
    for i in _stride_indices(sum(sizes), cap):
        while i >= start + sizes[block]:
            start += sizes[block]
            block += 1
        rest, picked = i - start, []
        for factor in reversed(blocks[block]):
            rest, j = divmod(rest, len(factor))
            picked.append(factor[j])
        out.append(tuple(reversed(picked)))
    return out


def _draw_counts(draws):
    """The random endos, dinat pairs and squares `draws` splits into."""
    if draws < 0:
        raise ValidationError(f"draws must be nonnegative, got {draws}")
    return (draws + 2) // 3, (draws + 1) // 3, draws // 3


def _transitive_closure(pairs):
    """The least transitive relation containing `pairs`, as a set."""
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        for (x, y) in list(closed):
            for (y2, z) in list(closed):
                if y2 == y and (x, z) not in closed:
                    closed.add((x, z))
                    changed = True
    return closed


def _square_search(objs, endos, strict_maps, compose):
    """Every uniformity square (s, f, g, s.f => g.s) with s in
    strict_maps(a, b) and f, g in endos(a), endos(b), over objs.  Each s
    buckets the endos g, with g.s, by g.s; each s.f then finds its g's by
    value, and a square's 2-cell reuses the bucketed g.s.  So compose runs
    once per (s, g) and once per (s, f), never once per square."""
    squares = []
    for a in objs:
        endos_a = endos(a)
        for b in objs:
            endos_b = endos(b)
            for s in strict_maps(a, b):
                left = {}
                for g in endos_b:
                    gs = compose(g, s)
                    left.setdefault(gs, []).append((g, gs))
                for f in endos_a:
                    sf = compose(s, f)
                    for g, gs in left.get(sf, ()):
                        squares.append((s, f, g, ThinCell(sf, gs)))
    return squares


def _random_tail(c, seed, counts, obj, mp, conj, closure):
    """Append the seeded random layer to thin corpus `c`: counts[0] endos,
    counts[1] dinat pairs and counts[2] squares, at sizes 4 and 5.
    `obj(rng, size, name)` draws an object, `mp(rng, a, b)` a 1-cell a -> b;
    even squares are `conj(rng, g, i)`, odd ones `closure(g)`."""
    n_endo, n_pair, n_square = counts
    rng = random.Random(seed)
    for i in range(n_endo):
        a = obj(rng, 4 + i % 2, f"R{i}")
        c.endos.append(mp(rng, a, a))
    for i in range(n_pair):
        a = obj(rng, 4 + i % 2, f"Ra{i}")
        b = obj(rng, 5 - i % 2, f"Rb{i}")
        c.dinat_pairs.append((mp(rng, a, b), mp(rng, b, a)))
    for i in range(n_square):
        a = obj(rng, 4 + i % 2, f"Rs{i}")
        g = mp(rng, a, a)
        c.unif_squares.append(conj(rng, g, i) if i % 2 == 0 else closure(g))


def derive_channels(c, identity, compose):
    """Fill the channels of thin corpus `c` that are derived from its
    dinat pairs and uniformity squares, with the family's `identity(obj)`
    and `compose(g, f)`.

    A stack puts a square (s, f, g, y) under one (r, g', h, p) whose
    middle endo g' equals g, by value.  Thetas and transports are identity
    cells over a stride sample of the squares, and the dinat squares are
    identity squares over a stride sample of the pairs."""
    pair_sample = _stride_sample(c.dinat_pairs, DERIVED_CAP)
    c.dinat_cells = [(ThinCell(f, f), g) for (f, g) in pair_sample]

    by_middle = {}              # lower squares, by their g
    for sq in c.unif_squares:
        by_middle.setdefault(sq[2], []).append(sq)
    c.unif_stacks = _stride_sample_products(   # under each (r, g, ...)
        [(by_middle.get(sq[1], ()), (sq,)) for sq in c.unif_squares],
        STACK_CAP)

    sample_squares = _stride_sample(c.unif_squares, DERIVED_CAP)
    c.unif_thetas = [(ThinCell(s, s), f, g, gamma, gamma)
                     for (s, f, g, gamma) in sample_squares]
    c.unif_transports = [(s, ThinCell(f, f), ThinCell(g, g), gamma, gamma)
                         for (s, f, g, gamma) in sample_squares]
    for (f, g) in pair_sample:
        ida, idb = identity(f.source), identity(f.target)
        c.unif_dinat.append(
            (ida, idb, f, g, f, g,
             ThinCell(compose(idb, f), compose(f, ida)),
             ThinCell(compose(ida, g), compose(g, idb))))


# ---------------------------------------------------------------------------
# Pointed posets.

def _preorders_on(k):
    """One representative per isomorphism class of preorders on range(k),
    each as its set of off-diagonal pairs: the first member of its class
    in a fixed enumeration of the subsets of those pairs."""
    idx = list(range(k))
    offdiag = [(i, j) for i in idx for j in idx if i != j]
    seen, reps = set(), []
    for bits in itertools.product((0, 1), repeat=len(offdiag)):
        sel = frozenset(p for p, keep in zip(offdiag, bits) if keep)
        if any(i != l and (i, l) not in sel
               for (i, j) in sel for (j2, l) in sel if j2 == j):
            continue
        canon = min(tuple(sorted((p[i], p[j]) for (i, j) in sel))
                    for p in itertools.permutations(idx))
        if canon not in seen:
            seen.add(canon)
            reps.append(sel)
    return reps


def strict_orders_upto_iso(k):
    """One representative per isomorphism class of strict orders on range(k):
    the antisymmetric classes of `_preorders_on(k)`, as isomorphisms keep
    antisymmetry."""
    return [sel for sel in _preorders_on(k)
            if not any((j, i) in sel for (i, j) in sel)]


def pointed_posets(max_size=4):
    """Pointed posets with at most max_size elements, one per iso class.

    A pointed poset is a fresh bottom under an arbitrary poset, so the
    classes are exactly the strict-order classes one size down.
    """
    out = []
    for k in range(max_size):
        for idx, sel in enumerate(strict_orders_upto_iso(k)):
            elements = ["b"] + [f"e{i}" for i in range(k)]
            leq = {(x, x) for x in elements} | {("b", x) for x in elements} | \
                  {(f"e{i}", f"e{j}") for (i, j) in sel}
            out.append(poset.PointedPoset(elements, leq, "b",
                                          name=f"P{k + 1}_{idx}",
                                          _validate=False))
    return out


def monotone_maps(p, q):
    elems = p.elements
    pairs = [(x, y) for (x, y) in p.leq_pairs if x != y]
    out = []
    for images in itertools.product(q.elements, repeat=len(elems)):
        assignment = dict(zip(elems, images))
        if all(q.leq(assignment[x], assignment[y]) for (x, y) in pairs):
            out.append(poset.MonotoneMap(p, q, assignment, _validate=False))
    return out


def random_pointed_poset(rng, size, name):
    k = size - 1
    up = _transitive_closure((i, j) for i in range(k) for j in range(i + 1, k)
                             if rng.random() < 0.4)
    elements = ["b"] + [f"e{i}" for i in range(k)]
    leq = {(x, x) for x in elements} | {("b", x) for x in elements} | \
          {(f"e{i}", f"e{j}") for (i, j) in up}
    return poset.PointedPoset(elements, leq, "b", name=name, _validate=False)


def random_monotone_map(rng, p, q, tries=300):
    pairs = [(x, y) for (x, y) in p.leq_pairs if x != y]
    for _ in range(tries):
        assignment = {x: rng.choice(q.elements) for x in p.elements}
        if all(q.leq(assignment[x], assignment[y]) for (x, y) in pairs):
            return poset.MonotoneMap(p, q, assignment, _validate=False)
    return poset.MonotoneMap(p, q, {x: q.bottom for x in p.elements},
                             _validate=False)


def relabeled_poset_iso(p, tag):
    """A renamed copy of p with the renaming iso and its inverse."""
    mapping = {x: f"{tag}{i}" for i, x in enumerate(p.elements)}
    q = poset.PointedPoset(
        [mapping[x] for x in p.elements],
        {(mapping[x], mapping[y]) for (x, y) in p.leq_pairs},
        mapping[p.bottom], name=f"{p.name}~{tag}", _validate=False)
    fwd = poset.MonotoneMap(p, q, mapping, _validate=False)
    back = poset.MonotoneMap(q, p, {v: k for k, v in mapping.items()},
                             _validate=False)
    return q, fwd, back


def poset_conjugation_square(f, tag):
    """s f s^-1 on a renamed copy; the renaming iso is strict."""
    _, s, s_inv = relabeled_poset_iso(f.source, tag)
    g = poset.compose_maps(poset.compose_maps(s, f), s_inv)
    gamma = ThinCell(poset.compose_maps(s, f), poset.compose_maps(g, s))
    return (s, f, g, gamma)


def poset_closure_square(g):
    """Restrict g to the orbit of bottom; the inclusion intertwines them."""
    b = g.source
    orbit = set(poset.iterates(g))
    elems = [e for e in b.elements if e in orbit]
    sub = poset.PointedPoset(
        elems, {(u, v) for (u, v) in b.leq_pairs if u in orbit and v in orbit},
        b.bottom, name=f"{b.name}|orb", _validate=False)
    f = poset.MonotoneMap(sub, sub, {e: g(e) for e in elems}, _validate=False)
    s = poset.MonotoneMap(sub, b, {e: e for e in elems}, _validate=False)
    gamma = ThinCell(poset.compose_maps(s, f), poset.compose_maps(g, s))
    return (s, f, g, gamma)


def poset_corpus(draws=1000, seed=0):
    counts = _draw_counts(draws)
    posets = pointed_posets(3)
    maps = {(a, b): monotone_maps(a, b) for a in posets for b in posets}
    c = Corpus()
    for p in posets:
        c.endos.extend(maps[p, p])
    c.endo_cells = [ThinCell(f, f) for f in c.endos]
    for a in posets:
        for b in posets:
            for f in maps[a, b]:
                for g in maps[b, a]:
                    c.dinat_pairs.append((f, g))
    c.dinat_triples = _stride_sample_products(
        [(maps[a, b], maps[b, cc], maps[cc, a])
         for a, b, cc in itertools.product(posets, repeat=3)], TRIPLE_CAP)
    c.unif_squares = _square_search(
        posets, lambda p: maps[p, p],
        lambda a, b: [s for s in maps[a, b] if s.is_bottom_preserving()],
        poset.compose_maps)
    derive_channels(c, poset.identity_map, poset.compose_maps)
    _random_tail(c, seed, counts, random_pointed_poset, random_monotone_map,
                 lambda rng, g, i: poset_conjugation_square(g, f"c{i}_"),
                 poset_closure_square)
    return c


# ---------------------------------------------------------------------------
# Multiset relations.

def rel_carrier(n, prefix="r"):
    return tuple(f"{prefix}{i}" for i in range(n))


def rel_fragment_endos(carrier):
    """Every endo-relation whose premises have size at most one."""
    prems = [rel.EMPTY_MSET] + [rel.mset([a]) for a in carrier]
    slots = [(m, b) for m in prems for b in carrier]
    out = []
    for bits in itertools.product((0, 1), repeat=len(slots)):
        pairs = {s for s, keep in zip(slots, bits) if keep}
        out.append(rel.MultisetRel(carrier, carrier, pairs, _validate=False))
    return out


def rel_partial_graphs(a, b):
    """At most one pair per output, premise empty or a singleton."""
    opts = [None, rel.EMPTY_MSET] + [rel.mset([x]) for x in a]
    out = []
    for combo in itertools.product(opts, repeat=len(b)):
        pairs = {(m, y) for m, y in zip(combo, b) if m is not None}
        out.append(rel.MultisetRel(a, b, pairs, _validate=False))
    return out


def rel_function_rels(a, b):
    out = []
    for images in itertools.product(b, repeat=len(a)):
        table = dict(zip(a, images))
        out.append(rel.mrel_from_function(a, b, lambda x, t=table: t[x]))
    return out


def random_mrel(rng, a, b):
    pairs = set()
    for y in b:
        for _ in range(rng.choice((0, 1, 1, 2))):
            size = rng.choice((0, 1, 1, 2))
            pairs.add((rel.mset(rng.choice(a) for _ in range(size)), y))
    return rel.MultisetRel(a, b, pairs, _validate=False)


def rel_conjugation_square(rng, f, prefix):
    a = f.source
    b = rel_carrier(len(a), prefix)
    perm = list(b)
    rng.shuffle(perm)
    table = dict(zip(a, perm))
    s = rel.mrel_from_function(a, b, lambda x: table[x])
    back = {v: k for k, v in table.items()}
    s_inv = rel.mrel_from_function(b, a, lambda y: back[y])
    g = rel.mrel_compose(rel.mrel_compose(s, f), s_inv)
    gamma = ThinCell(rel.mrel_compose(s, f), rel.mrel_compose(g, s))
    return (s, f, g, gamma)


def rel_closure_square(g):
    """Restrict g to its derivation-closed set of derivable elements."""
    closed = {b for (_, b) in rel.mrel_star(g).pairs}
    a = tuple(x for x in g.source if x in closed)
    f = rel.MultisetRel(a, a, {(m, b) for (m, b) in g.pairs
                               if rel.mset_support(m) <= closed and b in closed},
                        _validate=False)
    s = rel.MultisetRel(a, g.source, {(rel.mset([x]), x) for x in a},
                        _validate=False)
    gamma = ThinCell(rel.mrel_compose(s, f), rel.mrel_compose(g, s))
    return (s, f, g, gamma)


def _product_images(contribs):
    """The image of every index of a product of digits, in product order
    (first digit slowest), under a relabelling that sends digit k of
    value v to the index contribution contribs[k][v]: an index is the sum
    of its digits' contributions, so its image is too."""
    table = [0]
    for contrib in contribs:
        table = [t + x for t in table for x in contrib]
    return table


def _endo_images(perm):
    """Where relabelling by perm (x -> perm[x]) sends an index of
    rel_fragment_endos on a carrier of len(perm) elements, as a function
    of the index.  The endos are a bit product over the slots (premise,
    output), premise p = 0 empty and p = 1 + x the singleton of element
    x, first slot most significant; relabelling moves the slot (p, b) to
    (p and 1 + perm[p - 1], perm[b]).  The image sums one table entry for
    each half of the slots, so the tables hold 2 * 64 entries, not 4,096,
    on three elements."""
    n = len(perm)
    last = (n + 1) * n - 1
    moved = [(p and 1 + perm[p - 1]) * n + perm[b]
             for p in range(n + 1) for b in range(n)]
    contribs = [(0, 1 << (last - k)) for k in moved]
    low = len(contribs) // 2
    high_table = _product_images(contribs[:-low])
    low_table = _product_images(contribs[-low:])
    mask = (1 << low) - 1
    return lambda i: high_table[i >> low] + low_table[i & mask]


def _graph_images(src_perm, dst_perm):
    """Where relabelling the source by src_perm and the target by dst_perm
    sends each index of rel_partial_graphs: a mixed-radix product over the
    outputs, first output most significant, of the digit 0 (no pair),
    1 (the empty premise) or 2 + x (the singleton of source element x);
    relabelling moves output y's digit to dst_perm[y] and maps its value
    2 + x to 2 + src_perm[x]."""
    radix = len(src_perm) + 2
    values = [0, 1] + [2 + x for x in src_perm]
    last = len(dst_perm) - 1
    return _product_images([[v * radix ** (last - dst_perm[y]) for v in values]
                            for y in range(len(dst_perm))])


def _rel_endo_orbits(carriers):
    """The orbits of the rel endo layer, rel_fragment_endos(a) for each a
    in carriers in turn, under relabelling each carrier: the layer's
    (reps, sizes), and the function that lists, for an endo's index,
    (names, index of its image) for every relabelling but the identity,
    names mapping each element to its new name."""
    reps, sizes = [], []
    blocks = []             # (offset, the carrier's relabellings but one)
    offset = 0
    for a in carriers:
        # permutations() yields the identity first
        group = [({x: a[i] for x, i in zip(a, perm)}, _endo_images(perm))
                 for perm in itertools.permutations(range(len(a)))][1:]
        count = 1 << (len(a) + 1) * len(a)
        seen = bytearray(count)
        for i in range(count):
            if not seen[i]:
                orbit = {i}.union(image(i) for _, image in group)
                for j in orbit:
                    seen[j] = 1
                reps.append(offset + i)
                sizes.append(len(orbit))
        blocks.append((offset, group))
        offset += count

    def images(r):
        start, group = next(b for b in reversed(blocks) if b[0] <= r)
        return [(names, start + image(r - start)) for names, image in group]
    return (reps, sizes), images


def _rel_pair_orbits(carriers):
    """The (reps, sizes) of the exhaustive rel dinat pairs, the product of
    rel_partial_graphs(a, b) and (b, a) for each a, b in carriers in turn,
    under relabelling a and b independently: (f, g) goes to
    (t f s^-1, s g t^-1)."""
    reps, sizes = [], []
    offset = 0
    for a in carriers:
        for b in carriers:
            group = [(_graph_images(s, t), _graph_images(t, s))
                     for s in itertools.permutations(range(len(a)))
                     for t in itertools.permutations(range(len(b)))]
            width = len(group[0][1])
            count = len(group[0][0]) * width
            seen = bytearray(count)
            for i in range(count):
                if not seen[i]:
                    f, g = divmod(i, width)
                    orbit = {fs[f] * width + gs[g] for fs, gs in group}
                    for j in orbit:
                        seen[j] = 1
                    reps.append(offset + i)
                    sizes.append(len(orbit))
            offset += count
    return reps, sizes


def rel_corpus(draws=1000, seed=0):
    """The rel corpus, with the `Symmetry` of its exhaustive endos,
    endo_cells and dinat pairs, computed on every build.  Every endo those
    channels star is in the endo layer: an endo itself, or a composite fg
    or gf of partial graphs, whose premises have size at most one."""
    counts = _draw_counts(draws)
    carriers = [rel_carrier(n) for n in (1, 2, 3)]
    c = Corpus()
    for a in carriers:
        c.endos.extend(rel_fragment_endos(a))
    c.endo_cells = [ThinCell(f, f) for f in c.endos]
    graphs = {(a, b): rel_partial_graphs(a, b)
              for a in carriers for b in carriers}
    for a in carriers:
        for b in carriers:
            c.dinat_pairs.extend(itertools.product(graphs[a, b], graphs[b, a]))
    endo_orbits, images = _rel_endo_orbits(carriers)
    c.symmetry = Symmetry({"endos": endo_orbits, "endo_cells": endo_orbits,
                           "dinat_pairs": _rel_pair_orbits(carriers)},
                          images, rel.mrel_rename)
    c.dinat_triples = _stride_sample_products(
        [(graphs[a, a],) * 3 for a in carriers], TRIPLE_CAP)
    c.unif_squares = _square_search(carriers, lambda a: graphs[a, a],
                                    rel_function_rels, rel.mrel_compose)
    derive_channels(c, rel.mrel_identity, rel.mrel_compose)
    big = {4: rel_carrier(4), 5: rel_carrier(5)}
    _random_tail(c, seed, counts, lambda rng, n, name: big[n], random_mrel,
                 lambda rng, g, i: rel_conjugation_square(rng, g, f"q{i}_"),
                 rel_closure_square)
    return c


# ---------------------------------------------------------------------------
# Ideal relations over preorders.

def preorders_upto_iso(max_size=3):
    out = []
    for k in range(1, max_size + 1):
        for count, sel in enumerate(_preorders_on(k)):
            leq = {(f"s{i}", f"s{j}") for (i, j) in sel}
            leq |= {(f"s{i}", f"s{i}") for i in range(k)}
            out.append(rel.Preorder([f"s{i}" for i in range(k)], leq,
                                    name=f"Q{k}_{count}", _validate=False))
    return out


def scott_fragment_endos(pre):
    """Premise-size <= 1 endos: the full space at size <= 2, the axiom-set
    by partial-graph fragment at size 3 (the full space is out of reach).

    At size 3 an axiom ((), b) subsumes every (u, b), so only the outputs
    that are not axioms get a premise choice.  A choice with None in every
    axiom position comes first in product order among those it stands for,
    so each distinct relation keeps the place of its first occurrence."""
    elems = pre.elements
    seen, out = set(), []

    def push(pairs):
        r = rel.IdealRel(pre, pre, pairs, _validate=False)
        if r.pairs not in seen:
            seen.add(r.pairs)
            out.append(r)

    if len(elems) <= 2:
        slots = [(u, b) for u in [()] + [(x,) for x in elems] for b in elems]
        for bits in itertools.product((0, 1), repeat=len(slots)):
            push({s for s, keep in zip(slots, bits) if keep})
    else:
        opts = [None, ()] + [(x,) for x in elems]
        axiom_sets = itertools.chain.from_iterable(
            itertools.combinations(elems, r) for r in range(len(elems) + 1))
        for axioms in axiom_sets:
            ax = {((), b) for b in axioms}
            free = [b for b in elems if b not in axioms]
            for combo in itertools.product(opts, repeat=len(free)):
                push(ax | {(u, b) for u, b in zip(combo, free)
                           if u is not None})
    return out


def scott_partial_graphs(a, b):
    opts = [None, ()] + [(x,) for x in a.elements]
    seen, out = set(), []
    for combo in itertools.product(opts, repeat=len(b.elements)):
        pairs = {(u, y) for u, y in zip(combo, b.elements) if u is not None}
        r = rel.IdealRel(a, b, pairs, _validate=False)
        if r.pairs not in seen:
            seen.add(r.pairs)
            out.append(r)
    return out


def random_preorder(rng, size, name):
    elems = [f"s{i}" for i in range(size)]
    leq = _transitive_closure(
        [(x, x) for x in elems]
        + [(x, y) for x in elems for y in elems if x != y and rng.random() < 0.3])
    return rel.Preorder(elems, leq, name=name, _validate=False)


def random_ideal_rel(rng, a, b):
    pairs = set()
    for y in b.elements:
        for _ in range(rng.choice((0, 1, 1, 2))):
            size = rng.choice((0, 1, 1, 2))
            pairs.add((rel.uset(rng.choice(a.elements) for _ in range(size)), y))
    return rel.IdealRel(a, b, pairs, _validate=False)


def scott_relabel_iso(pre, tag):
    mapping = {x: f"{tag}{i}" for i, x in enumerate(pre.elements)}
    q = rel.Preorder([mapping[x] for x in pre.elements],
                     {(mapping[x], mapping[y]) for (x, y) in pre.leq_pairs},
                     name=f"{pre.name}~{tag}", _validate=False)
    fwd = rel.scott_from_function(pre, q, lambda x: mapping[x])
    back_map = {v: k for k, v in mapping.items()}
    back = rel.scott_from_function(q, pre, lambda y: back_map[y])
    return q, fwd, back


def scott_conjugation_square(f, tag):
    _, s, s_inv = scott_relabel_iso(f.source, tag)
    g = rel.scott_compose(rel.scott_compose(s, f), s_inv)
    gamma = ThinCell(rel.scott_compose(s, f), rel.scott_compose(g, s))
    return (s, f, g, gamma)


def scott_closure_square(g):
    """Restrict g to its star set; that set is derivation and down closed."""
    pre = g.source
    closed = rel.scott_star_set(g)
    elems = tuple(x for x in pre.elements if x in closed)
    sub = rel.Preorder(elems, {(u, v) for (u, v) in pre.leq_pairs
                               if u in closed and v in closed},
                       name=f"{pre.name}|cl", _validate=False)
    f = rel.IdealRel(sub, sub, {(u, b) for (u, b) in g.pairs
                                if set(u) <= closed and b in closed},
                     _validate=False)
    s = rel.IdealRel(sub, pre, {((x,), x) for x in elems}, _validate=False)
    gamma = ThinCell(rel.scott_compose(s, f), rel.scott_compose(g, s))
    return (s, f, g, gamma)


def _scott_function_rels(pre):
    """Arbitrary self-maps as singleton-premise relations (not nec. monotone)."""
    elems = pre.elements
    seen, out = set(), []
    for images in itertools.product(elems, repeat=len(elems)):
        pairs = {((x,), y) for x, y in zip(elems, images)}
        r = rel.IdealRel(pre, pre, pairs, _validate=False)
        if r.pairs not in seen:
            seen.add(r.pairs)
            out.append(r)
    return out


def scott_corpus(draws=1000, seed=0):
    counts = _draw_counts(draws)
    pres = preorders_upto_iso(3)
    small = [p for p in pres if len(p.elements) <= 2]
    big3 = [p for p in pres if len(p.elements) == 3]
    c = Corpus()
    frags = {p: scott_fragment_endos(p) for p in pres}
    for p in pres:
        c.endos.extend(frags[p])
    c.endo_cells = [ThinCell(f, f)
                    for f in _stride_sample(c.endos, 4 * DERIVED_CAP)]
    graphs = {(a, b): scott_partial_graphs(a, b) for a in small for b in small}
    for a in small:
        for b in small:
            c.dinat_pairs.extend(itertools.product(graphs[a, b], graphs[b, a]))
    for p in big3:
        fns = _scott_function_rels(p)
        c.dinat_pairs.extend(itertools.product(fns, fns))
    c.dinat_triples = _stride_sample_products(
        [(graphs[p, p],) * 3 for p in small], TRIPLE_CAP)

    squares = _square_search(
        small, frags.__getitem__,
        lambda a, b: [s for s in graphs[a, b]
                      if all(len(u) == 1 for (u, _) in s.pairs)],
        rel.scott_compose)
    for p in big3:
        for f in _stride_sample(_scott_function_rels(p), 40):
            squares.append(scott_conjugation_square(f, f"t{len(squares)}_"))
    c.unif_squares = squares
    derive_channels(c, rel.scott_identity, rel.scott_compose)
    _random_tail(c, seed, counts, random_preorder, random_ideal_rel,
                 lambda rng, g, i: scott_conjugation_square(g, f"c{i}_"),
                 scott_closure_square)
    return c


# ---------------------------------------------------------------------------
# Finite categories.

TWO = cat.thin_category("two", ["0", "1"], {("0", "1")})
THREE = cat.thin_category("three", ["0", "1", "2"],
                          {("0", "1"), ("1", "2"), ("0", "2")})
JOIN_ONE = cat.thin_functor(TWO, TWO, {"0": "1", "1": "1"}, name="join1")
SUCC3 = cat.thin_functor(THREE, THREE, {"0": "1", "1": "2", "2": "2"},
                         name="succ")

WALK = cat.FinCategory(
    ["0", "x", "y"],
    [cat.Arrow("id_0", "0", "0"), cat.Arrow("id_x", "x", "x"),
     cat.Arrow("id_y", "y", "y"),
     cat.Arrow("0x", "0", "x"), cat.Arrow("0y", "0", "y"),
     cat.Arrow("i", "x", "y"), cat.Arrow("j", "y", "x")],
    {"0": "id_0", "x": "id_x", "y": "id_y"},
    {("id_0", "id_0"): "id_0", ("0x", "id_0"): "0x", ("0y", "id_0"): "0y",
     ("id_x", "0x"): "0x", ("i", "0x"): "0y",
     ("id_y", "0y"): "0y", ("j", "0y"): "0x",
     ("id_x", "id_x"): "id_x", ("i", "id_x"): "i",
     ("id_y", "id_y"): "id_y", ("j", "id_y"): "j",
     ("id_y", "i"): "i", ("j", "i"): "id_x",
     ("id_x", "j"): "j", ("i", "j"): "id_y"},
    name="walk")

F_WALK = cat.FunctorData(
    WALK, WALK, {"0": "x", "x": "y", "y": "x"},
    {"id_0": "id_x", "id_x": "id_y", "id_y": "id_x",
     "0x": "i", "0y": "id_x", "i": "j", "j": "i"},
    name="cycle")

WALK_SWAP = cat.FunctorData(
    WALK, WALK, {"0": "0", "x": "y", "y": "x"},
    {"id_0": "id_0", "id_x": "id_y", "id_y": "id_x",
     "0x": "0y", "0y": "0x", "i": "j", "j": "i"},
    name="swapxy")

AUT = cat.FinCategory(
    ["0", "z"],
    [cat.Arrow("id_0", "0", "0"), cat.Arrow("u", "0", "z"),
     cat.Arrow("e", "z", "z"), cat.Arrow("id_z", "z", "z")],
    {"0": "id_0", "z": "id_z"},
    {("id_0", "id_0"): "id_0", ("u", "id_0"): "u",
     ("e", "u"): "u", ("id_z", "u"): "u",
     ("e", "e"): "id_z", ("id_z", "e"): "e", ("e", "id_z"): "e",
     ("id_z", "id_z"): "id_z"},
    name="aut")

F_AUT = cat.FunctorData(AUT, AUT, {"0": "z", "z": "z"},
                        {"id_0": "id_z", "u": "e", "e": "id_z",
                         "id_z": "id_z"},
                        name="twist")

E_CELL = cat.NatTransfData(F_AUT, F_AUT, {"0": "e", "z": "e"}, name="twist_e")

IDEM = cat.FinCategory(
    ["0", "w"],
    [cat.Arrow("id_0", "0", "0"), cat.Arrow("u", "0", "w"),
     cat.Arrow("p", "w", "w"), cat.Arrow("id_w", "w", "w")],
    {"0": "id_0", "w": "id_w"},
    {("id_0", "id_0"): "id_0", ("u", "id_0"): "u",
     ("p", "u"): "u", ("id_w", "u"): "u",
     ("p", "p"): "p", ("id_w", "p"): "p", ("p", "id_w"): "p",
     ("id_w", "id_w"): "id_w"},
    name="idem")

F_IDEM = cat.FunctorData(IDEM, IDEM, {"0": "w", "w": "w"},
                         {"id_0": "id_w", "u": "p", "p": "id_w",
                          "id_w": "id_w"},
                         name="collapse")

U23 = cat.thin_functor(TWO, THREE, {"0": "0", "1": "2"}, name="skip1")
V32 = cat.thin_functor(THREE, TWO, {"0": "0", "1": "1", "2": "1"},
                       name="clamp")
CONST2 = cat.thin_functor(THREE, THREE, {"0": "2", "1": "2", "2": "2"},
                          name="const2")

S_X = cat.FunctorData(TWO, WALK, {"0": "0", "1": "x"},
                      {"id_0": "id_0", "id_1": "id_x", "0to1": "0x"},
                      name="pick_x")
S_Y = cat.FunctorData(TWO, WALK, {"0": "0", "1": "y"},
                      {"id_0": "id_0", "id_1": "id_y", "0to1": "0y"},
                      name="pick_y")
THETA_XY = cat.NatTransfData(S_X, S_Y, {"0": "id_0", "1": "i"}, name="steer")
COLLAPSE_X = cat.FunctorData(
    WALK, WALK, {"0": "x", "x": "x", "y": "x"},
    {"id_0": "id_x", "id_x": "id_x", "id_y": "id_x",
     "0x": "id_x", "0y": "id_x", "i": "id_x", "j": "id_x"},
    name="crush_x")


def cat_instances():
    """The fixed gallery: (label, category, endofunctor)."""
    return [("two/join1", TWO, JOIN_ONE),
            ("three/succ", THREE, SUCC3),
            ("walk/cycle", WALK, F_WALK),
            ("aut/twist", AUT, F_AUT),
            ("idem/collapse", IDEM, F_IDEM)]


def _cell(s, f, g):
    """The identity-component 2-cell s.f => g.s of a strictly commuting
    square."""
    sf = cat.compose_functors(s, f)
    comps = {x: sf.target.identity[sf.omap[x]] for x in sf.source.objects}
    return cat.NatTransfData(sf, cat.compose_functors(g, s), comps, name="sq")


def _square(s, f, g):
    return (s, f, g, _cell(s, f, g))


def cat_corpus():
    c = Corpus()
    pools = []                  # (identity, identity squares of its endos)
    for label, ambient, end in cat_instances():
        ident = cat.identity_functor(ambient)
        pool = [ident, end]
        squares = [_square(ident, f, f) for f in pool]
        pools.append((ident, squares))
        c.endos.extend(pool)
        c.endo_cells.extend(cat.identity_transf(f) for f in pool)
        c.dinat_pairs.extend(itertools.product(pool, pool))
        c.dinat_triples.extend(itertools.product(pool, pool, pool))
        c.dinat_cells.extend((cat.identity_transf(f), g)
                             for f in pool for g in pool)
        c.unif_squares.extend(squares)
    c.endo_cells.append(E_CELL)
    c.dinat_cells.append((E_CELL, cat.identity_functor(AUT)))
    c.dinat_cells.append((E_CELL, F_AUT))
    c.dinat_pairs.append((U23, V32))
    c.dinat_pairs.append((V32, U23))
    c.dinat_triples.append((U23, V32, cat.identity_functor(TWO)))

    def swapped(f):
        return cat.compose_functors(cat.compose_functors(WALK_SWAP, f),
                                    WALK_SWAP)

    # conjugation of the walking-iso cycle by the x/y swap automorphism
    g1 = swapped(F_WALK)
    swap_sq = _square(WALK_SWAP, F_WALK, g1)
    # strict inclusion of the 2-chain into the 3-chain
    incl_sq = _square(U23, JOIN_ONE, CONST2)
    # non-identity square cell on the involution category
    id_aut = cat.identity_functor(AUT)
    twist_sq = (id_aut, F_AUT, F_AUT,
                cat.NatTransfData(cat.compose_functors(id_aut, F_AUT),
                                  cat.compose_functors(F_AUT, id_aut),
                                  {"0": "e", "z": "e"}, name="twist_sq"))
    c.unif_squares.extend((swap_sq, incl_sq, twist_sq))

    for _, squares in pools:
        c.unif_stacks.extend((sq, sq) for sq in squares)
    c.unif_stacks.append((swap_sq, _square(WALK_SWAP, g1, F_WALK)))
    c.unif_stacks.append((twist_sq, twist_sq))

    for ident, squares in pools:
        theta = cat.identity_transf(ident)
        c.unif_thetas.extend((theta, f, f, gamma, gamma)
                             for (_, f, _, gamma) in squares)
    rho_y = cat.NatTransfData(cat.compose_functors(S_Y, JOIN_ONE),
                              cat.compose_functors(COLLAPSE_X, S_Y),
                              {"0": "j", "1": "j"}, name="steer_sq")
    c.unif_thetas.append((THETA_XY, JOIN_ONE, COLLAPSE_X,
                          _cell(S_X, JOIN_ONE, COLLAPSE_X), rho_y))

    for ident, squares in pools:
        c.unif_transports.extend(
            (ident, cat.identity_transf(f), cat.identity_transf(f),
             gamma, gamma) for (_, f, _, gamma) in squares)
    gamma_e = _cell(id_aut, F_AUT, F_AUT)
    c.unif_transports.append((id_aut, E_CELL, E_CELL, gamma_e, gamma_e))

    for ident, squares in pools:
        c.unif_dinat.extend(
            (ident, ident, f, g, f, g, gamma_f, gamma_g)
            for (_, f, _, gamma_f), (_, g, _, gamma_g)
            in itertools.product(squares, squares))
    for g in (cat.identity_functor(WALK), F_WALK):
        k = swapped(g)
        c.unif_dinat.append((WALK_SWAP, WALK_SWAP, F_WALK, g, g1, k,
                             swap_sq[3], _cell(WALK_SWAP, g, k)))
    id_two = cat.identity_functor(TWO)
    id_three = cat.identity_functor(THREE)
    c.unif_dinat.append((U23, U23, JOIN_ONE, id_two, CONST2, id_three,
                         incl_sq[3], _cell(U23, id_two, id_three)))
    return c
