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
dinat-pair, and uniformity-square channels.  It may not be negative, nor
over MAX_DRAWS (SizeCap), checked before anything is built.  A thin
builder lists only its exhaustive layers: endos, dinat pairs and
triples, and the endos and strict 1-cells its squares range over.
`_square_search` finds those uniformity squares, `derive_channels` builds
the stacks, cells, thetas, transports and dinat squares from the exhaustive
pairs and squares, and `_random_tail` appends the seeded random endos,
pairs and squares, in that order and from one `random.Random(seed)`, so
the random squares are drawn last.  Each takes the family's own functions
(compose, and identity where it needs one), never an adapter: the
adapters' registry imports this module, not the other way round.

`fixcat compare` reads only a corpus's endos and dinat pairs (with rel's
`Symmetry`).  `poset_cells` and `rel_cells` list exactly those channels
of `poset_corpus` and `rel_corpus`: one helper per family
(`_poset_exhaustive`, `_rel_exhaustive`) builds their exhaustive layers
for both builders, and the compare builder's random tail asks for no
squares, so it draws the same random endos and pairs.  They leave out
the endo cells, the triples, the square search, `derive_channels` and
the random squares, which compare never reads; the suite builders add
the endo cells right after the exhaustive layers.

A builder enumerates the exhaustive 1-cells between each pair of objects
once, into one table, and lists its exhaustive dinat pairs, triples and
squares from that table: a pair or triple holds the table's objects, not
fresh copies of them.

One builder, `_orbit_map`, computes every relabelling orbit from the
indices of a product-ordered enumeration alone, each listed by its least
index; an enumeration that lists only some indices of its product has
the orbits among them.  `_rel_exhaustive` maps the rel endos and dinat
pairs, on every build, into the corpus's `laws.Symmetry`, and
`rel_corpus` adds its squares, whose indices `_square_search` reports;
`laws.run_laws` and `laws.compare_operators` judge one instance per
orbit where the adapter's star passes an equivariance check.
`_preorders_on` keeps the transitive orbits of the subsets of the
off-diagonal pairs: preorders, strict orders and pointed posets come one
per isomorphism class.

The random samplers draw their choices through `_draws`, which takes from
the rng exactly the numbers `rng.choice` would, so a seed's instances are
those one `choice` per element would give.  Each sampler's docstring says
what it draws, in order: the contract the pinned fingerprints hold.
"""

import itertools
import math
import operator
import random

from . import cat, poset, rel
from .errors import SizeCap, ValidationError
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


# The most random draws a corpus builder takes, ten times the largest a
# shipped command or test asks for.  Each draw builds an instance at size
# 4 or 5, so a larger draws stops with SizeCap before any is built.
MAX_DRAWS = 10_000


def check_draws(draws):
    """Raise ValidationError for a negative `draws`, SizeCap for one over
    MAX_DRAWS."""
    if draws < 0:
        raise ValidationError(f"draws must be nonnegative, got {draws}")
    if draws > MAX_DRAWS:
        raise SizeCap(f"draws {draws} over the bound of {MAX_DRAWS} "
                      f"(corpora.MAX_DRAWS)")


def _draw_counts(draws):
    """The random endos, dinat pairs and squares `draws` splits into."""
    check_draws(draws)
    return (draws + 2) // 3, (draws + 1) // 3, draws // 3


def _transitive_closure(pairs):
    """The least transitive relation containing `pairs`, as a set, by
    Warshall's pass over successor rows: once every node with a successor
    has served as the middle node k, each row holds all its node reaches."""
    succ = {}
    for x, y in pairs:
        succ.setdefault(x, set()).add(y)
    for k, row_k in succ.items():
        for row in succ.values():
            if k in row:
                row |= row_k
    return {(x, y) for x, row in succ.items() for y in row}


def _square_search(objs, endos, strict_maps, compose):
    """Every uniformity square (s, f, g, s.f => g.s) with s in
    strict_maps(a, b) and f, g in endos(a), endos(b), over objs, and for
    each (a, b) in turn the indices of its squares in the product order of
    (s, f, g), ascending.  Each s buckets the endos g, with g.s, by g.s;
    each s.f then finds its g's by value, and a square's 2-cell reuses the
    bucketed g.s.  So compose runs once per (s, g) and once per (s, f),
    never once per square."""
    squares, members = [], []
    for a in objs:
        endos_a = endos(a)
        for b in objs:
            endos_b = endos(b)
            block = []
            for i, s in enumerate(strict_maps(a, b)):
                left = {}
                for k, g in enumerate(endos_b):
                    gs = compose(g, s)
                    left.setdefault(gs, []).append((k, gs))
                for j, f in enumerate(endos_a):
                    sf = compose(s, f)
                    for k, gs in left.get(sf, ()):
                        squares.append((s, f, endos_b[k], ThinCell(sf, gs)))
                        block.append((i * len(endos_a) + j) * len(endos_b) + k)
            members.append(block)
    return squares, members


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


def _product_images(contribs):
    """The image of every index of a product of digits, in product order
    (first digit slowest), under a relabelling that sends digit k of
    value v to the index contribution contribs[k][v]: an index is the sum
    of its digits' contributions, so its image is too."""
    table = [0]
    for contrib in contribs:
        table = [t + x for t in table for x in contrib]
    return table


# The most values a run of digits spans, and so the longest table of
# `_product_images` that `_orbit_map` keeps per relabelling and run.
_RUN_SPAN = 128


def _runs(radices):
    """The digits of `radices` cut into runs (start, stop) of consecutive
    digits, each spanning at most _RUN_SPAN values (a digit of a larger
    radix alone), greedily from the first digit."""
    runs, start, span = [], 0, 1
    for d, radix in enumerate(radices):
        if d > start and span * radix > _RUN_SPAN:
            runs.append((start, d))
            start, span = d, 1
        span *= radix
    runs.append((start, len(radices)))
    return runs


def _orbit_map(blocks):
    """The relabelling orbits of the listing that concatenates `blocks`,
    each (radices, group, members): a product of digits, first digit
    slowest; the group's relabellings but the identity, each (label,
    moves), sending digit k of value v to digit moves[k][0] with value
    moves[k][1][v]; and the product indices the block lists, ascending,
    or None for every index.  A block that lists only some indices keeps
    the orbits among them: each product orbit cut down to its listed
    members, the empty ones dropped.
    Returns (reps, sizes), each orbit listed by its least index in the
    listing, and the function listing (label, index of the image) under
    each relabelling of an index's block, but images the block does not
    list.  An image sums one `_product_images` entry per run of digits
    (`_runs`): a relabelling keeps 27 + 125 + 125 entries on rel's
    largest square block, where two halves of its digits would keep
    675 + 625 and one table 421,875."""
    reps, sizes, spans = [], [], []
    offset = 0
    for radices, group, members in blocks:
        weight = [math.prod(radices[d + 1:]) for d in range(len(radices))]
        contribs = [[[v * weight[d] for v in values] for d, values in moves]
                    for _, moves in group]
        parts = []              # (place, span, each value's images) per run
        for start, stop in _runs(radices):
            span = math.prod(radices[start:stop])
            tables = [_product_images(c[start:stop]) for c in contribs]
            parts.append((math.prod(radices[stop:]), span,
                          list(zip(*tables)) if tables else [()] * span))

        def image_indices(i, parts=parts):
            """The product index of i's image under each relabelling."""
            place, span, column = parts[0]
            found = column[i // place % span]
            for place, span, column in parts[1:]:
                found = map(operator.add, found, column[i // place % span])
            return found

        if members is None:     # each product index at its own position
            members = at = range(math.prod(radices))
        else:
            at = {i: p for p, i in enumerate(members)}
        seen = bytearray(len(members))
        for p in range(len(members)):
            if not seen[p]:
                found = image_indices(members[p])
                orbit = set(found if at is members else map(at.get, found))
                orbit.discard(None)
                orbit.add(p)
                for q in orbit:
                    seen[q] = 1
                reps.append(offset + p)
                sizes.append(len(orbit))
        spans.append((offset, members, at, [label for label, _ in group],
                      image_indices))
        offset += len(members)

    def images(i):
        start, members, at, labels, image_indices = next(
            s for s in reversed(spans) if s[0] <= i)
        found = image_indices(members[i - start])
        if at is members:
            return [(label, start + j) for label, j in zip(labels, found)]
        return [(label, start + at[j]) for label, j in zip(labels, found)
                if j in at]
    return (reps, sizes), images


def _draws(rng, seq, count):
    """`[rng.choice(seq) for _ in range(count)]`, drawing the same numbers
    from `random.Random` rng: like `choice`, each draw takes the first
    getrandbits(k) below n = len(seq), k = n.bit_length(), but inline,
    with no Python-level call per draw."""
    n = len(seq)
    if count and not n:
        raise IndexError("Cannot choose from an empty sequence")
    k = n.bit_length()
    out = []
    while len(out) < count:
        r = rng.getrandbits(k)
        if r < n:
            out.append(seq[r])
    return out


# The random relations draw, per output, how many pairs it gets and then,
# per pair, its premise size, each uniformly from this tuple.
_SPREAD = (0, 1, 1, 2)


def _relabellings(n):
    """The permutations of range(n) but the identity, yielded first."""
    return list(itertools.permutations(range(n)))[1:]


# ---------------------------------------------------------------------------
# Pointed posets.

def _preorders_on(k):
    """One representative per isomorphism class of preorders on range(k),
    each as its set of off-diagonal pairs: the first member of its class
    in product order over the subsets of those pairs, first pair slowest.
    Relabelling keeps transitivity, so these are the least indices of the
    `_orbit_map` orbits whose subsets are transitive."""
    offdiag = [(i, j) for i in range(k) for j in range(k) if i != j]
    at = {pair: d for d, pair in enumerate(offdiag)}
    (reps, _), _ = _orbit_map([
        ([2] * len(offdiag),
         [(None, [(at[perm[i], perm[j]], (0, 1)) for (i, j) in offdiag])
          for perm in _relabellings(k)], None)])
    last = len(offdiag) - 1
    out = []
    for r in reps:
        sel = frozenset(p for d, p in enumerate(offdiag) if r >> (last - d) & 1)
        if not any(i != l and (i, l) not in sel
                   for (i, j) in sel for (j2, l) in sel if j2 == j):
            out.append(sel)
    return out


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
    """A pointed poset on a fresh bottom "b" under e0..e{size-2}: one
    rng.random() per pair i < j, i slowest, puts ei below ej when it is
    under 0.4, and the order is the transitive closure of those pairs."""
    k = size - 1
    up = _transitive_closure((i, j) for i in range(k) for j in range(i + 1, k)
                             if rng.random() < 0.4)
    elements = ["b"] + [f"e{i}" for i in range(k)]
    leq = {(x, x) for x in elements} | {("b", x) for x in elements} | \
          {(f"e{i}", f"e{j}") for (i, j) in up}
    return poset.PointedPoset(elements, leq, "b", name=name, _validate=False)


def random_monotone_map(rng, p, q, tries=300):
    """A monotone map p -> q by rejection: each try draws the images of
    p.elements, in order, one `rng.choice(q.elements)` each, and the first
    monotone try is the map.  After `tries` failures it is the constant
    map to q's bottom, which draws nothing more."""
    at = {x: i for i, x in enumerate(p.elements)}
    pairs = [(at[x], at[y]) for (x, y) in p.leq_pairs if x != y]
    leq = q.leq_pairs
    for _ in range(tries):
        images = _draws(rng, q.elements, len(at))
        for i, j in pairs:
            if (images[i], images[j]) not in leq:
                break
        else:
            return poset.MonotoneMap(p, q, zip(p.elements, images),
                                     _validate=False)
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
    sf = poset.compose_maps(s, f)
    g = poset.compose_maps(sf, s_inv)
    gamma = ThinCell(sf, poset.compose_maps(g, s))
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


def _poset_exhaustive():
    """The exhaustive poset layers `fixcat compare` reads (endos, dinat
    pairs), with the posets and the table of monotone maps they come
    from."""
    posets = pointed_posets(3)
    maps = {(a, b): monotone_maps(a, b) for a in posets for b in posets}
    c = Corpus()
    for p in posets:
        c.endos.extend(maps[p, p])
    for a in posets:
        for b in posets:
            for f in maps[a, b]:
                for g in maps[b, a]:
                    c.dinat_pairs.append((f, g))
    return c, posets, maps


def _poset_tail(c, seed, counts):
    """`_random_tail` with the poset family's draws."""
    _random_tail(c, seed, counts, random_pointed_poset, random_monotone_map,
                 lambda rng, g, i: poset_conjugation_square(g, f"c{i}_"),
                 poset_closure_square)


def poset_cells(draws=1000, seed=0):
    """The poset channels `fixcat compare` reads: `poset_corpus`'s endos
    and dinat pairs, its random ones included."""
    n_endo, n_pair, _ = _draw_counts(draws)
    c, _, _ = _poset_exhaustive()
    _poset_tail(c, seed, (n_endo, n_pair, 0))
    return c


def poset_corpus(draws=1000, seed=0):
    counts = _draw_counts(draws)
    c, posets, maps = _poset_exhaustive()
    c.endo_cells = [ThinCell(f, f) for f in c.endos]
    c.dinat_triples = _stride_sample_products(
        [(maps[a, b], maps[b, cc], maps[cc, a])
         for a, b, cc in itertools.product(posets, repeat=3)], TRIPLE_CAP)
    c.unif_squares, _ = _square_search(
        posets, lambda p: maps[p, p],
        lambda a, b: [s for s in maps[a, b] if s.is_bottom_preserving()],
        poset.compose_maps)
    derive_channels(c, poset.identity_map, poset.compose_maps)
    _poset_tail(c, seed, counts)
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
    """A multiset relation a -> b: for each output y of b, in order, a
    pair count from `_SPREAD`, then per pair a premise size from
    `_SPREAD` and that many premise elements, one `rng.choice(a)` each."""
    pairs = set()
    for y in b:
        count, = _draws(rng, _SPREAD, 1)
        for _ in range(count):
            size, = _draws(rng, _SPREAD, 1)
            pairs.add((rel.mset(_draws(rng, a, size)), y))
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
    sf = rel.mrel_compose(s, f)
    g = rel.mrel_compose(sf, s_inv)
    gamma = ThinCell(sf, rel.mrel_compose(g, s))
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


def _rel_endo_block(a):
    """The `_orbit_map` block of rel_fragment_endos(a): a bit per slot
    (premise p, output b), p = 0 empty and p = 1 + x the singleton x.
    Relabelling by perm moves the slot (p, b) to (p and 1 + perm[p - 1],
    perm[b]); its label maps each element to its new name."""
    n = len(a)
    return ([2] * ((n + 1) * n),
            [({x: a[i] for x, i in zip(a, perm)},
              [((p and 1 + perm[p - 1]) * n + perm[b], (0, 1))
               for p in range(n + 1) for b in range(n)])
             for perm in _relabellings(n)],
            None)


def _rel_pair_block(a, b):
    """The `_orbit_map` block of the pairs (f, g) of rel_partial_graphs(a,
    b) and (b, a): a digit per output of f, then of g, 0 (no pair), 1 (the
    empty premise) or 2 + x (the singleton x).  Relabelling a by s and b
    by t sends (f, g) to (t f s^-1, s g t^-1): output y of f goes to t[y]
    and its premise 2 + x to 2 + s[x], and the same for g, s and t
    swapped."""
    m, n = len(a), len(b)
    return ([m + 2] * n + [n + 2] * m,
            [(None, [(t[y], (0, 1, *(2 + x for x in s))) for y in range(n)]
              + [(n + s[x], (0, 1, *(2 + y for y in t))) for x in range(m)])
             for s in itertools.permutations(range(m))
             for t in itertools.permutations(range(n))][1:],
            None)


def _rel_square_block(a, b, members):
    """The `_orbit_map` block of the squares (s, f, g) that
    `_square_search` finds among rel_function_rels(a, b) and
    rel_partial_graphs(a, a) and (b, b), at the product indices
    `members`: a digit per element x of a, the index of s(x) in b; then a
    digit per output of f, then of g, as in `_rel_pair_block`.
    Relabelling a by p and b by q sends (s, f, g) to (q s p^-1, p f p^-1,
    q g q^-1): digit x of s goes to p[x] and its value to q's, output y of
    f to p[y] and its premise 2 + x to 2 + p[x], and the same for g and q.
    p and q are independent even when a = b, as in `_rel_pair_block`."""
    m, n = len(a), len(b)
    return ([n] * m + [m + 2] * m + [n + 2] * n,
            [(None, [(p[x], q) for x in range(m)]
              + [(m + p[y], (0, 1, *(2 + x for x in p))) for y in range(m)]
              + [(2 * m + q[y], (0, 1, *(2 + x for x in q)))
                 for y in range(n)])
             for p in itertools.permutations(range(m))
             for q in itertools.permutations(range(n))][1:],
            members)


def _rel_exhaustive():
    """The exhaustive rel layers `fixcat compare` reads (endos, dinat
    pairs) and their `Symmetry`, computed on every build,
    with the carriers and the table of partial graphs they come from.
    Every endo those channels star is in the endo layer: an endo itself,
    or a composite fg or gf of partial graphs, whose premises have size
    at most one."""
    carriers = [rel_carrier(n) for n in (1, 2, 3)]
    c = Corpus()
    for a in carriers:
        c.endos.extend(rel_fragment_endos(a))
    graphs = {(a, b): rel_partial_graphs(a, b)
              for a in carriers for b in carriers}
    for a in carriers:
        for b in carriers:
            c.dinat_pairs.extend(itertools.product(graphs[a, b], graphs[b, a]))
    endo_orbits, images = _orbit_map([_rel_endo_block(a) for a in carriers])
    pair_orbits, _ = _orbit_map([_rel_pair_block(a, b)
                                 for a in carriers for b in carriers])
    c.symmetry = Symmetry({"endos": endo_orbits, "dinat_pairs": pair_orbits},
                          images, rel.mrel_rename)
    return c, carriers, graphs


def _rel_tail(c, seed, counts):
    """`_random_tail` with the rel family's draws."""
    big = {4: rel_carrier(4), 5: rel_carrier(5)}
    _random_tail(c, seed, counts, lambda rng, n, name: big[n], random_mrel,
                 lambda rng, g, i: rel_conjugation_square(rng, g, f"q{i}_"),
                 rel_closure_square)


def rel_cells(draws=1000, seed=0):
    """The rel channels `fixcat compare` reads: `rel_corpus`'s endos and
    dinat pairs, its random ones included, and their orbits."""
    n_endo, n_pair, _ = _draw_counts(draws)
    c, _, _ = _rel_exhaustive()
    _rel_tail(c, seed, (n_endo, n_pair, 0))
    return c


def rel_corpus(draws=1000, seed=0):
    """The rel corpus: `_rel_exhaustive`'s layers and the identity cells
    of its endos, which fall into the endos' orbits, then its triples,
    squares and derived channels, then the random tail.  The squares are
    mapped into their orbits too; the square laws star only a square's f
    and g, partial graphs, so in the endo layer."""
    counts = _draw_counts(draws)
    c, carriers, graphs = _rel_exhaustive()
    c.endo_cells = [ThinCell(f, f) for f in c.endos]
    c.symmetry.orbits["endo_cells"] = c.symmetry.orbits["endos"]
    c.dinat_triples = _stride_sample_products(
        [(graphs[a, a],) * 3 for a in carriers], TRIPLE_CAP)
    c.unif_squares, members = _square_search(
        carriers, lambda a: graphs[a, a], rel_function_rels, rel.mrel_compose)
    c.symmetry.orbits["unif_squares"], _ = _orbit_map(
        [_rel_square_block(a, b, block) for (a, b), block
         in zip(itertools.product(carriers, repeat=2), members)])
    derive_channels(c, rel.mrel_identity, rel.mrel_compose)
    _rel_tail(c, seed, counts)
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
    """A preorder on s0..s{size-1}: one rng.random() per ordered pair
    x != y, x slowest, puts x below y when it is under 0.3, and the order
    is the reflexive transitive closure of those pairs."""
    elems = [f"s{i}" for i in range(size)]
    leq = _transitive_closure(
        [(x, x) for x in elems]
        + [(x, y) for x in elems for y in elems if x != y and rng.random() < 0.3])
    return rel.Preorder(elems, leq, name=name, _validate=False)


def random_ideal_rel(rng, a, b):
    """An ideal relation a -> b, drawn as `random_mrel` draws one over
    the elements of a and b: per output a pair count from `_SPREAD`, then
    per pair a premise size and that many `rng.choice(a.elements)`, the
    premise a set."""
    pairs = set()
    for y in b.elements:
        count, = _draws(rng, _SPREAD, 1)
        for _ in range(count):
            size, = _draws(rng, _SPREAD, 1)
            pairs.add((rel.uset(_draws(rng, a.elements, size)), y))
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
    sf = rel.scott_compose(s, f)
    g = rel.scott_compose(sf, s_inv)
    gamma = ThinCell(sf, rel.scott_compose(g, s))
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

    squares, _ = _square_search(
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
