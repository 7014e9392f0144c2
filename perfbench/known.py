"""Known answers the benchmark checks verdicts against.

Nothing here imports fixcat.  Corpus channel sizes come from closed forms
and from small enumerations over the mathematical objects the corpora are
defined on (pointed posets, partial graphs, the category gallery); W-type
stage sizes come from the recurrence |X_{k+1}| = sum_b |X_k|^arity(b).

The scott corpus is the one exception: its exhaustive layer keeps one
ideal relation per normal form, and counting normal forms needs the
normalisation the program implements.  Its five exhaustive sizes are
pinned constants (SCOTT_PINNED), so a change to them is caught but they
are not derived independently.
"""

import itertools
import math

# law -> corpus channel it iterates over (fixcat.laws.check_fix/dinat/unif)
LAW_CHANNEL = {
    "fix.cell": "endos",
    "fix.naturality": "endo_cells",
    "dinat.cell": "dinat_pairs",
    "dinat.unity": "endos",
    "dinat.fix_remark": "endos",
    "dinat.one_nat": "dinat_triples",
    "dinat.two_nat": "dinat_cells",
    "dinat.fix_coherence": "dinat_pairs",
    "unif.cell": "unif_squares",
    "unif.invertible": "unif_squares",
    "unif.unity": "endos",
    "unif.one_nat": "unif_stacks",
    "unif.two_nat": "unif_thetas",
    "unif.transport": "unif_transports",
    "unif.fix_coherence": "unif_squares",
    "unif.dinat_coherence": "unif_dinat",
}

# caps of the deterministic stride samples in the corpora
TRIPLE_CAP, STACK_CAP, DERIVED_CAP = 900, 400, 200

SCOTT_PINNED = {"endos": 447, "dinat_pairs": 2976, "dinat_triples": 859,
                "unif_squares": 2178, "unif_stacks": 399}


def stride_count(n, cap):
    """Size of an every-k-th sample of n items holding at most cap."""
    if n <= cap:
        return n
    step = math.ceil(n / cap)
    return min(cap, math.ceil(n / step))


def draw_split(draws):
    """Random draws per channel: (endos, dinat pairs, uniformity squares)."""
    return (draws + 2) // 3, (draws + 1) // 3, draws // 3


def _with_draws(exh, draws):
    n_endo, n_pair, n_square = draw_split(draws)
    out = dict(exh)
    out["endos"] += n_endo
    out["dinat_pairs"] += n_pair
    out["unif_squares"] += n_square
    return out


def _derived(endos, pairs, triples, squares, stacks, cell_cap=None):
    """Channel sizes of an exhaustive layer from its raw counts."""
    return {
        "endos": endos,
        "endo_cells": endos if cell_cap is None else stride_count(endos, cell_cap),
        "dinat_pairs": pairs,
        "dinat_triples": stride_count(triples, TRIPLE_CAP),
        "dinat_cells": stride_count(pairs, DERIVED_CAP),
        "unif_squares": squares,
        "unif_stacks": stride_count(stacks, STACK_CAP),
        "unif_thetas": stride_count(squares, DERIVED_CAP),
        "unif_transports": stride_count(squares, DERIVED_CAP),
        "unif_dinat": stride_count(pairs, DERIVED_CAP),
    }


def _square_counts(objects, endos_of, strict_maps, s_after, after_s):
    """Uniformity squares (s, f, g) with s.f == g.s, and how many stacked
    pairs share a middle endo on a shared object."""
    squares = 0
    into, out_of = {}, {}
    for a in objects:
        for b in objects:
            for s in strict_maps(a, b):
                left = {}
                for g in endos_of(b):
                    left.setdefault(after_s(g, s), []).append(g)
                for f in endos_of(a):
                    for g in left.get(s_after(s, f), ()):
                        squares += 1
                        into[(b, g)] = into.get((b, g), 0) + 1
                        out_of[(a, f)] = out_of.get((a, f), 0) + 1
    stacks = sum(n * out_of.get(key, 0) for key, n in into.items())
    return squares, stacks


# -- pointed posets: a bottom under every poset on at most two elements ------

# each poset is (size, order) with element 0 the bottom
POSETS = (
    (1, frozenset({(0, 0)})),
    (2, frozenset({(0, 0), (1, 1), (0, 1)})),
    (3, frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)})),
    (3, frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)})),
)


def _monotone(a, b):
    (na, la), (nb, lb) = POSETS[a], POSETS[b]
    return [m for m in itertools.product(range(nb), repeat=na)
            if all((m[x], m[y]) in lb for (x, y) in la)]


def poset_exhaustive():
    idx = range(len(POSETS))
    maps = {(a, b): _monotone(a, b) for a in idx for b in idx}
    count = {k: len(v) for k, v in maps.items()}
    endos = sum(count[(a, a)] for a in idx)
    pairs = sum(count[(a, b)] * count[(b, a)] for a in idx for b in idx)
    triples = sum(count[(a, b)] * count[(b, c)] * count[(c, a)]
                  for a in idx for b in idx for c in idx)
    def compose(g, f):
        return tuple(g[x] for x in f)

    squares, stacks = _square_counts(
        idx, lambda a: maps[(a, a)],
        lambda a, b: [m for m in maps[(a, b)] if m[0] == 0],
        compose, compose)
    return _derived(endos, pairs, triples, squares, stacks)


# -- multiset relations on carriers of size 1, 2, 3 ----------------------------
#
# Partial graphs give each output None, the empty premise, or one input;
# strict maps in the square search are functions.  For these the composite
# s.f of a function s after a partial graph f relabels outputs, and g.s
# pulls each singleton premise back along s.

EMPTY = -1


def _partial_graphs(na, nb):
    return list(itertools.product([None, EMPTY] + list(range(na)), repeat=nb))


def _pg_pairs(pg):
    return frozenset((m, y) for y, m in enumerate(pg) if m is not None)


def _rel_fn_after_pg(s, pg):
    return frozenset((m, s[y]) for (m, y) in _pg_pairs(pg))


def _rel_pg_after_fn(pg, s):
    out = set()
    for (m, z) in _pg_pairs(pg):
        if m == EMPTY:
            out.add((EMPTY, z))
        else:
            out.update((x, z) for x, t in enumerate(s) if t == m)
    return frozenset(out)


def rel_exhaustive():
    sizes = (1, 2, 3)
    endos = sum(2 ** (n * (n + 1)) for n in sizes)
    pairs = sum((na + 2) ** nb * (nb + 2) ** na for na in sizes for nb in sizes)
    triples = sum(((n + 2) ** n) ** 3 for n in sizes)
    graphs = {n: _partial_graphs(n, n) for n in sizes}

    squares, stacks = _square_counts(
        sizes, lambda n: graphs[n],
        lambda na, nb: list(itertools.product(range(nb), repeat=na)),
        _rel_fn_after_pg, _rel_pg_after_fn)
    return _derived(endos, pairs, triples, squares, stacks)


def scott_exhaustive():
    p = SCOTT_PINNED
    out = _derived(p["endos"], p["dinat_pairs"], 0, p["unif_squares"], 0,
                   cell_cap=4 * DERIVED_CAP)
    out["dinat_triples"] = p["dinat_triples"]
    out["unif_stacks"] = p["unif_stacks"]
    return out


def cat_channels():
    """The fixed gallery: five (category, endofunctor) instances, each with
    the pool {identity, endofunctor}, plus the hand-built extras."""
    inst, pool = 5, 2
    return {
        "endos": inst * pool,
        "endo_cells": inst * pool + 1,
        "dinat_pairs": inst * pool ** 2 + 2,
        "dinat_triples": inst * pool ** 3 + 1,
        "dinat_cells": inst * pool ** 2 + 2,
        "unif_squares": inst * pool + 3,
        "unif_stacks": inst * pool + 2,
        "unif_thetas": inst * pool + 1,
        "unif_transports": inst * pool + 1,
        "unif_dinat": inst * pool ** 2 + 3,
    }


_EXHAUSTIVE = {}


def corpus_channels(model, draws):
    """Expected channel sizes of the built-in corpus of a model spec."""
    base = model.split(":")[0]
    if base == "cat":
        return cat_channels()
    if base not in _EXHAUSTIVE:
        _EXHAUSTIVE[base] = {"poset": poset_exhaustive, "rel": rel_exhaustive,
                             "scott": scott_exhaustive}[base]()
    return _with_draws(_EXHAUSTIVE[base], draws)


def law_counts(channels):
    """Expected instance count of every law, given channel sizes."""
    return {law: channels[ch] for law, ch in LAW_CHANNEL.items()}


def wtype_counts(arities, depth):
    """|X_0| .. |X_depth| of the W-type chain from the empty set."""
    counts = [0]
    for _ in range(depth):
        counts.append(sum(counts[-1] ** k for k in arities))
    return counts
