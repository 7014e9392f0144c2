"""Corpus builders: enumeration counts, square validity, determinism."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import pathlib
import random
import tracemalloc
from collections import Counter
from itertools import chain as concat, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from fixcat import corpora, laws, models, poset, rel
from fixcat.corpora import (
    _square_search,
    _stride_sample,
    _stride_sample_products,
    cat_corpus,
    monotone_maps,
    pointed_posets,
    poset_cells,
    poset_closure_square,
    poset_conjugation_square,
    poset_corpus,
    preorders_upto_iso,
    random_ideal_rel,
    random_monotone_map,
    random_mrel,
    random_pointed_poset,
    random_preorder,
    rel_closure_square,
    rel_conjugation_square,
    rel_carrier,
    rel_cells,
    rel_corpus,
    rel_fragment_endos,
    rel_function_rels,
    rel_partial_graphs,
    scott_closure_square,
    scott_conjugation_square,
    scott_corpus,
    strict_orders_upto_iso,
)
from fixcat.errors import SizeCap, ValidationError
from fixcat.serialize import to_document


def chain(n):
    elems = [f"c{i}" for i in range(n)]
    leq = {(elems[i], elems[j]) for i in range(n) for j in range(i, n)}
    return poset.PointedPoset(elems, leq, elems[0], name=f"chain{n}")


def test_strict_order_class_counts():
    # 1, 1, 2, 5 strict orders on 0..3 points up to isomorphism
    assert [len(strict_orders_upto_iso(k)) for k in range(4)] == [1, 1, 2, 5]


def test_pointed_poset_corpus_counts():
    ps = pointed_posets(4)
    assert len(ps) == 9
    assert sorted(len(p.elements) for p in ps) == [1, 2, 3, 3, 4, 4, 4, 4, 4]
    for p in ps:
        assert p.validate() == []


def test_monotone_endomap_counts_on_chains():
    # binomial(2n-1, n) monotone self-maps of an n-chain
    for n, count in ((2, 3), (3, 10), (4, 35)):
        c = chain(n)
        assert len(monotone_maps(c, c)) == count


def test_monotone_maps_are_monotone():
    ps = pointed_posets(3)
    for p in ps:
        for q in ps:
            for f in monotone_maps(p, q):
                assert f.validate() == []


def preorders_by_permutation_minimum(k):
    # the reference: walk the subsets of the off-diagonal pairs in product
    # order and keep each transitive one whose class, the least sorted
    # pair list over every relabelling, has not been seen
    idx = list(range(k))
    offdiag = [(i, j) for i in idx for j in idx if i != j]
    seen, reps = set(), []
    for bits in product((0, 1), repeat=len(offdiag)):
        sel = frozenset(p for p, keep in zip(offdiag, bits) if keep)
        if any(i != l and (i, l) not in sel
               for (i, j) in sel for (j2, l) in sel if j2 == j):
            continue
        canon = min(tuple(sorted((p[i], p[j]) for (i, j) in sel))
                    for p in permutations(idx))
        if canon not in seen:
            seen.add(canon)
            reps.append(sel)
    return reps


@pytest.mark.parametrize("k", range(5))
def test_preorder_classes_match_the_permutation_minimum(k):
    # same sets, same order: 1, 1, 3, 9 and 33 classes on 0..4 points
    got = corpora._preorders_on(k)
    assert got == preorders_by_permutation_minimum(k)
    assert len(got) == [1, 1, 3, 9, 33][k]


def test_preorder_class_counts():
    pres = preorders_upto_iso(3)
    assert len(pres) == 13
    assert sorted(len(p.elements) for p in pres).count(3) == 9
    for p in pres:
        assert p.validate() == []


def test_rel_fragment_sizes():
    assert len(rel_fragment_endos(rel_carrier(1))) == 4
    assert len(rel_fragment_endos(rel_carrier(2))) == 64
    assert len(rel_fragment_endos(rel_carrier(3))) == 4096
    assert len(rel_partial_graphs(rel_carrier(3), rel_carrier(3))) == 125
    assert len(rel_function_rels(rel_carrier(2), rel_carrier(3))) == 9


def test_random_layer_count_is_exact():
    base = poset_corpus(draws=0)
    full = poset_corpus(draws=100, seed=3)
    extra = (len(full.endos) - len(base.endos)
             + len(full.dinat_pairs) - len(base.dinat_pairs)
             + len(full.unif_squares) - len(base.unif_squares))
    assert extra == 100


def test_poset_corpus_deterministic():
    a = poset_corpus(draws=40, seed=11)
    b = poset_corpus(draws=40, seed=11)
    assert a.endos == b.endos
    assert a.dinat_pairs == b.dinat_pairs
    assert [(s, f, g) for (s, f, g, _) in a.unif_squares] == \
           [(s, f, g) for (s, f, g, _) in b.unif_squares]


def test_exhaustive_poset_squares_are_valid():
    m = models.PosetModel()
    c = poset_corpus(draws=0)
    for sq in c.unif_squares[::17]:
        laws.require_square(m, *sq)


def test_constructed_squares_are_valid():
    rng = random.Random(5)
    mp = models.PosetModel()
    for i in range(8):
        p = random_pointed_poset(rng, 5, f"t{i}")
        g = random_monotone_map(rng, p, p)
        laws.require_square(mp, *poset_conjugation_square(g, f"x{i}_"))
        laws.require_square(mp, *poset_closure_square(g))
    mr = models.RelModel()
    a = rel_carrier(4)
    for i in range(8):
        g = random_mrel(rng, a, a)
        laws.require_square(mr, *rel_conjugation_square(rng, g, f"w{i}_"))
        laws.require_square(mr, *rel_closure_square(g))
    ms = models.ScottModel()
    for i in range(8):
        p = random_preorder(rng, 4, f"s{i}")
        g = random_ideal_rel(rng, p, p)
        laws.require_square(ms, *scott_conjugation_square(g, f"z{i}_"))
        laws.require_square(ms, *scott_closure_square(g))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 6))
def test_random_poset_is_valid(seed, size):
    rng = random.Random(seed)
    p = random_pointed_poset(rng, size, "h")
    assert p.validate() == []
    f = random_monotone_map(rng, p, p)
    assert f.validate() == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_random_preorder_is_valid(seed):
    rng = random.Random(seed)
    p = random_preorder(rng, 5, "h")
    assert p.validate() == []


def _closure_by_powers(pairs, nodes):
    # R | R.R | ... | R^(n+1): every path on n nodes has at most n steps
    reach = set(pairs)
    for _ in nodes:
        reach |= {(x, z) for (x, y) in reach for (y2, z) in pairs if y == y2}
    return reach


@pytest.mark.parametrize("reflexive", [True, False])
def test_transitive_closure_matches_brute_force(reflexive):
    rng = random.Random(7)
    for _ in range(300):
        nodes = [f"s{i}" for i in range(rng.randint(0, 6))]
        pairs = [(x, y) for x in nodes for y in nodes
                 if (x == y and reflexive)
                 or (x != y and rng.random() < rng.choice((0.2, 0.4)))]
        want = _closure_by_powers(pairs, nodes)
        assert corpora._transitive_closure(iter(pairs)) == want
        assert reflexive or all(x != y for (x, y) in pairs)


def test_rel_corpus_channels_nonempty():
    c = rel_corpus(draws=6, seed=0)
    for channel in (c.endos, c.endo_cells, c.dinat_pairs, c.dinat_triples,
                    c.dinat_cells, c.unif_squares, c.unif_stacks,
                    c.unif_thetas, c.unif_transports, c.unif_dinat):
        assert channel


def test_scott_corpus_channels_nonempty():
    c = scott_corpus(draws=6, seed=0)
    for channel in (c.endos, c.endo_cells, c.dinat_pairs, c.dinat_triples,
                    c.dinat_cells, c.unif_squares, c.unif_stacks,
                    c.unif_thetas, c.unif_transports, c.unif_dinat):
        assert channel


def test_cat_corpus_channels_nonempty():
    c = cat_corpus()
    for channel in (c.endos, c.endo_cells, c.dinat_pairs, c.dinat_triples,
                    c.dinat_cells, c.unif_squares, c.unif_stacks,
                    c.unif_thetas, c.unif_transports, c.unif_dinat):
        assert channel


def test_cat_corpus_has_non_identity_cells():
    c = cat_corpus()
    assert any(any(not t.source.target.is_identity_arrow(a)
                   for a in t.components.values())
               for t in c.endo_cells)
    assert any(any(not gamma.source.target.is_identity_arrow(a)
                   for a in gamma.components.values())
               for (_, _, _, gamma) in c.unif_squares)


# --- stride samples of products, decoded by index ---------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.lists(st.integers(0, 9), max_size=5),
                         min_size=1, max_size=3), max_size=4),
       st.integers(1, 50))
def test_stride_sample_products_matches_materialized_sample(blocks, cap):
    built = list(concat.from_iterable(product(*b) for b in blocks))
    assert _stride_sample_products(blocks, cap) == _stride_sample(built, cap)


def test_rel_corpus_build_peak_within_twice_retained():
    # the sampled channels must not materialize their candidate lists
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        corpus = rel_corpus(draws=12, seed=0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert corpus.dinat_triples
    assert peak - base <= 2 * (retained - base)


@pytest.mark.parametrize("build, distinct", [(rel_corpus, 278),
                                              (scott_corpus, 218)])
def test_exhaustive_dinat_pairs_share_their_one_cells(build, distinct):
    # one object per distinct partial graph, not one per pair listed
    pairs = build(draws=0, seed=0).dinat_pairs
    assert len({g for (_, g) in pairs}) == distinct
    assert len({id(g) for (_, g) in pairs}) == distinct


def test_square_search_composes_once_per_endo_not_per_square():
    posets = pointed_posets(3)
    maps = {(a, b): monotone_maps(a, b) for a in posets for b in posets}
    calls = []

    def counting_compose(g, f):
        calls.append(None)
        return poset.compose_maps(g, f)

    squares, members = _square_search(posets, lambda p: maps[p, p],
                                      lambda a, b: maps[a, b], counting_compose)
    assert len(squares) > len(calls) > 0
    assert len(calls) == sum(
        len(maps[a, b]) * (len(maps[a, a]) + len(maps[b, b]))
        for a in posets for b in posets)
    for (s, f, g, gamma) in squares:
        assert gamma.source == poset.compose_maps(s, f)
        assert gamma.target == poset.compose_maps(g, s)
    # each (a, b) lists its squares' (s, f, g) product indices, ascending
    decoded = [(ss[i // (len(fs) * len(gs))], fs[i // len(gs) % len(fs)],
                gs[i % len(gs)])
               for (a, b), block in zip(product(posets, repeat=2), members)
               for ss, fs, gs in [(maps[a, b], maps[a, a], maps[b, b])]
               for i in block]
    assert all(block == sorted(set(block)) for block in members)
    assert decoded == [sq[:3] for sq in squares]


# --- value fingerprints of the relational corpora ----------------------------

def _fingerprint_value(x, documents):
    if isinstance(x, laws.ThinCell):
        return ["cell", _fingerprint_value(x.source, documents),
                _fingerprint_value(x.target, documents)]
    if isinstance(x, (tuple, list)):
        return [_fingerprint_value(y, documents) for y in x]
    # instances share their 1-cell objects: render each object once
    doc = documents.get(id(x))
    if doc is None:
        doc = documents[id(x)] = to_document(x)
    return doc


def corpus_fingerprint(corpus, tails=None):
    """sha256 over every channel, in channel and instance order.  With
    `tails`, each channel contributes only its last tails.get(name, 0)
    instances."""
    digest = hashlib.sha256()
    documents = {}
    for f in dataclasses.fields(corpus):
        items = getattr(corpus, f.name)
        if tails is not None:
            k = tails.get(f.name, 0)
            items = items[-k:] if k else []
        doc = [f.name, [_fingerprint_value(x, documents) for x in items]]
        digest.update(json.dumps(doc, sort_keys=True).encode())
    return digest.hexdigest()


# Any change to a builder or a kernel must leave every corpus instance, its
# order and its names as they were.  rel and scott were captured before the
# relational kernels were tuned, poset before the derived channels were built
# by one `derive_channels`, and cat before its squares were built by one
# `_square` helper.
PINNED_CORPORA = {
    "poset": (lambda: poset_corpus(draws=12, seed=0),
              "ee127fc8aca5bf75eba69be84acc8936a03cd8b879a2b70c67ee4258fc20fc8e"),
    "rel": (lambda: rel_corpus(draws=12, seed=0),
            "7a2e447f7fe79595876b740be4bd0f1a610df66a4773c41513da2156826e49f1"),
    "scott": (lambda: scott_corpus(draws=12, seed=0),
              "1b58453e5337d26ce4ea98754ac26ba62925ee6e9a8043def6bb0f370d70be67"),
    "cat": (cat_corpus,
            "cd83c9cabffbcbf5633734b36ff950d29a79bd0ec1a3790263bb97d503483ce8"),
}


@pytest.mark.parametrize("family", PINNED_CORPORA)
def test_corpus_fingerprint_is_pinned(family):
    build, sha256 = PINNED_CORPORA[family]
    assert corpus_fingerprint(build()) == sha256


# --- the seeded random stream -------------------------------------------------

# A fixed seed must give the same random draws, in the same order, whatever
# the samplers' code.  Only the random tail is hashed: the instances a
# channel gets past its exhaustive prefix, which does not depend on draws or
# seed and which PINNED_CORPORA pins.  They are the tails that whole-corpus
# pins fixed before the samplers drew through `_draws` and before the
# conjugation squares composed s.f once.
PINNED_STREAMS = {
    "poset_cells-1000": (
        lambda: poset_cells(1000, seed=5), 1000,
        "078e3a1348b1c4773079f3064469cfa4906a3d1a5ce2d8ea2a44128317132381"),
    "rel_cells-1000": (
        lambda: rel_cells(1000, seed=5), 1000,
        "4331aa889a615b1c7cc3ad3119c9468caa2411a15ccb5c3a0007e4ef865ce507"),
    "poset_corpus-300": (
        lambda: poset_corpus(draws=300, seed=5), 300,
        "5d2dfdba2b9507fa0b77d76ba570da4fe60effe9ade7d298ee06ae72c01b6259"),
    "rel_corpus-300": (
        lambda: rel_corpus(draws=300, seed=5), 300,
        "bb90d34ec7e252561902e1c3e83d4c5446e0f84e0c9266218f04977f2977122e"),
    "scott_corpus-300": (
        lambda: scott_corpus(draws=300, seed=5), 300,
        "daf3828c6ef4bdbbf0fc7a4276c4955ede48dd1ff9e2a1d5cd12d984817ca9ce"),
}


def random_tails(draws):
    """The channels a random tail of `draws` extends, and by how many."""
    return dict(zip(("endos", "dinat_pairs", "unif_squares"),
                    corpora._draw_counts(draws)))


@pytest.mark.parametrize("name", PINNED_STREAMS)
def test_seeded_random_tail_is_pinned(name):
    build, draws, sha256 = PINNED_STREAMS[name]
    assert corpus_fingerprint(build(), random_tails(draws)) == sha256


def test_one_changed_draw_fails_its_tail_pin(monkeypatch):
    # the stream is 12,574 draws; its last, swapped for another element,
    # moves the hash (a redrawn rejection may then take more draws)
    build, draws, sha256 = PINNED_STREAMS["poset_cells-1000"]
    real, calls = corpora._draws, []

    def changed(rng, seq, count):
        out = real(rng, seq, count)
        calls.append(None)
        if len(calls) == 12574:
            out[0] = next(x for x in seq if x != out[0])
        return out

    monkeypatch.setattr(corpora, "_draws", changed)
    assert corpus_fingerprint(build(), random_tails(draws)) != sha256
    assert len(calls) >= 12574


WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# perfbench's suite-random corpora at seed 5, drawn in this order from one rng
PINNED_SUITE_RANDOM = {
    "poset": "28484d22e1f653abdf73dd37d7163448319319dc1ef3aa8886e91f7b49a61f48",
    "rel": "08a08a7669b60bdccf7954e8c0d4445c4617bd370c5a833caa914f99158e6fb3",
    "scott": "6e592abf4655f69ef06ce2ea876210e87f9fda43e59c9094416c5f870ee41e43",
}


def test_suite_random_corpora_are_pinned(monkeypatch, tmp_path):
    # workloads.py imports its sibling `known`, so its folder goes on the path
    monkeypatch.syspath_prepend(str(WORKLOADS.parent))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    suite = workloads.SuiteRandom(5, str(tmp_path))
    kits = suite._kits()
    rng = random.Random(5)
    got = {model: corpus_fingerprint(
               suite.build_corpus(kits[model], rng, workloads.RANDOM_DRAWS))
           for model in workloads.RANDOM_MODELS}
    assert got == PINNED_SUITE_RANDOM


@pytest.mark.parametrize("size", range(1, 10))
def test_draws_match_random_choice(size):
    # the same elements and the same state after, draw for draw, sizes that
    # are powers of two included; a change to `choice` fails here
    seq = tuple(f"x{i}" for i in range(size))
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for count in (0, 1, 2, 5, 13):
            assert corpora._draws(ours, seq, count) == \
                   [theirs.choice(seq) for _ in range(count)]
            assert ours.getstate() == theirs.getstate()


def test_draws_from_an_empty_sequence():
    # none drawn is no error, as with `choice`; one drawn is its IndexError
    rng = random.Random(0)
    state = rng.getstate()
    assert corpora._draws(rng, (), 0) == []
    with pytest.raises(IndexError):
        corpora._draws(rng, (), 1)
    assert rng.getstate() == state


def test_random_monotone_map_falls_back_to_bottom_without_drawing():
    rng = random.Random(3)
    p = random_pointed_poset(rng, 5, "p")
    state = rng.getstate()
    f = random_monotone_map(rng, p, p, tries=0)
    assert rng.getstate() == state
    assert f.assignment == {x: p.bottom for x in p.elements}
    assert f.validate() == []


@pytest.mark.parametrize("build", [poset_corpus, rel_corpus, scott_corpus,
                                   poset_cells, rel_cells])
def test_negative_draws_rejected(build):
    with pytest.raises(ValidationError):
        build(draws=-1, seed=0)


@pytest.mark.parametrize("build", [poset_corpus, rel_corpus, scott_corpus,
                                   poset_cells, rel_cells])
def test_draws_over_the_budget_rejected(build, monkeypatch):
    # the bound is read at call time, and checked before anything is built
    monkeypatch.setattr(corpora, "MAX_DRAWS", 2)
    assert len(build(draws=2, seed=0).endos) > 0
    with pytest.raises(SizeCap, match=r"corpora\.MAX_DRAWS"):
        build(draws=3, seed=0)


# --- the compare builders ---------------------------------------------------

COMPARE_BUILDERS = {"poset": (poset_cells, poset_corpus),
                    "rel": (rel_cells, rel_corpus)}
COMPARE_CHANNELS = ("endos", "dinat_pairs")


@pytest.mark.parametrize("draws, seed", [(0, 0), (1, 3), (12, 0), (1000, 3)])
@pytest.mark.parametrize("family", COMPARE_BUILDERS)
def test_compare_builder_lists_the_suite_builders_channels(family, draws,
                                                           seed):
    """The compare builder's endos and dinat pairs are the suite
    builder's, by value, in order and under the same names, random draws
    included; it lists no other channel, endo cells included, and rel's
    orbits of those two channels are the suite corpus's."""
    cells_of, corpus_of = COMPARE_BUILDERS[family]
    cells, full = cells_of(draws, seed), corpus_of(draws, seed)
    for f in dataclasses.fields(cells):
        got = getattr(cells, f.name)
        if f.name in COMPARE_CHANNELS:
            want = getattr(full, f.name)
            assert got == want, f.name
            assert list(map(repr, got)) == list(map(repr, want)), f.name
        else:
            assert got == [], f.name
    if full.symmetry is None:
        assert cells.symmetry is None
    else:
        assert cells.symmetry.orbits == {
            channel: full.symmetry.orbits[channel]
            for channel in COMPARE_CHANNELS}


# --- relabelling orbits of the exhaustive rel layers -----------------------------

def _relabelled(f, src_names, dst_names):
    """f with its premise elements renamed by src_names and its outputs by
    dst_names: a brute-force relabelling, apart from the corpus's own."""
    return rel.MultisetRel(
        f.source, f.target,
        {(rel.mset_union(*(((src_names[x], k),) for (x, k) in m)), dst_names[b])
         for (m, b) in f.pairs}, _validate=False)


def _renamings(carrier):
    return [dict(zip(carrier, (carrier[i] for i in perm)))
            for perm in permutations(range(len(carrier)))]


@pytest.fixture(scope="module")
def rel0():
    return rel_corpus(draws=0, seed=0)


def test_rel_orbit_map_is_pinned(rel0):
    # 792 orbits among the 4,164 endos (and their identity cells) and
    # 1,189 among the 19,432 dinat pairs, each listed by its least index
    orbits = rel0.symmetry.orbits
    assert orbits["endo_cells"] == orbits["endos"]
    for channel, count, size in (("endos", 792, 4164),
                                 ("dinat_pairs", 1189, 19432)):
        reps, sizes = orbits[channel]
        assert len(reps) == len(sizes) == count
        assert sum(sizes) == len(getattr(rel0, channel)) == size
        assert reps == sorted(set(reps)) and reps[0] == 0


def test_rel_endo_orbits_agree_with_brute_force(rel0):
    # each endo's orbit is listed by the least index among its relabellings,
    # and each image the check reads is that relabelling of its endo
    endos = rel0.endos
    index = {f: i for i, f in enumerate(endos)}
    least = [min(index[_relabelled(f, names, names)]
                 for names in _renamings(f.source)) for f in endos]
    reps, sizes = rel0.symmetry.orbits["endos"]
    assert reps == sorted(set(least))
    counts = Counter(least)
    assert sizes == [counts[r] for r in reps]
    for i, f in enumerate(endos):
        images = rel0.symmetry.images(i)
        assert len(images) == len(_renamings(f.source)) - 1
        for names, j in images:
            assert endos[j] == _relabelled(f, names, names)
            assert rel0.symmetry.relabel(f, names) == endos[j]


def test_rel_pair_orbits_agree_with_brute_force(rel0):
    # a pair (f, g) with f: A -> B relabels to (t f s^-1, s g t^-1) for
    # every s of A and t of B
    carriers = [rel_carrier(n) for n in (1, 2, 3)]
    least, offset = [], 0
    for a in carriers:
        for b in carriers:
            fs, gs = rel_partial_graphs(a, b), rel_partial_graphs(b, a)
            at_f = {f: i for i, f in enumerate(fs)}
            at_g = {g: i for i, g in enumerate(gs)}
            images = [([at_f[_relabelled(f, s, t)] for f in fs],
                       [at_g[_relabelled(g, t, s)] for g in gs])
                      for s in _renamings(a) for t in _renamings(b)]
            least.extend(offset + min(fi[i] * len(gs) + gi[j]
                                      for fi, gi in images)
                         for i in range(len(fs)) for j in range(len(gs)))
            offset += len(fs) * len(gs)
    assert offset == len(rel0.dinat_pairs)
    reps, sizes = rel0.symmetry.orbits["dinat_pairs"]
    assert reps == sorted(set(least))
    counts = Counter(least)
    assert sizes == [counts[r] for r in reps]


def test_rel_pair_composites_lie_in_the_endo_layer(rel0):
    # the claim the orbit walk rests on: every endo the mapped channels
    # star, fg and gf of an exhaustive pair included, is in the endo layer,
    # where the equivariance check tests the star
    layer = set(rel0.endos)
    assert len(layer) == len(rel0.endos)
    for (f, g) in rel0.dinat_pairs:
        assert rel.mrel_compose(f, g) in layer
        assert rel.mrel_compose(g, f) in layer


def test_rel_square_endos_lie_in_the_endo_layer(rel0):
    # the square laws star only a square's f and g, both partial graphs,
    # so in the endo layer, where the equivariance check tests the star
    layer = set(rel0.endos)
    for (_, f, g, _) in rel0.unif_squares:
        assert f in layer and g in layer


def test_rel_square_orbits_agree_with_brute_force(rel0):
    # a square (s, f, g) with s: A -> B relabels to (t s p^-1, p f p^-1,
    # t g t^-1) for every p of A and t of B, independent when A = B; 323
    # orbits among the 3,594 squares, each listed by its least index
    squares = rel0.unif_squares
    at = {sq[:3]: i for i, sq in enumerate(squares)}
    assert len(at) == len(squares) == 3594
    reps, sizes, seen = [], [], set()
    for i, (s, f, g, _) in enumerate(squares):
        if i not in seen:
            orbit = {at[_relabelled(s, p, t), _relabelled(f, p, p),
                        _relabelled(g, t, t)]
                     for p in _renamings(s.source)
                     for t in _renamings(s.target)}
            assert min(orbit) == i and not orbit & seen
            seen |= orbit
            reps.append(i)
            sizes.append(len(orbit))
    assert rel0.symmetry.orbits["unif_squares"] == (reps, sizes)
    assert len(reps) == 323 and sum(sizes) == 3594


@pytest.mark.parametrize("pick", ["squares", "sample"])
def test_member_block_orbits_are_the_full_blocks_cut_down(pick):
    # _orbit_map on a block that lists some product indices is the full
    # block's map restricted to them: each orbit cut down to its listed
    # members and listed by the least, images outside them dropped, and
    # the block's positions shifted by the blocks before it
    a = rel_carrier(2)
    if pick == "squares":       # a union of orbits
        _, (members,) = _square_search([a], lambda c: rel_partial_graphs(c, c),
                                       rel_function_rels, rel.mrel_compose)
    else:                       # not one
        members = sorted(random.Random(7).sample(range(1024), 300))
    radices, group, _ = corpora._rel_square_block(a, a, None)
    assert math.prod(radices) == 1024
    (full_reps, full_sizes), full_images = corpora._orbit_map(
        [(radices, group, None)])
    at = {i: p for p, i in enumerate(members)}
    cut = []
    for r in full_reps:
        orbit = {r} | {j for _, j in full_images(r)}
        kept = sorted(at[j] for j in orbit if j in at)
        if kept:
            cut.append(kept)
    cut.sort()
    (reps, sizes), images = corpora._orbit_map(
        [(radices, group, None), (radices, group, members)])
    assert reps == full_reps + [1024 + orbit[0] for orbit in cut]
    assert sizes == full_sizes + [len(orbit) for orbit in cut]
    assert sum(sizes) == 1024 + len(members)
    for p, i in enumerate(members):
        assert images(1024 + p) == [(label, 1024 + at[j])
                                    for label, j in full_images(i) if j in at]


def test_corpora_without_a_map():
    # only the rel builder maps its prefixes; a corpus built from another's
    # channels carries no map, and neither does any other family's
    assert laws.Corpus().symmetry is None
    assert laws.Corpus(**vars(rel_corpus(draws=3))).symmetry is None
    for build in (poset_corpus, scott_corpus):
        assert build(draws=3).symmetry is None
    assert cat_corpus().symmetry is None
