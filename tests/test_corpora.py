"""Corpus builders: enumeration counts, square validity, determinism."""

import dataclasses
import hashlib
import json
import random
import tracemalloc
from collections import Counter
from itertools import chain as concat, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from fixcat import laws, models, poset, rel
from fixcat.corpora import (
    _square_search,
    _stride_sample,
    _stride_sample_products,
    cat_corpus,
    monotone_maps,
    pointed_posets,
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
    rel_corpus,
    rel_fragment_endos,
    rel_function_rels,
    rel_partial_graphs,
    scott_closure_square,
    scott_conjugation_square,
    scott_corpus,
    strict_orders_upto_iso,
)
from fixcat.errors import ValidationError
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

    squares = _square_search(posets, lambda p: maps[p, p],
                             lambda a, b: maps[a, b], counting_compose)
    assert len(squares) > len(calls) > 0
    assert len(calls) == sum(
        len(maps[a, b]) * (len(maps[a, a]) + len(maps[b, b]))
        for a in posets for b in posets)
    for (s, f, g, gamma) in squares:
        assert gamma.source == poset.compose_maps(s, f)
        assert gamma.target == poset.compose_maps(g, s)


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


def corpus_fingerprint(corpus):
    """sha256 over every channel, in channel and instance order."""
    digest = hashlib.sha256()
    documents = {}
    for f in dataclasses.fields(corpus):
        items = getattr(corpus, f.name)
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


@pytest.mark.parametrize("build", [poset_corpus, rel_corpus, scott_corpus])
def test_negative_draws_rejected(build):
    with pytest.raises(ValidationError):
        build(draws=-1, seed=0)


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


def test_corpora_without_a_map():
    # only the rel builder maps its prefixes; a corpus built from another's
    # channels carries no map, and neither does any other family's
    assert laws.Corpus().symmetry is None
    assert laws.Corpus(**vars(rel_corpus(draws=3))).symmetry is None
    for build in (poset_corpus, scott_corpus):
        assert build(draws=3).symmetry is None
    assert cat_corpus().symmetry is None
