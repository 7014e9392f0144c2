"""Acceptance suite: the eight gate criteria, one test each.

Every test prints a single [criterion N] PASS/FAIL line on the real
stdout (capsys disabled) so the verdicts stay visible in batch runs,
then asserts.  Timed criteria measure wall clock around the whole
computation including corpus construction.
"""

import itertools
import random
import time

from fixcat import cli, corpora, laws, poly, serialize
from fixcat.algebra import (chain_realization, lambek_chain,
                            pseudo_initial_mediator, unique_algebra_2cell)
from fixcat.cat import is_invertible_transf, validate_category
from fixcat.models import (BrokenPosetModel, CatModel, PosetModel, RelModel,
                           ScottModel)
from fixcat.poly import (PolyMorphism, binary_tree_poly, constant_poly,
                         endo_poly, identity_poly, identity_poly_morphism,
                         freyd_dinat_check, span_uniformity_check,
                         stream_poly, wtype_stages)

SAMPLES = corpora.__file__.rsplit("/src/", 1)[0] + "/sample_inputs"

_CACHE = {}


def _corpus(key):
    if key not in _CACHE:
        builders = {
            "poset0": lambda: corpora.poset_corpus(draws=0),
            "poset1000": lambda: corpora.poset_corpus(draws=1000, seed=0),
            "rel0": lambda: corpora.rel_corpus(draws=0),
            "rel1000": lambda: corpora.rel_corpus(draws=1000, seed=0),
            "scott0": lambda: corpora.scott_corpus(draws=0),
            "scott1000": lambda: corpora.scott_corpus(draws=1000, seed=0),
        }
        _CACHE[key] = builders[key]()
    return _CACHE[key]


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok


def _raw_monotone_count(p, q):
    # independent oracle: enumerate all functions, filter by the order data
    count = 0
    for vals in itertools.product(q.elements, repeat=len(p.elements)):
        table = dict(zip(p.elements, vals))
        if all((table[x], table[y]) in q.leq_pairs for (x, y) in p.leq_pairs):
            count += 1
    return count


def test_criterion_1_bifree_equals_kleene(capsys):
    t0 = time.perf_counter()
    mk, mb = PosetModel("kleene"), PosetModel("bifree")
    posets = corpora.pointed_posets(4)
    oracle_total = sum(_raw_monotone_count(p, p) for p in posets)
    total = mismatches = 0
    for p in posets:
        for f in corpora.monotone_maps(p, p):
            total += 1
            if not mk.eq1(mk.star(f), mb.star(f)):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = (mismatches == 0 and total == oracle_total == 243
          and len(posets) == 9 and elapsed < 30)
    _verdict(capsys, 1, ok,
             f"bifree star equals kleene star on all {total} endomaps over "
             f"{len(posets)} pointed posets of size <= 4, "
             f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_2_thin_model_law_suite(capsys):
    t0 = time.perf_counter()
    jobs = [(PosetModel("kleene"), _corpus("poset1000")),
            (RelModel("closure"), _corpus("rel1000")),
            (ScottModel(), _corpus("scott1000"))]
    random_counts = []
    for key in ("poset", "rel", "scott"):
        full, base = _corpus(key + "1000"), _corpus(key + "0")
        random_counts.append(
            (len(full.endos) + len(full.dinat_pairs) + len(full.unif_squares))
            - (len(base.endos) + len(base.dinat_pairs)
               + len(base.unif_squares)))
    reports = laws.run_suite(jobs, seed=0)
    elapsed = time.perf_counter() - t0
    failed = [r.law_id for r in reports if r.failed]
    vacuous = [r.law_id for r in reports if r.vacuous]
    passes = sum(r.passes for r in reports)
    ok = (not failed and not vacuous and len(reports) == 48
          and random_counts == [1000, 1000, 1000] and elapsed < 60)
    _verdict(capsys, 2, ok,
             f"fix/dinat/unif laws on poset, rel, scott: {passes} instance "
             f"checks over 48 reports, 1000 seeded random draws per model, "
             f"{len(failed)} failures, {len(vacuous)} vacuous, {elapsed:.1f}s")


def _product_route_holds(m, f, g):
    left, right = laws.product_route(m, f, g)
    return (m.eq1(left, m.star(m.compose(g, f)))
            and m.eq1(right, m.star(m.compose(f, g))))


def test_criterion_3_product_route_identity(capsys):
    t0 = time.perf_counter()
    mp, mr = PosetModel("kleene"), RelModel("closure")
    bad = 0

    poset_pairs = _corpus("poset0").dinat_pairs
    posets = corpora.pointed_posets(3)
    oracle_pairs = sum(_raw_monotone_count(p, q) * _raw_monotone_count(q, p)
                       for p in posets for q in posets)
    bad += sum(not _product_route_holds(mp, f, g) for (f, g) in poset_pairs)

    rel_pairs = _corpus("rel0").dinat_pairs
    sizes = (1, 2, 3)
    oracle_rel = sum((nb + 2) ** na * (na + 2) ** nb
                     for na in sizes for nb in sizes)
    bad += sum(not _product_route_holds(mr, f, g) for (f, g) in rel_pairs)

    rng = random.Random(0)
    for k in range(500):
        na, nb = (4, 5) if k % 2 else (5, 4)
        p = corpora.random_pointed_poset(rng, na, f"A{k}")
        q = corpora.random_pointed_poset(rng, nb, f"B{k}")
        f = corpora.random_monotone_map(rng, p, q)
        g = corpora.random_monotone_map(rng, q, p)
        bad += not _product_route_holds(mp, f, g)
    for k in range(500):
        a = corpora.rel_carrier(4 if k % 2 else 5, "a")
        b = corpora.rel_carrier(5 if k % 2 else 4, "b")
        f = corpora.random_mrel(rng, a, b)
        g = corpora.random_mrel(rng, b, a)
        bad += not _product_route_holds(mr, f, g)

    elapsed = time.perf_counter() - t0
    total = len(poset_pairs) + len(rel_pairs) + 1000
    ok = (bad == 0 and len(poset_pairs) == oracle_pairs
          and len(rel_pairs) == oracle_rel and elapsed < 30)
    _verdict(capsys, 3, ok,
             f"pi1 and pi2 of (swap.(fxg))* match (gf)* and (fg)* on "
             f"{total} pairs ({len(poset_pairs)} poset + {len(rel_pairs)} "
             f"rel exhaustive, 500 random each), {bad} failures, "
             f"{elapsed:.1f}s")


def test_criterion_4_operator_contractibility(capsys):
    t0 = time.perf_counter()
    pc, rc = _corpus("poset1000"), _corpus("rel1000")
    rep_p = laws.compare_operators(PosetModel("kleene"), PosetModel("bifree"),
                                   pc.endos, pairs=pc.dinat_pairs)
    rep_r = laws.compare_operators(RelModel("closure"), RelModel("tree"),
                                   rc.endos, pairs=rc.dinat_pairs)
    elapsed = time.perf_counter() - t0
    ok = True
    for rep, corpus in ((rep_p, pc), (rep_r, rc)):
        ok = ok and rep.instances == len(corpus.endos) > 0
    _verdict(capsys, 4, ok,
             f"kleene~bifree on {rep_p.instances} poset endos and "
             f"closure~tree on {rep_r.instances} rel endos: delta is the "
             f"identity with a uniqueness certificate on every instance, "
             f"{elapsed:.1f}s")


def test_criterion_5_pseudo_initial_property(capsys):
    t0 = time.perf_counter()
    instances = corpora.cat_instances()
    checked = 0
    ok = len(instances) >= 5
    for label, ambient, endo in instances:
        ok = ok and len(ambient.objects) <= 4
        chain = lambek_chain(endo)
        ok = ok and chain.stabilized
        real = chain_realization(chain)
        found = pseudo_initial_mediator(chain, endo)
        ok = ok and is_invertible_transf(found.mu)
        mediators = (found, real.cell)
        for first in mediators:
            for second in mediators:
                psi = unique_algebra_2cell(chain, first, second)
                ok = ok and is_invertible_transf(psi)
        # the structure a and its connector a^-1 form an adjoint
        # equivalence with identity unit and counit, whose triangle
        # identities then hold, exactly when a.a^-1 and a^-1.a are
        # identities: when each is the other's inverse in the ambient
        a, a_inv = chain.structure, chain.structure_inverse
        ok = ok and ambient.inverse(a) == a_inv and ambient.inverse(a_inv) == a
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked >= 5 and elapsed < 30
    _verdict(capsys, 5, ok,
             f"mediators found, connecting 2-cell survivor count exactly 1 "
             f"for every mediator pair, triangle identities are identities "
             f"on {checked} category instances, {elapsed:.1f}s")


def test_criterion_6_cat_coherences(capsys):
    t0 = time.perf_counter()
    reports = laws.run_suite([(CatModel(), corpora.cat_corpus())], seed=0)
    elapsed = time.perf_counter() - t0
    ids = {r.law_id for r in reports}
    required = {f"cat/{law}" for law in (
        "fix.cell", "fix.naturality",
        "dinat.cell", "dinat.unity", "dinat.one_nat", "dinat.two_nat",
        "dinat.fix_remark", "dinat.fix_coherence",
        "unif.cell", "unif.invertible", "unif.unity", "unif.one_nat",
        "unif.two_nat", "unif.transport", "unif.fix_coherence",
        "unif.dinat_coherence")}
    failed = [r.law_id for r in reports if r.failed]
    vacuous = [r.law_id for r in reports if r.vacuous]
    passes = sum(r.passes for r in reports)
    ok = ids == required and not failed and not vacuous
    _verdict(capsys, 6, ok,
             f"all {len(required)} coherence families pass on the cat "
             f"corpus with enumerated 2-cells: {passes} instance checks, "
             f"{len(failed)} failures, {len(vacuous)} vacuous, "
             f"{elapsed:.1f}s")


def test_criterion_7_polynomial_functors(capsys):
    t0 = time.perf_counter()
    ok = True

    # tree counts against the independently derived recurrence
    expected = [0]
    for _ in range(4):
        expected.append(1 + expected[-1] ** 2)
    stages = wtype_stages(binary_tree_poly(), 4)
    ok = ok and [len(s) for s in stages] == expected == [0, 1, 2, 5, 26]

    const = constant_poly(["b1", "b2"])
    cstages = wtype_stages(const, 3)
    ok = ok and len(cstages[1]) == 2 and cstages[1] == cstages[2]
    ok = ok and cstages[0] != cstages[1]

    # identity polynomial: every state of every small system is bisimilar
    idp = identity_poly()
    systems = poly._small_systems(idp, max_states=2, cap=64)
    ok = ok and len(systems) >= 2
    for c1, c2 in itertools.combinations_with_replacement(systems, 2):
        for x1 in c1.states:
            for x2 in c2.states:
                ok = ok and poly.bisimilar(c1, c2, x1, x2)

    rolling = [(constant_poly(["c"]), binary_tree_poly()),
               (binary_tree_poly(), constant_poly(["c"])),
               (stream_poly(["a"]), stream_poly(["b"]))]
    for f, g in rolling:
        ok = ok and freyd_dinat_check(f, g, depth=3)["holds"]

    rng = random.Random(0)
    shapes = []
    for i in range(8):
        pick = rng.randrange(3)
        if pick == 0:
            shapes.append(endo_poly(
                {f"k{j}": rng.randint(0, 2)
                 for j in range(rng.randint(1, 3))}, name=f"r{i}"))
        elif pick == 1:
            shapes.append(stream_poly(
                [f"s{j}" for j in range(rng.randint(1, 3))], name=f"r{i}"))
        else:
            shapes.append(constant_poly(
                [f"c{j}" for j in range(rng.randint(1, 2))], name=f"r{i}"))
    for p in shapes:
        rep = span_uniformity_check(identity_poly_morphism(p), p, p, depth=3)
        ok = ok and rep["holds"]

    ab = stream_poly(["a", "b"])
    single = stream_poly(["x"])
    collapse = PolyMorphism(ab, single, {"a": "x", "b": "x"},
                            {("a", ("x", 0)): ("a", 0),
                             ("b", ("x", 0)): ("b", 0)})
    swap = PolyMorphism(ab, ab, {"a": "b", "b": "a"},
                        {("a", ("b", 0)): ("a", 0),
                         ("b", ("a", 0)): ("b", 0)})
    ok = ok and poly.is_span(ab) and poly.is_span(single)
    ok = ok and span_uniformity_check(collapse, ab, single, depth=4)["holds"]
    ok = ok and span_uniformity_check(swap, ab, ab, depth=4)["holds"]

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30
    _verdict(capsys, 7, ok,
             f"tree counts 0,1,2,5,26 match the recurrence, constant "
             f"stabilizes at depth 1, identity-polynomial states all "
             f"bisimilar, rolling check on 3 instances, uniformity on "
             f"{len(shapes)} random + 2 hand-built morphisms, {elapsed:.1f}s")


def test_criterion_8_negative_controls(capsys):
    broken = laws.run_laws(BrokenPosetModel(), _corpus("poset0"),
                           laws.FIX_LAWS)
    cell = [r for r in broken if r.law_id == "fix.cell"][0]
    ok = cell.failed and cell.counterexample is not None

    corrupt = serialize.load_document(f"{SAMPLES}/category_corrupt.json",
                                      validate=False)
    problems = validate_category(corrupt)
    ok = ok and len(problems) > 0

    code_broken = cli.main(["laws", f"{SAMPLES}/suite_broken.json"])
    code_corrupt = cli.main(["laws", f"{SAMPLES}/suite_corrupt.json"])
    capsys.readouterr()
    ok = ok and code_broken == 1 and code_corrupt == 1
    _verdict(capsys, 8, ok,
             f"broken adapter yields a fix.cell counterexample, corrupted "
             f"table yields {len(problems)} validation problem(s), both "
             f"suite runs exit 1")
