"""End-to-end tests that drive cli.main(argv) in process."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from fixcat import cli, corpora, models, poly, serialize
from fixcat.errors import SchemaError
from mutants import F_STUCK

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"


def sample(name):
    return str(SAMPLES / name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_star_poset_trace(capsys):
    code, out, _ = run(capsys, "star", sample("poset_climb.json"),
                       "--model", "poset", "--trace")
    assert code == 0
    assert "trace: b -> a -> t" in out
    assert "fix: t" in out


def test_star_rel(capsys):
    code, out, _ = run(capsys, "star", sample("rel_grow.json"),
                       "--model", "rel", "--trace")
    assert code == 0
    assert "star: {a, b}" in out
    assert "trace: stage sizes" in out


def test_star_scott(capsys):
    code, out, _ = run(capsys, "star", sample("scott_emit.json"),
                       "--model", "scott", "--trace")
    assert code == 0
    assert "star: {y}" in out
    assert "trace: closure {x, y}" in out


PREORDER_X1 = {"kind": "preorder", "name": "D", "elements": ["x", 1],
               "leq": [["x", "x"], [1, 1]]}
MIXED_CARRIERS = {
    "rel": ({"kind": "multiset-relation", "name": "r", "source": ["a", 1],
             "target": ["a", 1], "pairs": [[[], "a"], [[["a", 1]], 1]]},
            ["star: {1, a}"]),
    "scott": ({"kind": "ideal-relation", "name": "g", "source": PREORDER_X1,
               "target": PREORDER_X1, "pairs": [[[], "x"], [["x"], 1]]},
              ["trace: closure {1, x}", "star: {1, x}"]),
}


@pytest.mark.parametrize("model", sorted(MIXED_CARRIERS))
def test_star_prints_a_carrier_mixing_strings_and_numbers(
        tmp_path, capsys, model):
    doc, lines = MIXED_CARRIERS[model]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "star", str(path), "--model", model,
                         "--trace")
    assert code == 0, err
    for line in lines:
        assert line in out.splitlines()


def test_star_rel_reads_a_huge_multiplicity_without_expanding_it(
        tmp_path, capsys):
    # a premise is read and validated by its counts: a multiplicity of
    # 10**12, once spelled out, would not fit in memory
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"kind": "multiset-relation", "name": "r", "source": ["a", "b"],
         "target": ["a", "b"],
         "pairs": [[[], "a"], [[["a", 10**12]], "b"]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "star", str(path), "--model", "rel")
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    assert "star: {a, b}" in out.splitlines()


def test_star_cat(capsys):
    code, out, _ = run(capsys, "star", sample("functor_twist.json"),
                       "--model", "cat", "--trace")
    assert code == 0
    assert "carrier z" in out
    assert "structure e" in out


def test_star_rejects_wrong_kind(capsys):
    code, _, err = run(capsys, "star", sample("rel_grow.json"),
                       "--model", "poset")
    assert code == 2
    assert "monotone-map" in err


# Each command's argv, whose last document is valid but of the wrong
# kind, with the kind the command reads and the kind it finds.
WRONG_KIND = {
    "star-poset": (["star", "rel_grow.json", "--model", "poset"],
                   "monotone-map", "multiset-relation"),
    "star-rel": (["star", "poset_climb.json", "--model", "rel"],
                 "multiset-relation", "monotone-map"),
    "star-scott": (["star", "rel_grow.json", "--model", "scott"],
                   "ideal-relation", "multiset-relation"),
    "star-cat": (["star", "scott_emit.json", "--model", "cat"],
                 "functor", "ideal-relation"),
    "laws": (["laws", "poset_chain3.json"], "suite-config", "poset"),
    "lambek": (["lambek", "category_aut.json"], "functor", "category"),
    "wtype": (["wtype", "system_loop_a.json"],
              "polynomial", "coalgebra-system"),
    "mtype": (["mtype", "poly_bintree.json"],
              "coalgebra-system", "polynomial"),
    "bisim": (["bisim", "system_loop_a.json", "poly_const.json"],
              "coalgebra-system", "polynomial"),
    "dinat-product": (["dinat-product", "rel_fwd.json", "scott_emit.json",
                       "--model", "rel"],
                      "multiset-relation", "ideal-relation"),
}


@pytest.mark.parametrize("case", sorted(WRONG_KIND))
def test_wrong_kind_exits_two_naming_both_kinds(capsys, case):
    argv, want, found = WRONG_KIND[case]
    argv = [sample(a) if a.endswith(".json") else a for a in argv]
    bad = [a for a in argv if a.endswith(".json")][-1]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: {bad}: expected a document of kind "
                   f"'{want}', not '{found}'\n")


def test_star_missing_file(capsys):
    code, _, err = run(capsys, "star", "no_such_file.json",
                       "--model", "poset")
    assert code == 2
    assert "error:" in err


def test_laws_good_suite(monkeypatch, capsys):
    # the cat search budget is a constant, and no variable overrides it
    monkeypatch.setenv("FIXCAT_SEARCH_CAP", "zero")
    code, out, _ = run(capsys, "laws", sample("suite_small.json"))
    assert code == 0
    assert "seed: 0" in out
    assert "[pass]" in out
    assert "FAIL" not in out
    assert "VACUOUS" not in out
    golden = SAMPLES.parent / "tests" / "golden" / "suite_small.stdout"
    assert out == golden.read_text(encoding="utf-8")


def test_laws_seed_override(capsys):
    code, out, _ = run(capsys, "laws", sample("suite_corrupt.json"),
                       "--seed", "5")
    assert "seed: 5" in out
    assert code == 1


def test_laws_broken_adapter_fails_loudly(capsys):
    code, out, _ = run(capsys, "laws", sample("suite_broken.json"))
    assert code == 1
    assert "[FAIL] poset[broken]/fix.cell" in out
    assert "first counterexample: poset[broken]/" in out


def test_laws_corrupt_table(capsys):
    code, out, _ = run(capsys, "laws", sample("suite_corrupt.json"))
    assert code == 1
    assert "category aut_bad:" in out
    assert "wrong boundary" in out
    assert "corrupted category table(s)" in out


def test_laws_empty_models(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"kind": "suite-config", "models": []}))
    code, _, err = run(capsys, "laws", str(cfg))
    assert code == 2
    assert "empty model list" in err


def law_ids(out):
    return [line.split("] ", 1)[1].split(":")[0]
            for line in out.splitlines() if line.startswith("[")]


def test_laws_adapter_crash_exits_one_with_every_law_reported(
        tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "poset.json"
    cfg.write_text(json.dumps({"kind": "suite-config", "models": ["poset"],
                               "draws": 2, "seed": 0}))
    code, sound, _ = run(capsys, "laws", str(cfg))
    assert code == 0
    lfp = models.PosetModel._lfp

    def crashing(self, f):
        if len(f.source.elements) == 3:
            raise KeyError("boom")
        return lfp(self, f)

    monkeypatch.setattr(models.PosetModel, "_lfp", crashing)
    code, out, err = run(capsys, "laws", str(cfg))
    assert code == 1
    assert "Traceback" not in out + err
    assert law_ids(out) == law_ids(sound)
    failing = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failing
    assert all("<error> != KeyError: 'boom'" in line for line in failing)


def test_laws_missing_category_prints_nothing_on_stdout(tmp_path, capsys):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"kind": "suite-config", "models": ["poset"],
                               "draws": 0, "categories": ["missing.json"]}))
    code, out, err = run(capsys, "laws", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_laws_missing_config(capsys):
    code, _, err = run(capsys, "laws", "no_such_config.json")
    assert code == 2
    assert "error:" in err


def test_lambek_chain(capsys):
    code, out, _ = run(capsys, "lambek", sample("functor_twist.json"))
    assert code == 0
    assert "stage 0:" in out
    assert "stabilized at index" in out
    assert "carrier z" in out


CYCLE_LINE = "never stabilizes: cycles from step 1 with period 1\n"


def stuck_document(tmp_path):
    doc = tmp_path / "stuck.json"
    doc.write_text(serialize.print_document(F_STUCK))
    return str(doc)


def test_lambek_reports_a_cycling_chain(capsys, tmp_path):
    code, out, _ = run(capsys, "lambek", stuck_document(tmp_path))
    assert code == 0
    assert out == ("stage 0: 0 --u-->\n"
                   "stage 1: w --p-->\n"
                   "stage 2: w --p-->\n"
                   "stage 3: w\n" + CYCLE_LINE)


def test_star_cat_reports_a_cycling_chain(capsys, tmp_path):
    code, out, _ = run(capsys, "star", stuck_document(tmp_path),
                       "--model", "cat", "--trace")
    assert code == 2
    assert out == "trace: 0 -> w -> w -> w\n" + CYCLE_LINE


def test_wtype_bintree_counts(capsys):
    code, out, _ = run(capsys, "wtype", sample("poly_bintree.json"))
    assert code == 0
    assert "counts: 0, 1, 2, 5, 26" in out
    assert "26 elements; use --list" in out


def test_wtype_list_flag(capsys):
    code, out, _ = run(capsys, "wtype", sample("poly_bintree.json"),
                       "--list")
    assert code == 0
    assert "use --list" not in out
    assert len([ln for ln in out.splitlines()
                if ln.startswith("  ")]) == 26


def test_wtype_prints_counts_without_building_a_stage(capsys, stage_builds):
    code, out, err = run(capsys, "wtype", sample("poly_bintree.json"),
                         "--depth", "6")
    assert (code, err) == (0, "")
    assert out == ("counts: 0, 1, 2, 5, 26, 677, 458330\n"
                   "not stabilized at depth 6\n"
                   "  (458330 elements; use --list to print them)\n")
    assert stage_builds == []


def test_wtype_list_builds_the_stages_it_prints(capsys, stage_builds):
    code, out, _ = run(capsys, "wtype", sample("poly_bintree.json"),
                       "--depth", "4", "--list")
    assert code == 0
    assert stage_builds == [0, 1, 2, 5]
    assert len([ln for ln in out.splitlines()
                if ln.startswith("  WTree(")]) == 26


def test_wtype_stage_over_budget_exits_two(capsys, tmp_path):
    # a 5-ary node: stage 4 would hold 39,135,394 trees
    doc = tmp_path / "wide.json"
    doc.write_text(serialize.print_document(
        poly.endo_poly({"leaf": 0, "node": 5}, name="wide")))
    code, out, err = run(capsys, "wtype", str(doc), "--depth", "5")
    assert code == 2
    assert out == ""
    assert err == ("error: wide: W-type stage 4 would hold 39135394 trees, "
                   "over the bound of 1000000 (poly.MAX_STAGE_TREES)\n")


def test_wtype_constant_stabilizes(capsys):
    code, out, _ = run(capsys, "wtype", sample("poly_const.json"))
    assert code == 0
    assert "stabilized at depth 1; 2 elements" in out


def test_mtype_unfold(capsys):
    code, out, _ = run(capsys, "mtype", sample("system_loop_a.json"),
                       "--depth", "2")
    assert code == 0
    assert out.startswith("s:")


def test_mtype_unfolds_deeper_than_recursion(capsys):
    code, out, err = run(capsys, "mtype", sample("system_loop_a.json"),
                         "--depth", "400")
    assert (code, err) == (0, "")
    level = "('*', ((('*', 0), "
    assert out == "s: " + level * 400 + "'*'" + "),))" * 400 + "\n"


def test_mtype_unfolding_over_budget_exits_two(capsys, tmp_path):
    # one state with two slots, both back to itself: 2^18 - 1 nodes
    p = poly.endo_poly({"node": 2}, name="bin")
    doc = tmp_path / "branch.json"
    doc.write_text(serialize.print_document(poly.CoalgebraSystem(
        p, ("s",), {"s": ("node", {e: "s" for e in p.fiber("node")})},
        name="branch")))
    code, out, err = run(capsys, "mtype", str(doc), "--depth", "17")
    assert (code, out) == (2, "")
    assert err == ("error: branch: unfolding of s to depth 17 holds over "
                   "100000 nodes (poly.MAX_UNFOLD_NODES)\n")


def test_dinat_product_composite_over_budget_exits_two(capsys, tmp_path):
    # one premise needing its only element 10**7 times: composing it with a
    # projection would expand a choice of 10**7 premises
    doc = tmp_path / "heavy.json"
    doc.write_text(json.dumps({
        "kind": "multiset-relation", "name": "heavy", "source": ["a"],
        "target": ["a"], "pairs": [[[["a", 10**7]], "a"]]}))
    code, out, err = run(capsys, "dinat-product", str(doc), str(doc),
                         "--model", "rel")
    assert (code, out) == (2, "")
    assert err == ("error: heavy.pi1: composite premises over the bound of "
                   "1000000 (rel.MAX_COMPOSE_PREMISES)\n")


def test_bisim_loops(capsys):
    code, out, _ = run(capsys, "bisim", sample("system_loop_a.json"),
                       sample("system_loop_b.json"))
    assert code == 0
    assert "s ~ z" in out
    assert out.rstrip().endswith("bisimilar")


def test_dinat_product_rel(capsys):
    code, out, _ = run(capsys, "dinat-product", sample("rel_fwd.json"),
                       sample("rel_bwd.json"), "--model", "rel")
    assert code == 0
    assert "agreement: yes" in out
    assert "(gf)*:" in out
    assert "pi2(h*):" in out


def test_dinat_product_cat_has_no_products(capsys):
    code, _, err = run(capsys, "dinat-product", sample("rel_fwd.json"),
                       sample("rel_bwd.json"), "--model", "cat")
    assert code == 2
    assert "products" in err


def test_dinat_product_boundary_mismatch(capsys):
    code, _, err = run(capsys, "dinat-product", sample("rel_fwd.json"),
                       sample("rel_fwd.json"), "--model", "rel")
    assert code == 2
    assert "f: A -> B and g: B -> A" in err


def test_compare_poset(capsys):
    code, out, _ = run(capsys, "compare", "--model", "poset",
                       "--draws", "6")
    assert code == 0
    assert "identity: yes" in out
    assert "unique" in out


def test_compare_rel(capsys):
    code, out, _ = run(capsys, "compare", "--model", "rel", "--draws", "6",
                       "--seed", "3")
    assert code == 0
    assert "seed: 3" in out
    assert "identity: yes" in out


def test_compare_scott_unsupported(capsys):
    code, out, err = run(capsys, "compare", "--model", "scott")
    assert (code, out) == (2, "")
    assert "no second operator" in err


def test_compare_negative_draws_exits_two(capsys):
    code, _, err = run(capsys, "compare", "--model", "rel", "--draws", "-3")
    assert code == 2
    assert err == "error: draws must be nonnegative, got -3\n"


def test_compare_builds_only_the_channels_it_reads(capsys, monkeypatch):
    # neither the square search nor the derived channels feed compare
    def unread(*args):
        raise AssertionError("compare built a channel it never reads")

    monkeypatch.setattr(corpora, "_square_search", unread)
    monkeypatch.setattr(corpora, "derive_channels", unread)
    for model in ("rel", "poset"):
        code, out, _ = run(capsys, "compare", "--model", model,
                           "--draws", "8", "--seed", "3")
        assert code == 0
        assert "identity: yes" in out


@pytest.mark.parametrize("draws", [corpora.MAX_DRAWS + 1, 10 ** 20])
def test_compare_draws_over_the_budget_exits_two_at_once(capsys, draws):
    start = time.perf_counter()
    code, out, err = run(capsys, "compare", "--model", "rel",
                         "--draws", str(draws))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: draws {draws} over the bound of "
                   f"{corpora.MAX_DRAWS} (corpora.MAX_DRAWS)\n")


@pytest.mark.parametrize("draws", [corpora.MAX_DRAWS + 1, 10 ** 20])
def test_laws_draws_over_the_budget_exits_two_before_any_output(
        tmp_path, capsys, draws):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"kind": "suite-config",
                               "models": ["poset", "rel"], "draws": draws}))
    start = time.perf_counter()
    code, out, err = run(capsys, "laws", str(cfg))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "(corpora.MAX_DRAWS)" in err


def test_model_choices_come_from_the_registry():
    """--model offers one spec per family, and a suite config accepts
    exactly the registry's specs."""
    families = [s for s in models.REGISTRY if ":" not in s]
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    for command in ("star", "dinat-product", "compare"):
        model = next(a for a in sub.choices[command]._actions
                     if a.dest == "model")
        assert list(model.choices) == families

    def suite(spec):
        return json.dumps({"kind": "suite-config", "models": [spec]})

    for spec in models.REGISTRY:
        assert serialize.parse_document(suite(spec)).models == [spec]
    for spec in ("poset:", "Rel", "cat:kleene", ["cat"]):
        with pytest.raises(SchemaError):
            serialize.parse_document(suite(spec))


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


# --- malformed input: exit 2 with a one-line message, never a traceback -----

SRC = pathlib.Path(cli.__file__).resolve().parent.parent
CHAIN2 = {"kind": "poset", "elements": ["b", "t"],
          "leq": [["b", "b"], ["b", "t"], ["t", "t"]], "bottom": "b"}
STEP = {"kind": "preorder", "elements": ["x", "y"],
        "leq": [["x", "x"], ["x", "y"], ["y", "y"]]}

MALFORMED = {
    "mrel-multiplicity-not-int": (
        {"kind": "multiset-relation", "source": ["a0"], "target": ["a0"],
         "pairs": [[[["a0", "x"]], "a0"]]}, ["star", "--model", "rel"]),
    "mrel-list-element": (
        {"kind": "multiset-relation", "source": [["a0"]], "target": ["a0"],
         "pairs": []}, ["star", "--model", "rel"]),
    "poset-list-element": (
        {"kind": "monotone-map", "assignment": [["b", "b"]],
         "source": dict(CHAIN2, elements=[["t"], "b"]), "target": CHAIN2},
        ["star", "--model", "poset"]),
    "preorder-list-element": (
        {"kind": "ideal-relation", "pairs": [],
         "source": dict(STEP, elements=["x", ["y"]]), "target": STEP},
        ["star", "--model", "scott"]),
    "polynomial-list-constructor": (
        {"kind": "polynomial", "inputs": ["*"], "outputs": ["*"],
         "constructors": [["leaf"], "node"], "slots": [],
         "slot_input": [], "slot_constructor": [],
         "constructor_output": [["node", "*"]]}, ["wtype"]),
    "system-successor-not-a-pair": (
        {"kind": "coalgebra-system", "states": ["s"],
         "step": [["s", "*", [5]]],
         "polynomial": {"kind": "polynomial", "inputs": ["*"],
                        "outputs": ["*"], "constructors": ["*"],
                        "slots": [["*", 0]],
                        "slot_input": [[["*", 0], "*"]],
                        "slot_constructor": [[["*", 0], "*"]],
                        "constructor_output": [["*", "*"]]}}, ["mtype"]),
    "suite-draws-true": (
        {"kind": "suite-config", "models": ["poset"], "draws": True},
        ["laws"]),
    "suite-seed-true": (
        {"kind": "suite-config", "models": ["poset"], "draws": 0,
         "seed": True}, ["laws"]),
    "suite-category-not-a-path": (
        {"kind": "suite-config", "models": ["poset"], "draws": 0,
         "categories": [3]}, ["laws"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two_without_traceback(tmp_path, case):
    doc, argv = MALFORMED[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    cmd = [sys.executable, "-m", "fixcat.cli", argv[0], str(path), *argv[1:]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def sample_with(name, **fields):
    return dict(json.loads((SAMPLES / name).read_text()), **fields)


def test_ideal_relation_pair_dropped_by_normalization_is_rejected(
        tmp_path, capsys):
    # ([], "y") subsumes (["zzz"], "x"), so normalization alone would drop
    # the pair naming an element outside the source
    path = tmp_path / "emit.json"
    path.write_text(json.dumps(sample_with(
        "scott_emit.json", pairs=[[[], "y"], [["zzz"], "x"]])))
    code, out, err = run(capsys, "star", str(path), "--model", "scott")
    assert code == 2
    assert out == ""
    assert err == "error: emit: input set ('zzz',) outside source\n"


DOUBLED = {"kind": "preorder", "name": "doubled", "elements": ["a", "a"],
           "leq": [["a", "a"]]}
REPEATED_ELEMENTS = {
    "multiset-relation": (
        {"kind": "multiset-relation", "name": "r", "source": ["a", "a"],
         "target": ["a", "a"], "pairs": [[[], "a"]]}, "rel",
        "error: r: duplicate source elements; duplicate target elements\n"),
    "ideal-relation": (
        {"kind": "ideal-relation", "name": "r", "source": DOUBLED,
         "target": DOUBLED, "pairs": [[[], "a"]]}, "scott",
        "error: doubled: duplicate elements\n"),
}


@pytest.mark.parametrize("kind", sorted(REPEATED_ELEMENTS))
def test_repeated_carrier_element_exits_two(tmp_path, capsys, kind):
    doc, model, message = REPEATED_ELEMENTS[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "star", str(path), "--model", model)
    assert (code, out, err) == (2, "", message)


INVALID_UNDER_HASHING = {
    "ideal-relation": (sample_with(
        "scott_emit.json", pairs=[[["p"], "y"], [["q"], "x"], [["r"], "w"]]),
        "scott"),
    "multiset-relation": (sample_with(
        "rel_fwd.json", pairs=[[[["p", 1]], "b0"], [[["q", 1]], "b0"],
                               [[["a0", 1]], "w"]]), "rel"),
    "preorder": (sample_with(
        "preorder_step.json",
        leq=[["x", "x"], ["x", "y"], ["y", "y"], ["p", "q"], ["q", "r"],
             ["r", "s"]]), "scott"),
    "poset": (sample_with(
        "poset_chain3.json",
        leq=[["a", "a"], ["b", "b"], ["t", "t"], ["p", "q"], ["q", "r"],
             ["r", "s"]]), "poset"),
    "monotone-map": (sample_with(
        "poset_climb.json", assignment=[["a", "b"], ["b", "t"], ["t", "a"]]),
        "poset"),
}


@pytest.mark.parametrize("kind", sorted(INVALID_UNDER_HASHING))
def test_validation_message_does_not_depend_on_hash_seed(tmp_path, kind):
    doc, model = INVALID_UNDER_HASHING[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    cmd = [sys.executable, "-m", "fixcat.cli", "star", str(path),
           "--model", model]
    errs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "; " in proc.stderr
        errs.add(proc.stderr)
    assert len(errs) == 1, errs
