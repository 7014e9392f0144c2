"""`fixcat laws`, `compare`, `star`, `dinat-product`, `wtype`, `mtype` and
`bisim` output, pinned byte for byte.

The files under tests/golden/ hold the stdout and exit code each sample
suite gave before law evaluation was reordered and memoized, and each
`compare` run gave before stars were shared across a run; a run now must
print exactly the same, counterexample text included.  The `star`,
`dinat-product` and unsupported-`compare` runs were captured before the
command line read its models from one registry, stderr included; the
unsupported-`compare` stdout has been empty since a command stopped
printing its `seed:` line before an input error.  The
`wtype`, `mtype` and `bisim` runs were captured while W-type trees were
still frozen dataclasses hashed anew on every set insert, and while an
over-budget `wtype --depth` still built the stages below the budget
before it stopped; that run's stderr was captured again when the message
began to name its budget, `poly.MAX_STAGE_TREES`.
"""

import pathlib

import pytest

from fixcat import cli, laws
from fixcat.models import CatModel

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("suite", ["suite_small", "suite_broken",
                                   "suite_corrupt"])
def test_laws_output_matches_golden(capsys, monkeypatch, suite):
    judged = []
    evaluate = laws._evaluate

    def counting(m, law, inst):
        judged.append(type(m))
        return evaluate(m, law, inst)

    monkeypatch.setattr(laws, "_evaluate", counting)
    code = cli.main(["laws", str(ROOT / "sample_inputs" / f"{suite}.json")])
    out = capsys.readouterr().out
    want = (GOLDEN / f"{suite}.stdout").read_text(encoding="utf-8")
    assert out == want
    assert code == int((GOLDEN / f"{suite}.exit").read_text())
    if suite == "suite_small":
        # every law passes, and the recorded program judges every thin
        # instance: an unhashable slot would send them all law by law,
        # with the same output, only slower
        assert set(judged) == {CatModel}


@pytest.mark.parametrize("model", ["rel", "poset"])
def test_compare_output_matches_golden(capsys, model):
    code = cli.main(["compare", "--model", model, "--draws", "50",
                     "--seed", "0"])
    out = capsys.readouterr().out
    want = (GOLDEN / f"compare_{model}.stdout").read_text(encoding="utf-8")
    assert out == want
    assert code == int((GOLDEN / f"compare_{model}.exit").read_text())


S = ROOT / "sample_inputs"
CLI_GOLDENS = {
    "star_poset": ["star", S / "poset_climb.json", "--model", "poset",
                   "--trace"],
    "star_rel": ["star", S / "rel_grow.json", "--model", "rel", "--trace"],
    "star_scott": ["star", S / "scott_emit.json", "--model", "scott",
                   "--trace"],
    "star_cat": ["star", S / "functor_twist.json", "--model", "cat",
                 "--trace"],
    "dinat_product_rel": ["dinat-product", S / "rel_fwd.json",
                          S / "rel_bwd.json", "--model", "rel"],
    "dinat_product_scott": ["dinat-product", S / "scott_emit.json",
                            S / "scott_emit.json", "--model", "scott"],
    "dinat_product_poset": ["dinat-product", S / "poset_climb.json",
                            S / "poset_climb.json", "--model", "poset"],
    "dinat_product_cat": ["dinat-product", S / "rel_fwd.json",
                          S / "rel_bwd.json", "--model", "cat"],
    "compare_scott": ["compare", "--model", "scott"],
    "compare_cat": ["compare", "--model", "cat"],
    "wtype_bintree_list": ["wtype", S / "poly_bintree.json", "--list"],
    "wtype_bintree_depth7": ["wtype", S / "poly_bintree.json", "--depth",
                             "7"],
    "wtype_const": ["wtype", S / "poly_const.json"],
    "mtype_loop_a": ["mtype", S / "system_loop_a.json", "--depth", "3"],
    "bisim_loop_a_b": ["bisim", S / "system_loop_a.json",
                       S / "system_loop_b.json"],
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_cli_output_matches_golden(capsys, name):
    code = cli.main([str(a) for a in CLI_GOLDENS[name]])
    captured = capsys.readouterr()
    stderr = GOLDEN / f"{name}.stderr"
    assert captured.out == (GOLDEN / f"{name}.stdout").read_text(
        encoding="utf-8")
    assert captured.err == (stderr.read_text(encoding="utf-8")
                            if stderr.exists() else "")
    assert code == int((GOLDEN / f"{name}.exit").read_text())
