"""`fixcat laws` and `fixcat compare` output, pinned byte for byte.

The files under tests/golden/ hold the stdout and exit code each sample
suite gave before law evaluation was reordered and memoized, and each
`compare` run gave before stars were shared across a run; a run now must
print exactly the same, counterexample text included.
"""

import pathlib

import pytest

from fixcat import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("suite", ["suite_small", "suite_broken",
                                   "suite_corrupt"])
def test_laws_output_matches_golden(capsys, suite):
    code = cli.main(["laws", str(ROOT / "sample_inputs" / f"{suite}.json")])
    out = capsys.readouterr().out
    want = (GOLDEN / f"{suite}.stdout").read_text(encoding="utf-8")
    assert out == want
    assert code == int((GOLDEN / f"{suite}.exit").read_text())


@pytest.mark.parametrize("model", ["rel", "poset"])
def test_compare_output_matches_golden(capsys, model):
    code = cli.main(["compare", "--model", model, "--draws", "50",
                     "--seed", "0"])
    out = capsys.readouterr().out
    want = (GOLDEN / f"compare_{model}.stdout").read_text(encoding="utf-8")
    assert out == want
    assert code == int((GOLDEN / f"compare_{model}.exit").read_text())
