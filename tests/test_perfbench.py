"""What perfbench's traced pass reads of fixcat's results.

`perfbench/spans.py` reduces the value each of a few fixcat functions
returns to one count (`RESULT_REDUCERS`).  A change to what such a
function returns breaks the traced pass only, which no other test runs;
here every reducer is applied to what its function returns on a small
input."""

import importlib.util
import pathlib

from fixcat import corpora
from fixcat.laws import compare_operators, run_suite
from fixcat.models import PosetModel
from fixcat.poly import binary_tree_poly, wtype_stages

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_result_reducers_read_what_fixcat_returns():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    reducers = spans.RESULT_REDUCERS
    built = {"corpora.poset_corpus": corpora.poset_corpus(0),
             "corpora.rel_corpus": corpora.rel_corpus(0),
             "corpora.scott_corpus": corpora.scott_corpus(0),
             "corpora.cat_corpus": corpora.cat_corpus()}
    poset0 = built["corpora.poset_corpus"]
    results = {
        **built,
        "laws.run_suite": run_suite([(PosetModel(), poset0)], seed=0),
        "laws.compare_operators": compare_operators(
            PosetModel("kleene"), PosetModel("bifree"), poset0.endos[:5]),
        "poly.wtype_stages": wtype_stages(binary_tree_poly(), 3),
    }
    assert set(results) == set(reducers)
    got = {name: reduce(results[name]) for name, reduce in reducers.items()}
    for name, corpus in built.items():
        assert got[name]["endos"] == len(corpus.endos) > 0, name
    assert got["laws.run_suite"] > 0
    assert got["laws.compare_operators"] == 5
    assert got["poly.wtype_stages"] == 0 + 1 + 2 + 5
