"""What perfbench reads of fixcat: its names and its results.

Every fixcat name perfbench imports or reads off a fixcat module, and
every dotted name `perfbench/spans.py` looks spans and results up by,
names an existing fixcat object: a span under a missing name silently
reads 0.  The files are read, not run.

`perfbench/spans.py` reduces the value each of a few fixcat functions
returns to one count (`RESULT_REDUCERS`).  A change to what such a
function returns breaks the traced pass only, which no other test runs;
here every reducer is applied to what its function returns on a small
input."""

import ast
import importlib.util
import pathlib

from fixcat import corpora
from fixcat.laws import compare_operators, run_suite
from fixcat.models import PosetModel
from fixcat.poly import binary_tree_poly, wtype_stages

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
# The law checks spans.py still groups self time by: run_laws replaced
# them, and ROADMAP.md's item 1 resyncs the benchmark with the code.
STALE = {"laws.check_fix", "laws.check_dinat", "laws.check_unif"}
TRACED_TABLES = ("CORPUS_BUILDERS", "LAW_CHECKS", "RESULT_REDUCERS")


def fixcat_names(path):
    """`module.name` for each name `path` imports from a fixcat module,
    and for each attribute it reads off a fixcat module it imports."""
    tree = ast.parse(path.read_text(), str(path))
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fixcat":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.startswith("fixcat.")):
            module = node.module.partition(".")[2]
            names.update(f"{module}.{a.name}" for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return names


def traced_names(path):
    """The dotted names `path` looks spans and results up by: the string
    keys of its TRACED_TABLES dicts, and in `layer_metrics` the names of
    its per-layer call list and the names it passes to `c`."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id in TRACED_TABLES
                        for t in node.targets)):
            found += node.value.keys
    metrics = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "layer_metrics")
    for node in ast.walk(metrics):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            found += node.iter.elts
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "c"):
            found += node.args
    return {key.value for key in found
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
            and "." in key.value}


def resolves(dotted):
    module, _, name = dotted.partition(".")
    return hasattr(importlib.import_module(f"fixcat.{module}"), name)


def test_names_perfbench_reads_resolve_in_fixcat():
    read = set().union(*map(fixcat_names, sorted(PERFBENCH.glob("*.py"))))
    traced = traced_names(SPANS)
    assert {"cli.main", "laws.run_suite", "poly.wtype_enumerate",
            "corpora.random_mrel", "laws.ThinCell"} <= read
    assert {"corpora.cat_corpus", "laws.check_fix", "laws.compare_operators",
            "poly.wtype_stages", "algebra.lambek_chain",
            "serialize.load_document"} <= traced
    assert {name for name in read | traced if not resolves(name)} == STALE


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
