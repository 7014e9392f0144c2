"""The package is stdlib-only and single-process: every module it imports
is the standard library's or its own, and none of them starts a thread or
another process.  No module of the package reads the process environment.
No module of the package or its tests imports a name it never reads.  The
package's modules import each other without a cycle."""

import ast
import graphlib
import pathlib
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fixcat"
CONCURRENT = {"multiprocessing", "threading", "subprocess", "concurrent"}
ENVIRONMENT = {"environ", "getenv", "environb", "getenvb"}


def top_level_imports(path):
    """The top-level module of every absolute import in `path`; a relative
    import is the package's own."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_stdlib_and_starts_no_process():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 1
    for path in files:
        for name in top_level_imports(path):
            assert name in sys.stdlib_module_names or name == "fixcat", (
                path.name, name)
            assert name not in CONCURRENT, (path.name, name)


def unread_imports(path):
    """The names `path` imports (`from __future__` aside) that no `Name`
    node reads; the base of an attribute chain is such a node."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_reads():
    files = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(files) > 2
    unread = {path.name: unread_imports(path) for path in files}
    assert {name: names for name, names in unread.items() if names} == {}


def environment_reads(path):
    """Where `path` reads the process environment: `os.environ`,
    `os.getenv`, or either imported by name from `os`."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ENVIRONMENT for alias in node.names):
            yield node.lineno


def test_no_module_reads_the_environment():
    # output depends on argv and the input files alone
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 1
    reads = {path.name: list(environment_reads(path)) for path in files}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def package_imports(path):
    """The package modules `path` imports: every relative import, at any
    depth, function bodies included."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:           # from . import a, b
                yield from (alias.name for alias in node.names)
            else:                             # from .a import x
                yield node.module.partition(".")[0]


def test_package_has_no_import_cycle():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 1
    graph = {path.stem: set(package_imports(path)) for path in files}
    assert graph["models"] >= {"laws", "corpora"}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as err:
        pytest.fail(f"import cycle {' -> '.join(err.args[1])}")
