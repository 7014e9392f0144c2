"""The package is stdlib-only and single-process: every module it imports
is the standard library's or its own, and none of them starts a thread or
another process.  No module of the package reads the process environment.
No module of the package or its tests imports a name it never reads.  The
package's modules import each other without a cycle.  Every module-level
function or class that neither the package nor perfbench reads is one of
a decided few.  Only the law engine's `run_laws` opens the one table that
memoized methods read, and no file writes a second table name.  Every
`SizeCap` the package raises names its budget."""

import ast
import graphlib
import pathlib
import re
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fixcat"
PERFBENCH = TESTS.parent / "perfbench"
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


# The module-level names no module of the package or of perfbench reads,
# and why each stays although nothing in them calls it.
UNREAD_BY_DESIGN = {
    # the paper's checks of acceptance criteria 5 and 7, which the tests run
    "algebra.adjoint_equivalence_from_initial",
    "algebra.cocone_mediator",
    "algebra.pseudo_initial_mediator",
    "algebra.unique_algebra_2cell",
    "poly.freyd_dinat_check",
    "poly.span_uniformity_check",
    # reference implementations the tests compare the fast paths against
    "poset.all_fixpoints",
    "rel._class_rep",
    "rel.canon_uset",
    "rel.discrete_preorder",
    "rel.normalize_pairs",
    # fixtures: the standard polynomials and the span predicate
    "poly.binary_tree_poly",
    "poly.constant_poly",
    "poly.identity_poly",
    "poly.identity_poly_morphism",
    "poly.is_span",
    # the canonical printer the round-trip tests compare against
    "serialize.print_document",
}


def unread_definitions(modules, readers):
    """`module.name` for every module-level def or class in `modules`
    whose name no `Name`, `Attribute` or import alias in `readers`
    reads."""
    defined = {f"{path.stem}.{node.name}"
               for path in modules
               for node in ast.parse(path.read_text(), str(path)).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))}
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return {name for name in defined if name.partition(".")[2] not in read}


def test_every_unread_definition_is_decided():
    modules = sorted(SRC.glob("*.py"))
    readers = modules + sorted(PERFBENCH.glob("*.py"))
    assert len(modules) > 1 and len(readers) > len(modules)
    assert unread_definitions(modules, readers) == UNREAD_BY_DESIGN


TABLES = {"_memo"}
# A name that was once a second table; nothing reads it, so a write to it
# would pass silently.
STALE = {"_run"}


def table_writes(path, names=TABLES):
    """The owner of each place in `path` that sets or deletes an attribute
    named in `names`: an attribute target or a `setattr`/`delattr` call,
    owned by its function (`Class.method` for a method), or a class body's
    own assignment, owned by the class."""
    writes = []

    def visit(node, owner, class_body):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
                visit(child, name, isinstance(child, ast.ClassDef))
                continue
            if isinstance(child, ast.Attribute):
                written = (child.attr in names
                           and not isinstance(child.ctx, ast.Load))
            elif isinstance(child, ast.Name):
                written = (class_body and child.id in names
                           and not isinstance(child.ctx, ast.Load))
            elif isinstance(child, ast.Call):
                written = (isinstance(child.func, ast.Name)
                           and child.func.id in ("setattr", "delattr")
                           and len(child.args) > 1
                           and isinstance(child.args[1], ast.Constant)
                           and child.args[1].value in names)
            else:
                written = False
            if written:
                writes.append(owner)
            visit(child, owner, class_body)

    visit(ast.parse(path.read_text(), str(path)), "", False)
    return writes


def test_tables_are_opened_in_one_place():
    # `memoized` methods read the one table `_memo`; `run_laws` alone
    # opens and closes it, and FixpointModel declares it closed, so every
    # table's life is decided in laws.py.  No file of the package or its
    # tests writes a second table name.
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 1
    owners = {(path.name, owner)
              for path in files for owner in table_writes(path)}
    assert owners == {("laws.py", "run_laws"),
                      ("laws.py", "FixpointModel")}
    everywhere = files + sorted(TESTS.glob("*.py"))
    assert [(path.name, owner) for path in everywhere
            for owner in table_writes(path, STALE)] == []


BUDGET = re.compile(r"\((\w+)\.([A-Z][A-Z0-9_]*)\)")


def module_constants(path):
    """The names `path` assigns at module level."""
    return {target.id
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)}


def size_cap_messages(path):
    """(line, literal text) of every `raise SizeCap(...)` in `path`: the
    constant parts of its first argument, an f-string's included."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id == "SizeCap"):
            arg = node.exc.args[0] if node.exc.args else None
            parts = (arg.values if isinstance(arg, ast.JoinedStr)
                     else [arg])
            yield node.lineno, "".join(
                part.value for part in parts
                if isinstance(part, ast.Constant)
                and isinstance(part.value, str))


def test_every_size_cap_names_its_budget():
    # a tripped budget names itself: the message holds (module.NAME) for
    # a module-level constant of that module
    files = {path.stem: path for path in sorted(SRC.glob("*.py"))}
    constants = {stem: module_constants(path) for stem, path in files.items()}
    unnamed, raised = [], 0
    for path in files.values():
        for line, text in size_cap_messages(path):
            raised += 1
            if not any(name in constants.get(module, ())
                       for module, name in BUDGET.findall(text)):
                unnamed.append((path.name, line, text))
    assert raised >= 6
    assert unnamed == []
