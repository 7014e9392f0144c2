"""The package is stdlib-only and single-process: every module it imports
is the standard library's or its own, and none of them starts a thread or
another process.  No module of the package reads the process environment.
No module of the package or its tests imports a name it never reads.  The
package's modules import each other without a cycle.  Every definition
that no command and no perfbench workload reaches, through any chain of
calls, waits for an open ROADMAP.md item that will give it a caller; a
definition only the tests call is not reached.  Only the law engine's `run_laws` opens the one table that
memoized methods read, and no file writes a second table name.  Every
`SizeCap` the package raises names its budget."""

import ast
import graphlib
import pathlib
import re
import sys
import textwrap

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


# The definitions no command reaches, each mapped to the open ROADMAP.md
# item that will give it a caller.  An entry leaves when its item lands.
UNREACHED_BY_DESIGN = {
    # criterion 5: the chain realization, the pseudo-initiality search and
    # the unique 2-cell, with the enumerators and helpers only they use
    **dict.fromkeys([
        "algebra.AlgebraOneCell", "algebra.ChainRealization",
        "algebra._copied", "algebra._stage", "algebra.chain_realization",
        "algebra.cocone_mediator", "algebra.pseudo_initial_mediator",
        "algebra.unique_algebra_2cell", "cat.FinCategory.id_of",
        "cat.FinCategory.is_identity_arrow",
        "cat.FinCategory.sorted_arrow_ids", "cat._check_bound",
        "cat.enumerate_functors", "cat.enumerate_nat_transfs",
        "errors.NoMediator"], 24),
    # criterion 7: the transport and rolling checks, cartesian morphisms,
    # and the fixture polynomials they run on
    **dict.fromkeys([
        "poly.PolyMorphism", "poly.PolyMorphism.on_system",
        "poly.PolyMorphism.on_tree", "poly._small_systems",
        "poly.binary_tree_poly", "poly.bisimilar", "poly.constant_poly",
        "poly.endo_poly", "poly.freyd_dinat_check", "poly.identity_poly",
        "poly.identity_poly_morphism", "poly.is_span",
        "poly.span_uniformity_check", "poly.stream_poly"], 22),
    # the canonical document writer the JSON report will write with
    **dict.fromkeys(["serialize._sorted_pairs", "serialize.print_document",
                     "serialize.to_document"], 5),
}
ENTRY = "cli.main"
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def loads(node):
    """Every name `node` and the nodes below it load, annotations aside
    (naming a type is not calling it): a `Name` as itself, an `Attribute`
    as its attribute with a leading dot."""
    if isinstance(getattr(node, "ctx", None), ast.Load):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield "." + node.attr
    for field, value in ast.iter_fields(node):
        if field not in ("annotation", "returns"):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from loads(child)


def header(node):
    """The parts of a def or class that run where it is defined, not
    where it is called: decorators, default arguments, bases."""
    if isinstance(node, ast.ClassDef):
        return node.decorator_list + node.bases + node.keywords
    return (node.decorator_list + node.args.defaults
            + [d for d in node.args.kw_defaults if d is not None])


def reachability(root):
    """(defined, reached): qualified names of the definitions in
    `root`/src/fixcat, and those a command or perfbench reaches.

    A definition is a module-level function or class (`module.name`) or
    a method of such a class (`module.Class.method`); a dunder method
    belongs to its class and is not listed.  The roots are the names
    read where a module runs (any statement outside a def body:
    registries, constants, decorators, default arguments, class bodies),
    the entry point `cli.main`, and every name `root`/perfbench reads.
    A reached def reaches every definition its body reads the name of,
    in any module: a bare `Name` names module-level functions and classes
    only, and an `Attribute` names those and methods too, so a local
    variable does not reach a method it shares a name with.  A name read
    in `from m import a as b` form counts as a.  A reached class reaches its
    dunder methods, which are never matched by name.  Tests are not
    read: a definition only a test calls is not reached."""
    body = {}                 # definition -> names its body reads
    dunders = {}              # class -> its dunder methods
    meaning = {}              # name or .attr -> the definitions it can name
    roots = set()             # names read where a module runs
    readers = sorted((root / "perfbench").glob("*.py"))
    for path in sorted((root / "src" / "fixcat").glob("*.py")) + readers:
        tree = ast.parse(path.read_text(), str(path))
        alias = {a.asname: a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 for a in node.names if a.asname}

        def read(*nodes):
            names = {name for node in nodes for name in loads(node)}
            return names | {alias[name] for name in names if name in alias}

        if path in readers:
            roots |= read(tree)
            continue
        for node in tree.body:
            if not isinstance(node, DEFINITION):
                roots |= read(node)
                continue
            qual = f"{path.stem}.{node.name}"
            for name in (node.name, "." + node.name):
                meaning.setdefault(name, []).append(qual)
            roots |= read(*header(node))
            if not isinstance(node, ast.ClassDef):
                body[qual] = read(*node.body)
                continue
            body[qual], dunders[qual] = set(), []
            for item in node.body:
                if not isinstance(item, DEFINITION):
                    roots |= read(item)
                    continue
                method = f"{qual}.{item.name}"
                roots |= read(*header(item))
                body[method] = read(*item.body)
                if item.name.startswith("__") and item.name.endswith("__"):
                    dunders[qual].append(method)
                else:
                    meaning.setdefault("." + item.name, []).append(method)
    reached = set()
    todo = [ENTRY] + [q for name in roots for q in meaning.get(name, ())]
    while todo:
        qual = todo.pop()
        if qual in reached or qual not in body:
            continue
        reached.add(qual)
        todo.extend(q for name in body[qual] for q in meaning.get(name, ()))
        todo.extend(dunders.get(qual, ()))
    owned = {m for methods in dunders.values() for m in methods}
    return set(body) - owned, reached


def undecided(root, allowed):
    """What keeps `root`'s unreached definitions from being exactly
    `allowed`: one line per unreached definition not in it, and per
    stale entry, reached or no longer defined."""
    defined, reached = reachability(root)
    return ([f"unreached: {q}" for q in sorted(defined - reached - allowed)]
            + [f"stale, reached: {q}" for q in sorted(allowed & reached)]
            + [f"stale, not defined: {q}" for q in sorted(allowed - defined)])


def open_items():
    """The numbers of the items ROADMAP.md still lists."""
    text = (TESTS.parent / "ROADMAP.md").read_text()
    return {int(n) for n in re.findall(r"^### (\d+)\. ", text, re.M)}


def test_every_unreached_definition_is_decided():
    assert len(list(SRC.glob("*.py"))) > 1
    assert len(list(PERFBENCH.glob("*.py"))) > 1
    assert undecided(TESTS.parent, set(UNREACHED_BY_DESIGN)) == []
    assert set(UNREACHED_BY_DESIGN.values()) <= open_items()


def write_tree(root, files):
    """Write `files`, a dict of relative path -> source, under `root`."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


CLI = {"src/fixcat/cli.py": """
    from .m import run

    def main():
        return run()
    """}


def test_walk_reports_a_def_only_an_unreached_def_calls(tmp_path):
    root = write_tree(tmp_path, {**CLI, "src/fixcat/m.py": """
        def run():
            return 1

        def dead():
            return helper()

        def helper():
            return 2
        """})
    defined, reached = reachability(root)
    assert defined == {"cli.main", "m.run", "m.dead", "m.helper"}
    assert defined - reached == {"m.dead", "m.helper"}


def test_walk_gives_a_dunder_to_its_class_not_its_name(tmp_path):
    # reading `__eq__` by name reaches no class's __eq__; constructing
    # Kept reaches its own
    root = write_tree(tmp_path, {**CLI, "src/fixcat/m.py": """
        def run():
            return Kept().__eq__(None)

        class Kept:
            def __eq__(self, other):
                return kept_helper()

        class Lost:
            def __eq__(self, other):
                return lost_helper()

        def kept_helper():
            return 1

        def lost_helper():
            return 2
        """})
    defined, reached = reachability(root)
    assert "m.Kept.__eq__" not in defined
    assert defined - reached == {"m.Lost", "m.lost_helper"}


def test_walk_matches_a_bare_name_to_no_method(tmp_path):
    # the local `size` does not reach Tree.size; `.depth` reaches
    # Tree.depth, and a bare `depth_of` its module-level function
    root = write_tree(tmp_path, {**CLI, "src/fixcat/m.py": """
        def run():
            size = 3
            return Tree().depth() + size + depth_of(size)

        def depth_of(n):
            return n

        class Tree:
            def size(self):
                return 1

            def depth(self):
                return 2
        """})
    defined, reached = reachability(root)
    assert {"m.Tree.size", "m.Tree.depth", "m.depth_of"} <= defined
    assert defined - reached == {"m.Tree.size"}


def test_walk_counts_what_perfbench_reads_and_not_what_a_test_reads(tmp_path):
    root = write_tree(tmp_path, {
        **CLI,
        "src/fixcat/m.py": """
            def run():
                return 1

            def probe():
                return _probe_helper()

            def _probe_helper():
                return 2

            def tested():
                return 3
            """,
        "perfbench/workloads.py": """
            from fixcat import m
            m.probe()
            """,
        "tests/test_m.py": """
            from fixcat.m import tested
            tested()
            """})
    defined, reached = reachability(root)
    assert defined - reached == {"m.tested"}


def test_walk_reports_stale_allow_list_entries(tmp_path):
    root = write_tree(tmp_path, {**CLI, "src/fixcat/m.py": """
        def run():
            return 1

        def dead():
            return 2
        """})
    assert undecided(root, {"m.dead"}) == []
    assert undecided(root, set()) == ["unreached: m.dead"]
    assert undecided(root, {"m.dead", "m.run", "m.gone"}) == [
        "stale, reached: m.run", "stale, not defined: m.gone"]


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
