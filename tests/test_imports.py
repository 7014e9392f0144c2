"""The package is stdlib-only and single-process: every module it imports
is the standard library's or its own, and none of them starts a thread or
another process."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fixcat"
CONCURRENT = {"multiprocessing", "threading", "subprocess", "concurrent"}


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
