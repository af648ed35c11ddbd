"""Every top-level function and class in `src/mvmae` has a reader outside
the tests: a command, training, evaluation or the benchmark.

A reference is a use by name, by attribute or in an import, or an
identifier string (the benchmark patches functions by attribute name).
Docstrings and `__all__` entries do not count. Code that only tests read
belongs in the tests.

Also, every module-level import in `src/mvmae` is used in its module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names kept although nothing outside the tests reads them, with the reason
ALLOWED: dict[str, str] = {}


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring constants of a module and its defs."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                found.add(id(body[0].value))
    return found


def _all_entries(tree: ast.Module) -> set[int]:
    """ids of the string constants listed in `__all__`."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            found |= {id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return found


def _references(node: ast.AST, skip: set[int]) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names |= {alias.name for alias in sub.names}
        elif (
            isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            and sub.value.isidentifier() and id(sub) not in skip
        ):
            names.add(sub.value)
    return names


def scan(src_files, reader_files) -> set[str]:
    """Top-level functions and classes of `src_files` that no statement of
    `src_files` or `reader_files` refers to, their own bodies aside."""
    defined, referenced = set(), set()
    for path in {*src_files, *reader_files}:
        tree = ast.parse(Path(path).read_text(), filename=str(path))
        skip = _docstrings(tree) | _all_entries(tree)
        for statement in tree.body:
            names = _references(statement, skip)
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names.discard(statement.name)
                if path in src_files:
                    defined.add(statement.name)
            referenced |= names
    return defined - referenced


def test_every_src_definition_has_a_reader_outside_the_tests():
    src_files = set((ROOT / "src" / "mvmae").rglob("*.py"))
    reader_files = set((ROOT / "perfbench").glob("*.py"))  # not perfbench/tests
    unused = scan(src_files, reader_files)
    assert unused - ALLOWED.keys() == set(), "only tests use these; move them to the tests"
    assert ALLOWED.keys() - unused == set(), "allowed names that now have a reader"


def test_scan_counts_each_kind_of_reference(tmp_path):
    (tmp_path / "lib.py").write_text(
        '"""mentions by_doc"""\n'
        '__all__ = ["by_all"]\n'
        "def by_name(): pass\n"
        "def by_attr(): pass\n"
        "def by_import(): pass\n"
        "def by_string(): pass\n"
        "def by_doc(): pass\n"
        "def by_all(): pass\n"
        "def recursive():\n"
        '    """by_doc"""\n'
        "    return recursive()\n"
        "class Used: pass\n"
        "x = by_name\n"
    )
    (tmp_path / "reader.py").write_text(
        "from lib import by_import\n"
        "import lib\n"
        "lib.by_attr\n"
        'setattr(lib, "by_string", None)\n'
        "y: lib.Used\n"
    )
    unused = scan({tmp_path / "lib.py"}, {tmp_path / "reader.py"})
    assert unused == {"by_doc", "by_all", "recursive"}


def _imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module-level imports of a module (those under a
    top-level `if`, such as `if TYPE_CHECKING:`, included); `__future__`
    imports aside."""
    names = set()
    for statement in tree.body:
        for node in [statement, *(statement.body if isinstance(statement, ast.If) else [])]:
            if isinstance(node, ast.Import):
                names |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names |= {a.asname or a.name for a in node.names}
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names a module loads, with those in string annotations and the
    entries of its `__all__`."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    annotations = [
        n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))
    ] + [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for annotation in filter(None, annotations):
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= _used_names(ast.parse(c.value))
    entries = _all_entries(tree)
    used |= {c.value for c in ast.walk(tree) if id(c) in entries and isinstance(c.value, str)}
    return used


def unused_imports(path) -> set[str]:
    tree = ast.parse(Path(path).read_text(), filename=str(path))
    return _imported_names(tree) - _used_names(tree)


def test_every_src_import_is_used():
    unused = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in (ROOT / "src" / "mvmae").rglob("*.py")
        for name in unused_imports(path)
    }
    assert unused == set()


def test_import_scan_counts_each_kind_of_use(tmp_path):
    path = tmp_path / "lib.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import TYPE_CHECKING\n"
        "from a import by_call, by_string_annotation, by_all, unused\n"
        "if TYPE_CHECKING:\n"
        "    from b import under_if, unused_under_if\n"
        '__all__ = ["by_all"]\n'
        'def f(x: "under_if") -> "list[by_string_annotation]":\n'
        "    return by_call(js, x)\n"
        "os.path.join\n"
    )
    assert unused_imports(path) == {"unused", "unused_under_if"}
