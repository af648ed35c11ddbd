"""Every top-level function and class in `src/mvmae` has a reader outside
the tests: a command, training, evaluation or the benchmark.

A reference is a use by name, by attribute or in an import, or an
identifier string (the benchmark patches functions by attribute name).
Docstrings and `__all__` entries do not count. Code that only tests read
belongs in the tests.

Also, every module-level import in `src/mvmae` is used in its module, and
every parameter with a default is passed by some caller outside the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names kept although nothing outside the tests reads them, with the reason
ALLOWED: dict[str, str] = {
    "as_tensor": "perfbench/tests/test_workloads.py calls it; it goes with the next "
    "change to perfbench",
}


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


# parameters with a default that no caller outside the tests passes, with
# the reason each is kept
ALLOWED_DEFAULTS: dict[str, str] = {
    "cli.main(argv)": "the console script calls main() with no arguments, so "
    "that it parses sys.argv",
}


def _defs(tree: ast.Module):
    """(its qualified name, the name a call uses, the def, how many leading
    parameters a call does not pass) for each def of a module; a class's
    `__init__` is called by the class name, a method's `self` is bound."""
    methods = {
        id(item): node.name
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body if isinstance(item, ast.FunctionDef)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            cls = methods.get(id(node))
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            called = cls if node.name == "__init__" else node.name
            qualified = node.name if cls is None else f"{cls}.{node.name}"
            yield qualified, called, node, int(cls is not None and not static)


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether `call` passes the parameter `name` at `position` (None when
    it is keyword-only); a `*` or `**` argument may pass any."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unpassed_defaults(src_files, caller_files) -> set[str]:
    """`module.def(parameter)` for each parameter with a default of a def in
    `src_files` that no call in `src_files` or `caller_files` passes. A
    call matches a def by the name it calls, `f(...)` or `x.f(...)`."""
    calls: dict[str, list[ast.Call]] = {}
    defaults = []
    for path in {*src_files, *caller_files}:
        tree = ast.parse(Path(path).read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(called, []).append(node)
        if path not in src_files:
            continue
        for qualified, called, fn, bound in _defs(tree):
            label = f"{Path(path).stem}.{qualified}"
            positional = (fn.args.posonlyargs + fn.args.args)[bound:]
            first = len(positional) - len(fn.args.defaults)
            for position, arg in enumerate(positional[first:], start=first):
                defaults.append((label, called, arg.arg, position))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    defaults.append((label, called, arg.arg, None))
    return {
        f"{label}({name})"
        for label, called, name, position in defaults
        if not any(_passes(call, name, position) for call in calls.get(called, []))
    }


def test_every_src_default_is_passed_outside_the_tests():
    src_files = set((ROOT / "src" / "mvmae").rglob("*.py"))
    caller_files = set((ROOT / "perfbench").glob("*.py"))  # not perfbench/tests
    unpassed = unpassed_defaults(src_files, caller_files)
    assert unpassed - ALLOWED_DEFAULTS.keys() == set(), (
        "no caller outside the tests passes these; drop the parameter or pass it"
    )
    assert ALLOWED_DEFAULTS.keys() - unpassed == set(), "allowed parameters that now have a caller"


def test_default_scan_counts_each_kind_of_call(tmp_path):
    (tmp_path / "lib.py").write_text(
        "def f(a, by_position=1, by_keyword=2, never=3, *, kw_only=4, kw_never=5): pass\n"
        "def spread(x=0, y=1): pass\n"
        "def mapped(x=0): pass\n"
        "class C:\n"
        "    def __init__(self, size=0, unused=1): pass\n"
        "    def method(self, step=1): pass\n"
        "    @staticmethod\n"
        "    def static(step=1): pass\n"
        "f(0, 1, by_keyword=2)\n"
        "C(4)\n"
    )
    (tmp_path / "caller.py").write_text(
        "import lib\n"
        "lib.f(0, kw_only=1)\n"
        "lib.spread(*[1, 2])\n"
        "lib.mapped(**{})\n"
        "lib.C().method(2)\n"
        "lib.C.static()\n"
    )
    unpassed = unpassed_defaults({tmp_path / "lib.py"}, {tmp_path / "caller.py"})
    assert unpassed == {
        "lib.f(never)", "lib.f(kw_never)", "lib.C.__init__(unused)", "lib.C.static(step)",
    }
