"""Mutation scan: does every `raise` in `src/mvmae` have a test that needs it?

    python3 tools/mutants.py

Run from anywhere in a checkout. The checkout is copied to a temporary
directory and only the copy is mutated. Each mutant replaces one `raise`
statement, all its lines, by one `pass` at its indent, then runs that
module's test files (TESTS below) with `-x`. A mutant that every one of
them passes survives: nothing fails when that check is gone. The
survivors are printed last, and the exit status is 1 if there are any.
The whole scan takes about 7 minutes on 2 cores.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "mvmae"

# module (relative to src/mvmae) -> the test files that cover it
TESTS = {
    "autodiff/ops.py": ["tests/test_autodiff.py"],
    "autodiff/optim.py": ["tests/test_optim.py"],
    "autodiff/tensor.py": ["tests/test_autodiff.py"],
    "checkpoint.py": ["tests/test_checkpoint.py"],
    "cli.py": ["tests/test_cli.py"],
    "config.py": ["tests/test_config.py", "tests/test_cli.py"],
    "data.py": ["tests/test_data.py"],
    # the failed-write tests are in test_pipeline.py
    "fileio.py": ["tests/test_cli.py", "tests/test_pipeline.py"],
    "geometry.py": ["tests/test_geometry.py"],
    "gradcheck.py": ["tests/test_cli.py", "tests/test_model.py"],
    "model.py": ["tests/test_model.py"],
    # parameters built from a checkpoint are checked as it loads
    "nn.py": ["tests/test_nn.py", "tests/test_checkpoint.py"],
    "pipeline.py": ["tests/test_pipeline.py", "tests/test_cli.py"],
    "projection.py": ["tests/test_projection.py"],
    "tokenizer.py": ["tests/test_tokenizer.py"],
}
# a mutant that hangs is killed by its timeout
TIMEOUT_S = 600


def raise_mutants(source: str) -> list[tuple[int, str]]:
    """(line, mutated source) for each `raise` statement of `source`, in
    line order: the statement, every line of it, becomes one `pass`."""
    lines = source.encode().splitlines(keepends=True)
    raises = sorted(
        (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)),
        key=lambda node: (node.lineno, node.col_offset),
    )
    mutants = []
    for node in raises:
        # ast offsets count UTF-8 bytes
        head = lines[node.lineno - 1][: node.col_offset]
        tail = lines[node.end_lineno - 1][node.end_col_offset :]
        mutated = lines[: node.lineno - 1] + [head + b"pass" + tail] + lines[node.end_lineno :]
        mutants.append((node.lineno, b"".join(mutated).decode()))
    return mutants


def killed(copy: Path, tests: list[str]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return True
    return run.returncode != 0


def main() -> int:
    modules = sorted(str(p.relative_to(ROOT / PACKAGE)) for p in (ROOT / PACKAGE).rglob("*.py"))
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        for module in modules:
            path = copy / PACKAGE / module
            source = path.read_text()
            mutants = raise_mutants(source)
            if mutants and module not in TESTS:
                raise SystemExit(f"no test files listed for {module}; add it to TESTS")
            try:
                for line, mutated in mutants:
                    path.write_text(mutated)
                    dead = killed(copy, TESTS[module])
                    print(f"{module}:{line} {'killed' if dead else 'SURVIVED'}", flush=True)
                    if not dead:
                        survivors.append(f"{module}:{line}")
            finally:
                path.write_text(source)
    print(f"{len(survivors)} surviving mutants" + "".join(f"\n  {s}" for s in survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
