"""The mutation scan's one operator: `raise` becomes `pass`. The scan
itself (tools/mutants.py) runs outside tier-1."""

import ast
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from mutants import raise_mutants  # noqa: E402

SOURCE = '''def f(x):
    try:
        return 1 / x
    except ZeroDivisionError:
        raise
    if x < 0:
        raise ValueError(
            f"negative {x}"
        )  # a comment stays
    return x
'''


def test_each_raise_becomes_one_pass_at_its_indent():
    bare = SOURCE.replace("        raise\n", "        pass\n")
    multi = SOURCE.replace(
        '        raise ValueError(\n            f"negative {x}"\n        )', "        pass"
    )
    assert raise_mutants(SOURCE) == [(5, bare), (7, multi)]
    assert multi.count("\n") == SOURCE.count("\n") - 2
    for _, mutated in raise_mutants(SOURCE):
        ast.parse(mutated)


def test_a_raise_after_a_colon_keeps_its_line():
    source = "def f(x):\n    if x: raise ValueError('é')  # ü\n"
    assert raise_mutants(source) == [(2, "def f(x):\n    if x: pass  # ü\n")]
