"""The README quick start, run as written."""

import ast
import re
from pathlib import Path

import anticonc

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The code of the README's quick start."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Quick start (API)", 1)[1].split("```python\n", 1)[1]
    return block.split("```", 1)[0]


def test_readme_quick_start_runs():
    # each statement runs in order; an expression whose comment opens with a
    # value (up to two spaces or ", " and a word) must equal that value
    block = quick_start()
    lines = block.splitlines()
    # the package's public names, which it imports on first access
    api = {name: getattr(anticonc, name) for name in anticonc.__all__}
    ns: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
            continue
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
        shown = re.split(r"  |, (?=[a-z])", lines[stmt.lineno - 1].partition("# ")[2])[0]
        try:
            want = eval(shown, {**api, **ns})
        except (NameError, SyntaxError):  # prose, not a value
            continue
        assert got == want, (lines[stmt.lineno - 1], got)
        checked += 1
    assert checked >= 8
