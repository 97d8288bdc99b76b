"""The README's Python quickstart runs, and every value it quotes holds."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
QUOTED = re.compile(r"#\s*([-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)\b")


def quickstart() -> str:
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_runs_and_quoted_values_hold():
    source = quickstart()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:]
        quoted = QUOTED.match(comment.strip())
        if isinstance(stmt, ast.Expr) and quoted:
            value = eval(code, namespace)
            assert value == pytest.approx(float(quoted.group(1)), abs=1e-12), code
            checked += 1
        else:
            exec(code, namespace)
    assert checked >= 3
