"""The README's Python examples run as written, from the repository root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)
# a bare expression whose comment opens with the integer it evaluates to
STATED = re.compile(r"^(\w[\w.]*)\s+# ([\d_]+)\b", re.M)


def _blocks() -> list:
    return BLOCK.findall((ROOT / "README.md").read_text(encoding="utf-8"))


def test_the_readme_has_its_two_python_examples():
    assert len(_blocks()) == 2


def test_the_readme_python_examples_run(monkeypatch):
    # the examples read configs/ by relative path, and the second uses
    # the first's imports, as a reader running them in turn would
    monkeypatch.chdir(ROOT)
    namespace = {}
    for i, code in enumerate(_blocks()):
        exec(compile(code, f"README.md python block {i}", "exec"), namespace)
        for expr, value in STATED.findall(code):
            assert eval(expr, namespace) == int(value), expr
