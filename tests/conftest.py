"""Shared fixtures.

``bench_scenario`` builds the shipped two-device bench scenario from
configs/testbench.ini, with any scenario fields replaced.

The acceptance tests register one line per criterion through the
``criterion`` fixture; the terminal summary hook prints them in a single
block at the end of the run so the pass/fail status of every criterion
is visible at a glance even inside a large pytest run.
"""

from pathlib import Path

import pytest

from lorasync.config import load_scenario

TESTBENCH_INI = Path(__file__).parent.parent / "configs" / "testbench.ini"

_RESULTS: list[tuple[str, bool, str]] = []


@pytest.fixture
def bench_scenario():
    def make(**overrides):
        return load_scenario(TESTBENCH_INI)._replace(**overrides)

    return make


@pytest.fixture
def criterion():
    def record(name: str, ok: bool, detail: str = ""):
        _RESULTS.append((name, bool(ok), detail))
        assert ok, f"{name}: {detail}" if detail else name

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for name, ok, detail in _RESULTS:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f" ({detail})"
        tr.write_line(line, green=ok, red=not ok)
