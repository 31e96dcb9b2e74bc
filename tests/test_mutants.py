"""Mutants that the tier-1 tests must kill.

Each catalogue entry changes one exact snippet of a module under
src/lorasync and names the tests that must fail on the changed copy.
The test applies each to a fresh copy of src/ and runs those tests in a
subprocess with a timeout; a hang counts as killed, and the child is
killed with it.  The listed tests must first pass on an unchanged copy.
A snippet that no longer matches its module fails the test, so a change
that moves mutated code updates the catalogue with it.

Deselected by default; run it with

    PYTHONPATH=src python -m pytest -q -m slow tests/test_mutants.py
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
# each run takes a few seconds; a mutant that hangs is killed at this
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    file: str  # under src/lorasync
    snippet: str  # must occur exactly once
    replacement: str
    killers: tuple  # node ids of the tests that must kill it: their run fails


MUTANTS = (
    Mutant(
        "inverse draws the segment after its answer",
        "clock.py",
        "while seg[1] <= true_time_ns or seg[3] < local_ns:",
        "while seg[1] <= true_time_ns or seg[2] < local_ns:",
        (
            "tests/test_clock.py::test_random_walk_answers_an_inverse_before_the_step_that_fails",
            "tests/test_clock.py::test_times_past_the_int64_range_raise_param_error",
        ),
    ),
    Mutant(
        "a failed walk skips the step and draws on",
        "clock.py",
        """\
        if not abs(ppm) < _PPM_LIMIT or (advance := _forward(step, ppm)) <= 0:
            return
""",
        """\
        if not abs(ppm) < _PPM_LIMIT or (advance := _forward(step, ppm)) <= 0:
            ppm -= 0.0 + z * std
            advance = _forward(step, ppm)
""",
        (
            "tests/test_clock.py::test_random_walk_steps_are_gauss_draws",
            "tests/test_clock.py::test_every_segment_advances_local_time",
        ),
    ),
    Mutant(
        "inverse replays instead of answering in the segment before the cursor's",
        "clock.py",
        """\
        if local_start >= local_ns:
            start, _, local_start, _, ppm = self._prev
            if local_start >= local_ns:
                return SimClock(self.model).true_time_at_local(local_ns)
""",
        """\
        if local_start >= local_ns:
            return SimClock(self.model).true_time_at_local(local_ns)
""",
        ("tests/test_clock_properties.py::test_simulator_query_order_never_replays",),
    ),
    Mutant(
        "local_time reads a segment that starts after its query",
        "clock.py",
        """\
        if true_time_ns < start:  # the inverse moved the cursor past it
            return SimClock(self.model).local_time(true_time_ns)
""",
        "",
        ("tests/test_clock.py::test_peek_does_not_move_cursor",),
    ),
    Mutant(
        "forward map floors instead of rounding",
        "clock.py",
        "return dt + round(dt * ppm / 1_000_000)",
        "return dt + int(dt * ppm // 1_000_000)",
        (
            "tests/test_clock.py::test_true_time_at_local_inverse_property",
            "tests/test_clock_properties.py::test_forward_cursor_matches_bisection",
        ),
    ),
    Mutant(
        "random pick draws one bit too many",
        "protocol.py",
        "k = n.bit_length()",
        "k = n.bit_length() + 1",
        (
            "tests/test_protocol.py::test_pick_tx_time_matches_an_independent_draw",
            "tests/test_golden.py::test_slot_draws_are_pinned",
        ),
    ),
    Mutant(
        "random pick ignores now",
        "protocol.py",
        "nxt = _grid_point_at_or_after(d, now_local_ns if lo < now_local_ns else lo)",
        "nxt = _grid_point_at_or_after(d, lo)",
        ("tests/test_protocol.py::test_pick_tx_time_matches_an_independent_draw",),
    ),
    Mutant(
        "round boundary at the uplink's own end left uncounted",
        "protocol.py",
        "arrival_true_ns // s.round_ns - last // s.round_ns",
        "(arrival_true_ns - 1) // s.round_ns - last // s.round_ns",
        (
            "tests/test_protocol.py::test_fixed_rate_charges_every_boundary_between_two_uplinks",
            "tests/test_sim_properties.py::test_a_boundary_flags_the_next_uplink_of_every_device_heard",
        ),
    ),
)


def _run_tests(src: Path, node_ids) -> int | None:
    """pytest's exit code for node_ids with src first on the path, None on a hang."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        # on a timeout subprocess.run kills the child before it raises
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids],
            cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode


@pytest.mark.slow
def test_catalogued_mutants_are_killed(tmp_path, capsys):
    stale, survivors = [], []
    for m in MUTANTS:
        if (ROOT / "src" / "lorasync" / m.file).read_text().count(m.snippet) != 1:
            stale.append(m.name)
    assert not stale, f"snippets no longer match the source once: {stale}"

    pristine = tmp_path / "pristine"
    shutil.copytree(ROOT / "src", pristine, ignore=shutil.ignore_patterns("__pycache__"))
    killers = sorted({k for m in MUTANTS for k in m.killers})
    assert _run_tests(pristine, killers) == 0, "the killing tests fail on the unchanged source"

    for i, m in enumerate(MUTANTS):
        src = tmp_path / f"mutant{i}"
        shutil.copytree(pristine, src)
        path = src / "lorasync" / m.file
        path.write_text(path.read_text().replace(m.snippet, m.replacement))
        # 1: the tests ran and one failed; 2-5 is a broken run, not a kill
        rc = _run_tests(src, m.killers)
        if rc not in (1, None):
            survivors.append(f"{m.name} (pytest exit {rc})")
    with capsys.disabled():
        print(f"\nmutants killed: {len(MUTANTS) - len(survivors)}/{len(MUTANTS)}")
    assert not survivors, f"mutants that survived: {survivors}"
