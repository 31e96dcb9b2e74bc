"""Mutants that the tier-1 tests must kill.

Each catalogue entry changes one exact snippet of a module under
src/lorasync and names the tests that must fail on the changed copy.
The test applies each to a fresh copy of src/ and runs those tests in a
subprocess with a timeout; a hang counts as killed, and the child is
killed with it.  The listed tests must first pass on an unchanged copy.
A snippet that no longer matches its module once, or a killer that
names no test function of an existing file, fails a fast tier-1 test,
so a change that moves mutated code or renames a test updates the
catalogue with it.

The kill run is deselected by default; run it with

    PYTHONPATH=src python -m pytest -q -m slow tests/test_mutants.py
"""

import ast
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
        "a piecewise segment's local end is taken at the next segment's rate",
        "clock.py",
        "local_end = local_start + _forward(end - start, ppm)",
        "local_end = local_start + _forward(end - start, segments[len(table) + 1][1])",
        (
            "tests/test_clock.py::test_piecewise_model",
            "tests/test_clock_properties.py::test_a_piecewise_table_matches_the_reference",
            "tests/test_golden.py::test_every_clock_kind_is_pinned",
        ),
    ),
    Mutant(
        "a piecewise segment that adds no local time is accepted",
        "clock.py",
        "if local_end <= local_start:",
        "if local_end < local_start:",
        (
            "tests/test_clock.py::test_every_segment_advances_local_time",
            "tests/test_clock_properties.py::test_a_piecewise_clock_is_built_only_if_each_segment_advances",
        ),
    ),
    Mutant(
        "inverse raises instead of answering in the segment before the cursor's",
        "clock.py",
        """\
            start, _, local_start, _, ppm = self._prev
            if local_start >= local_ns:
""",
        """\
            if True:
""",
        (
            "tests/test_clock.py::test_inverse_behind_the_window_raises",
            "tests/test_clock_properties.py::test_simulator_query_order_is_always_answered",
        ),
    ),
    Mutant(
        "inverse steps up from a short guess by 2 ns",
        "clock.py",
        """\
            while _forward(d, ppm) < target:
                d += 1
""",
        """\
            while _forward(d, ppm) < target:
                d += 2
""",
        ("tests/test_clock.py::test_inverse_is_exact_on_every_target_of_a_constant_rate",),
    ),
    Mutant(
        "inverse steps down from a guess that reaches the target at most once",
        "clock.py",
        "while d > 0 and _forward(d - 1, ppm) >= target:",
        "if d > 0 and _forward(d - 1, ppm) >= target:",
        ("tests/test_clock.py::test_inverse_is_exact_on_every_target_of_a_constant_rate",),
    ),
    Mutant(
        "inverse takes an exact hit at a negative rate as the answer",
        "clock.py",
        "elif reading > target or ppm < 0:",
        "elif reading > target:",
        ("tests/test_clock.py::test_inverse_is_exact_on_every_target_of_a_constant_rate",),
    ),
    Mutant(
        "local_time's behind-check misses by one segment",
        "clock.py",
        "if true_time_ns < start:",
        "if true_time_ns < self._prev[0]:",
        (
            "tests/test_clock.py::test_monotone_query_enforced",
            "tests/test_clock_properties.py::test_forward_cursor_matches_bisection",
        ),
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
        "k = -((s0 - (now_local_ns if lo < now_local_ns else lo)) // t_slot)",
        "k = -((s0 - lo) // t_slot)",
        ("tests/test_protocol.py::test_pick_tx_time_matches_an_independent_draw",),
    ),
    Mutant(
        "boot phase widened by one",
        "protocol.py",
        "phase = d.rng.randrange(max(1, d.tx_period_ns // NS_PER_MS)) * NS_PER_MS",
        "phase = d.rng.randrange(max(1, d.tx_period_ns // NS_PER_MS) + 1) * NS_PER_MS",
        ("tests/test_protocol.py::test_first_tx_time_matches_randrange",),
    ),
    Mutant(
        "random pick's grid point ceiling clamped at k = -1",
        "protocol.py",
        """\
    nxt = s0 + k * t_slot if k > 0 else s0
    if nxt < hi:
""",
        """\
    nxt = s0 + k * t_slot if k > -1 else s0 - t_slot
    if nxt < hi:
""",
        ("tests/test_protocol.py::test_pick_tx_time_matches_an_independent_draw",),
    ),
    Mutant(
        "aligned pick's grid point ceiling clamped at k = -1",
        "protocol.py",
        """\
    nxt = s0 + k * t_slot if k > 0 else s0
    d.window_start_local_ns = nxt + d.tx_period_ns
""",
        """\
    nxt = s0 + k * t_slot if k > -1 else s0 - t_slot
    d.window_start_local_ns = nxt + d.tx_period_ns
""",
        ("tests/test_protocol.py::test_pick_tx_time_matches_an_independent_draw",),
    ),
    Mutant(
        "random pick counts one slot start too few in its window",
        "protocol.py",
        "n = 1 + (hi - 1 - nxt) // t_slot",
        "n = (hi - 1 - nxt) // t_slot",
        ("tests/test_protocol.py::test_pick_tx_time_matches_an_independent_draw",),
    ),
    Mutant(
        "aligned pick does not advance the window",
        "protocol.py",
        "    d.window_start_local_ns = nxt + d.tx_period_ns\n",
        "",
        (
            "tests/test_protocol.py::test_period_rounds_up_to_grid_multiple",
            "tests/test_golden.py::test_tied_events_keep_their_order",
        ),
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
    Mutant(
        "boundary at the uplink's own end deferred to the device's next uplink",
        "protocol.py",
        "arrival_true_ns // s.round_ns - last // s.round_ns",
        "(arrival_true_ns - 1) // s.round_ns - (last - 1) // s.round_ns",
        (
            "tests/test_protocol.py::test_fixed_rate_charges_every_boundary_between_two_uplinks",
            "tests/test_sim_properties.py::test_a_boundary_flags_the_next_uplink_of_every_device_heard",
        ),
    ),
    Mutant(
        "run end drops the boundaries after each device's last uplink",
        "protocol.py",
        "s.resync_count[i] += end_true_ns // s.round_ns - last // s.round_ns",
        "pass",
        (
            "tests/test_protocol.py::test_fixed_rate_round_covers_all_devices_sorted",
            "tests/test_protocol.py::test_fixed_rate_charges_every_boundary_between_two_uplinks",
        ),
    ),
    Mutant(
        "run end charges devices never heard",
        "protocol.py",
        """\
            if last is not None:
                s.resync_count[i] += end_true_ns // s.round_ns - last // s.round_ns
""",
        """\
            s.resync_count[i] += end_true_ns // s.round_ns - (last or 0) // s.round_ns
""",
        (
            "tests/test_protocol.py::test_fixed_rate_round_covers_all_devices_sorted",
            "tests/test_cli.py::test_device_never_heard_is_reported_with_zero_counts",
        ),
    ),
    Mutant(
        "a correction ignores the elapsed exchange time",
        "protocol.py",
        "t = remaining_ms * NS_PER_MS - elapsed",
        "t = remaining_ms * NS_PER_MS",
        (
            "tests/test_protocol.py::test_resync_example",
            "tests/test_sim_properties.py::test_adaptive_resyncs_a_constant_ppm_clock_once_per_guard_drift",
            "tests/test_sim_properties.py::test_one_correction_leaves_half_a_millisecond_plus_the_drift_since",
        ),
    ),
    Mutant(
        "the ACK's remaining time is floored, not rounded half up",
        "protocol.py",
        "return ns_to_ms_round(remaining_to_next_slot(arrival_true_ns, cfg))",
        "return remaining_to_next_slot(arrival_true_ns, cfg) // NS_PER_MS",
        (
            "tests/test_sim_properties.py::test_one_correction_leaves_half_a_millisecond_plus_the_drift_since",
            "tests/test_golden.py::test_simulate_outputs_are_pinned",
        ),
    ),
    Mutant(
        "the in-sync judgement charges each drift against the other guard",
        "slot.py",
        "return pos, d, -cfg.tb2_ns < d < cfg.tb1_ns",
        "return pos, d, -cfg.tb1_ns < d < cfg.tb2_ns",
        (
            "tests/test_sim_properties.py::test_adaptive_resyncs_a_constant_ppm_clock_once_per_guard_drift",
        ),
    ),
    Mutant(
        "the in-sync judgement sends the half-slot tie to the negative side",
        "slot.py",
        "if 2 * d > t_slot:",
        "if 2 * d >= t_slot:",
        (
            "tests/test_slot.py::test_judgement_matches_an_independent_oracle",
            "tests/test_slot.py::test_in_sync_judgement_examples",
        ),
    ),
    Mutant(
        "the in-sync judgement counts the tb1 edge as in sync",
        "slot.py",
        "-cfg.tb2_ns < d < cfg.tb1_ns",
        "-cfg.tb2_ns < d <= cfg.tb1_ns",
        (
            "tests/test_slot.py::test_judgement_matches_an_independent_oracle",
            "tests/test_slot.py::test_in_sync_guard_edges_exact",
        ),
    ),
    Mutant(
        "Frozen._replace copies the slots without calling the constructor",
        "_record.py",
        "        return type(self)(*values, **changes)\n",
        """\
        copy = object.__new__(type(self))
        copy._set(*values)
        return copy
""",
        (
            "tests/test_records.py::test_a_copy_with_a_field_out_of_range_is_rejected",
            "tests/test_sim.py::test_scenario_validation",
        ),
    ),
    Mutant(
        "the shared empty ACK carries a remaining time of 0",
        "protocol.py",
        "_EMPTY_ACK = AckPlan(None)",
        "_EMPTY_ACK = AckPlan(0)",
        (
            "tests/test_protocol.py::test_in_sync_uplink_gets_empty_ack",
            "tests/test_golden.py::test_simulate_outputs_are_pinned",
        ),
    ),
    Mutant(
        "adaptive and fixed-rate resync prices swapped",
        "protocol.py",
        "SYNC_BYTES = {ADAPTIVE: REMAINING_MS.size, FIXED_RATE: 8}",
        "SYNC_BYTES = {ADAPTIVE: 8, FIXED_RATE: REMAINING_MS.size}",
        (
            "tests/test_cli.py::test_compare_table_and_machine_block",
            "tests/test_acceptance.py::test_a7_adaptive_vs_fixed_overhead",
        ),
    ),
    Mutant(
        "the ACK's remaining-time field is one byte wide",
        "frame.py",
        'REMAINING_MS = struct.Struct(">H")',
        'REMAINING_MS = struct.Struct(">B")',
        (
            "tests/test_frame.py::test_each_limit_derives_from_its_one_definition",
            "tests/test_frame.py::test_ack_golden_bytes",
        ),
    ),
    Mutant(
        "the FOpts length is read from FCtrl's high nibble",
        "frame.py",
        "return dev_addr, fctrl & 0x0F, fcnt",
        "return dev_addr, fctrl >> 4, fcnt",
        (
            "tests/test_frame.py::test_remaining_zero_is_distinct_from_absent",
            "tests/test_frame.py::test_decode_errors_carry_offsets",
        ),
    ),
    Mutant(
        "FCtrl is written 0 for an ACK that carries a correction",
        "frame.py",
        "return _HEADER.pack(mhdr, dev_addr, fopts_len, fcnt)",
        "return _HEADER.pack(mhdr, dev_addr, 0, fcnt)",
        (
            "tests/test_frame.py::test_ack_golden_bytes",
            "tests/test_frame.py::test_ack_roundtrip_random",
        ),
    ),
    Mutant(
        "the worst-case uplink codes at 4/7",
        "airtime.py",
        "WORST_CASE = RadioParams(sf=12, bw_hz=125_000, cr=4, pl_bytes=MAX_PL_BYTES)",
        "WORST_CASE = RadioParams(sf=12, bw_hz=125_000, cr=3, pl_bytes=MAX_PL_BYTES)",
        (
            "tests/test_frame.py::test_each_limit_derives_from_its_one_definition",
            "tests/test_cli.py::test_airtime_worst_case",
        ),
    ),
    Mutant(
        "the out-of-sync counts read the fixed-rate resync list",
        "sim.py",
        "out_sync_frames=dict(zip(names, server.out_sync_count))",
        "out_sync_frames=dict(zip(names, server.resync_count))",
        (
            "tests/test_sim_properties.py::test_a_boundary_flags_the_next_uplink_of_every_device_heard",
            "tests/test_golden.py::test_simulate_outputs_are_pinned",
        ),
    ),
    Mutant(
        "walk step bound compares seconds against nanoseconds",
        "sim.py",
        "horizon_s * NS_PER_S > MAX_WALK_STEPS",
        "horizon_s > MAX_WALK_STEPS",
        (
            "tests/test_sim.py::test_walk_step_count_is_bounded_over_the_clock_horizon",
            "tests/test_cli.py::test_simulate_rejects_a_walk_with_too_many_steps",
        ),
    ),
    Mutant(
        "frame bound checks each device alone, not their sum",
        "sim.py",
        "if sum(duration_s / d.tx_period_s for d in devices) > MAX_FRAMES:",
        "if max(duration_s / d.tx_period_s for d in devices) > MAX_FRAMES:",
        ("tests/test_sim.py::test_frame_count_is_bounded_over_all_devices",),
    ),
    Mutant(
        "walk bound checks each device alone, not their sum",
        "sim.py",
        "if sum(walk_steps) > MAX_WALK_STEPS:",
        "if max(walk_steps, default=0) > MAX_WALK_STEPS:",
        (
            "tests/test_sim.py::test_walk_step_count_is_bounded_summed_over_all_walks",
            "tests/test_cli.py::test_simulate_rejects_a_fleet_of_walks_with_too_many_steps_between_them",
        ),
    ),
    Mutant(
        "the adaptive resync count is a separate list that nothing increments",
        "protocol.py",
        "self.resync_count = self.out_sync_count if round_ns is None else [0] * n_devices",
        "self.resync_count = [0] * n_devices",
        (
            "tests/test_protocol.py::test_out_of_sync_uplink_gets_remaining_time",
            "tests/test_sim_properties.py::test_an_adaptive_resync_is_an_out_of_sync_frame",
        ),
    ),
    Mutant(
        "the duty-cycle fraction divides the air time by seconds",
        "cli.py",
        "airtime_ns / s_to_ns(sc.duration_s)",
        "airtime_ns / sc.duration_s",
        (
            "tests/test_cli.py::test_simulate_summary",
            "tests/test_golden.py::test_simulate_outputs_are_pinned",
        ),
    ),
    Mutant(
        "a device's out-of-sync count reads its resyncs",
        "cli.py",
        "out_sync = str(m.out_sync_frames[name])",
        "out_sync = str(m.resyncs[name])",
        (
            "tests/test_golden.py::test_simulate_outputs_are_pinned",
            "tests/test_cli.py::test_compare_rows_read_each_variant_as_simulate_prints_it",
        ),
    ),
    Mutant(
        "the out-of-sync total sums resyncs",
        "cli.py",
        "sum(m.out_sync_frames.values())",
        "sum(m.resyncs.values())",
        ("tests/test_cli.py::test_compare_rows_read_each_variant_as_simulate_prints_it",),
    ),
    Mutant(
        "the human duty line formats the fraction itself",
        "cli.py",
        "{t['duty_cycle_fraction']} of",
        "{float(t['duty_cycle_fraction']):.4f} of",
        ("tests/test_cli.py::test_human_summary_prints_each_fact_as_the_block_does",),
    ),
    Mutant(
        "a config's byte order mark is read as text",
        "config.py",
        'data.decode("utf-8-sig")',
        'data.decode("utf-8")',
        ("tests/test_config.py::test_a_byte_order_mark_is_read_as_utf8",),
    ),
    Mutant(
        "a command-line usage error exits 2",
        "cli.py",
        'self.exit(1, f"{self.prog}: error: {message}\\n")',
        'self.exit(2, f"{self.prog}: error: {message}\\n")',
        ("tests/test_cli.py::test_command_line_usage_errors_exit_1",),
    ),
    Mutant(
        "trace keeps the inverted server decision",
        "sim.py",
        "add_resync(remaining_ms is not None)",
        "add_resync(remaining_ms is None)",
        (
            "tests/test_sim.py::test_trace_invariants",
            "tests/test_golden.py::test_simulate_outputs_are_pinned",
        ),
    ),
    Mutant(
        "trace row derivation flips the action",
        "sim.py",
        '"resync" if resync else "none"',
        '"none" if resync else "resync"',
        (
            "tests/test_cli.py::test_simulate_trace_csv",
            "tests/test_golden.py::test_simulate_outputs_are_pinned",
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


def test_every_snippet_matches_its_module_once():
    stale = [
        m.name for m in MUTANTS
        if (ROOT / "src" / "lorasync" / m.file).read_text().count(m.snippet) != 1
    ]
    assert not stale, f"snippets no longer match the source once: {stale}"


def _test_functions(path: Path) -> set:
    """The names of the test functions defined at the top of a test file."""
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_killer_names_an_existing_test():
    missing = []
    for m in MUTANTS:
        for node_id in m.killers:
            file, _, function = node_id.partition("::")
            path = ROOT / file
            if not path.is_file() or function.partition("[")[0] not in _test_functions(path):
                missing.append(f"{m.name}: {node_id}")
    assert not missing, f"killers that name no test: {missing}"


@pytest.mark.slow
def test_catalogued_mutants_are_killed(tmp_path, capsys):
    survivors = []
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
