"""Command-line front end: outputs, exit codes, CSV trace files."""

import csv
import io
import os
import re
import string
import subprocess
import sys
import types
from pathlib import Path

import pytest

from lorasync import cli
from lorasync.cli import CSV_HEADER, main
from lorasync.config import load_scenario
from lorasync.sim import _CHUNK_ROWS, run
from lorasync.units import NS_PER_S, fmt_ms, ms_to_ns

CONFIGS = Path(__file__).parent.parent / "configs"
BENCH = str(CONFIGS / "testbench.ini")


def _child_env() -> dict:
    """The environment of a child interpreter that imports the lorasync these tests import."""
    src = str(Path(cli.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_airtime_worst_case(capsys):
    code, out, _ = _run(capsys, "airtime", "--max")
    assert code == 0
    assert "rounds to 11936 ms" in out
    assert "14 bits to count it" in out
    assert "11935.744 ms" in out


def test_airtime_explicit_params(capsys):
    code, out, _ = _run(capsys, "airtime", "--sf", "7", "--bw", "125",
                        "--cr", "1", "--pl", "193")
    assert code == 0
    assert "symbol    1.024 ms" in out
    assert "307.456 ms" in out
    assert "rounds to 307 ms" in out


def test_airtime_flags(capsys):
    code, out, _ = _run(capsys, "airtime", "--sf", "8", "--bw", "125",
                        "--cr", "1", "--pl", "19", "--no-crc")
    assert code == 0
    assert "92.672 ms" in out
    assert "rounds to 93 ms" in out


def test_airtime_missing_params_is_usage_error(capsys):
    code, _, err = _run(capsys, "airtime", "--sf", "7")
    assert code == 1
    assert "error:" in err


def test_airtime_invalid_params(capsys):
    code, _, err = _run(capsys, "airtime", "--sf", "17", "--bw", "125",
                        "--cr", "1", "--pl", "10")
    assert code == 1
    assert "sf" in err


def test_simulate_summary(capsys):
    code, out, _ = _run(capsys, "simulate", BENCH)
    assert code == 0
    assert "run summary" in out
    assert "[summary]" in out
    kv = dict(
        line.split("=", 1)
        for line in out[out.index("[summary]"):].splitlines()
        if "=" in line
    )
    assert kv["strategy"] == "adaptive"
    assert kv["t_slot_ms"] == "1757"
    assert kv["ideal_arrival_ms"] == "306"
    assert kv["in_sync_lower_ms"] == "126"
    assert kv["in_sync_upper_ms"] == "486"
    assert int(kv["frames_total"]) > 0
    assert int(kv["resyncs_total"]) >= 1
    assert "device.feather.resyncs" in kv
    assert "device.ttgo.resyncs" in kv
    assert float(kv["duty_cycle_fraction"]) < float(kv["duty_cycle_limit"])
    # every downlink costs t_rx, over the 23400 s run
    airtime_ns = int(kv["downlink_count"]) * ms_to_ns(91)
    assert kv["downlink_airtime_ms"] == fmt_ms(airtime_ns)
    assert kv["duty_cycle_fraction"] == f"{airtime_ns / (23400 * NS_PER_S):.6f}"


def test_simulate_trace_csv(tmp_path, capsys):
    out_file = tmp_path / "trace.csv"
    code, _, err = _run(capsys, "simulate", BENCH, "--out", str(out_file))
    assert code == 0
    assert "trace rows" in err
    with open(out_file, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) > 1
    first = dict(zip(CSV_HEADER, rows[1]))
    assert first["frame_index"] == "0"
    assert first["device_id"] in ("feather", "ttgo")
    assert first["in_sync"] in ("0", "1")
    assert first["strategy"] == "adaptive"
    # ms values print as exact decimals, never scientific notation
    assert "e" not in first["true_time_ms"].lower()
    # resync rows carry a remaining time, in-sync rows an empty field
    for raw in rows[1:]:
        row = dict(zip(CSV_HEADER, raw))
        assert (row["remaining_ms"] != "") == (row["action"] == "resync")


def test_each_frame_is_judged_once_by_the_server_and_once_by_the_writer(tmp_path):
    # counted with sys.setprofile, so no name in the package is patched:
    # the server judges each uplink end with one slot call and derives a
    # correction's remaining time with one more; the trace writer does
    # the same for each row it renders
    from lorasync import protocol, slot

    slot_codes = {f.__code__ for f in vars(slot).values()
                  if isinstance(f, types.FunctionType) and f.__module__ == slot.__name__}
    server_code = protocol.ns_on_uplink_end.__code__
    calls = {"slot": 0, "server": 0}

    def profile(frame, event, arg):
        if event == "call":
            if frame.f_code in slot_codes:
                calls["slot"] += 1
            elif frame.f_code is server_code:
                calls["server"] += 1

    sc = load_scenario(BENCH)._replace(downlink_loss=0.3)
    sys.setprofile(profile)
    try:
        _, trace = run(sc)
        cli.write_trace_csv(tmp_path / "trace.csv", trace)
    finally:
        sys.setprofile(None)
    frames = len(trace)
    resync_rows = sum(row.action == "resync" for row in trace)
    assert frames > 100 and resync_rows > 0
    assert calls == {"slot": 2 * frames + 2 * resync_rows, "server": frames}


def test_simulate_csv_quotes_device_names_like_csv_writer(tmp_path, capsys, monkeypatch):
    # device names are free text; a config can't carry a leading space,
    # so the scenario is built here and handed to the CLI
    bench = load_scenario(BENCH)
    feather, ttgo = bench.devices
    devices = (
        feather._replace(name="a,b"),
        ttgo._replace(name='say "hi"'),
        ttgo._replace(name=" lead"),
    )
    sc = bench._replace(duration_s=2 * bench.duration_s, devices=devices)
    monkeypatch.setattr(cli, "load_scenario", lambda path: sc)
    out_file = tmp_path / "trace.csv"
    assert _run(capsys, "simulate", "scenario.ini", "--out", str(out_file))[0] == 0

    _, rows = run(sc)
    assert len(rows) > _CHUNK_ROWS  # more than one chunk
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([
            r.frame_index,
            r.device_id,
            fmt_ms(r.true_time_ns),
            fmt_ms(r.arrival_position_ns),
            fmt_ms(r.signed_drift_ns),
            int(r.in_sync),
            r.action,
            "" if r.remaining_ms is None else r.remaining_ms,
            r.strategy,
        ])
    assert out_file.read_bytes() == ref.getvalue().encode("utf-8")
    with open(out_file, newline="", encoding="utf-8") as fh:
        names = {row[1] for row in list(csv.reader(fh))[1:]}
    assert names == {"a,b", 'say "hi"', " lead"}


def test_simulate_csv_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert _run(capsys, "simulate", BENCH, "--out", str(a))[0] == 0
    assert _run(capsys, "simulate", BENCH, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_override_changes_trace(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert _run(capsys, "simulate", BENCH, "--out", str(a), "--seed", "1")[0] == 0
    assert _run(capsys, "simulate", BENCH, "--out", str(b), "--seed", "2")[0] == 0
    assert a.read_bytes() != b.read_bytes()


def test_simulate_missing_config(capsys):
    code, _, err = _run(capsys, "simulate", str(CONFIGS / "nope.ini"))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [["simulate"], ["airtime", "--bw", "300"], [], ["bogus"],
                                  ["compare", BENCH, "--seed", "x"]])
def test_command_line_usage_errors_exit_1(capsys, argv):
    # a usage error is a bad parameter, as the module docstring says: exit 1
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: lorasync") and "error:" in err


@pytest.mark.parametrize("command", [[], ["airtime"], ["simulate"], ["compare"]])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as e:
        main([*command, "--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lorasync")


_ONE_DEVICE = """\
[scenario]
duration_s = {duration_s}

[slot]
t_tx_ms = 306
t_rx_ms = 91
rx_delay_ms = 1000
tb1_ms = 180
tb2_ms = 180

[device d]
{clock}
tx_period_s = {tx_period_s}
"""
_WALK = "clock = random_walk\nstep_std_ppm = 0.5\ninitial_ppm = 10\nstep_interval_s = "


@pytest.mark.parametrize(
    "duration_s, clock, tx_period_s",
    [
        ("2e10", _WALK + "5e9", "4e9"),
        ("3600", "clock = piecewise\nsegments = 0:5, 10000000000:3", "30"),
    ],
)
def test_simulate_rejects_times_past_int64(capsys, tmp_path, duration_s, clock, tx_period_s):
    path = tmp_path / "far.ini"
    path.write_text(_ONE_DEVICE.format(duration_s=duration_s, clock=clock,
                                       tx_period_s=tx_period_s))
    code, _, err = _run(capsys, "simulate", str(path))
    assert code == 1
    assert err.startswith("error:") and "int64" in err


def test_simulate_rejects_a_walk_whose_step_cannot_advance_local_time(tmp_path):
    # each 1 ns step at -600000 ppm adds 1 + round(-0.6) = 0 ns of local
    # time: scheduling on this clock used to draw steps until killed.  It
    # runs in a child, so a regression fails on the timeout, not hangs
    path = tmp_path / "stuck.ini"
    clock = "clock = random_walk\nstep_std_ppm = 0\ninitial_ppm = -600000\nstep_interval_s = 1e-9"
    path.write_text(_ONE_DEVICE.format(duration_s=60, clock=clock, tx_period_s=30))
    timed_main = (
        "import sys, time\n"
        "from lorasync.cli import main\n"
        "t0 = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - t0)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", timed_main, "simulate", str(path)],
        env=_child_env(), capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "device d:" in proc.stderr
    assert "must advance local time" in proc.stderr
    assert float(proc.stdout) < 1.0


def test_simulate_rejects_a_walk_with_too_many_steps(tmp_path):
    # 1 ns steps over 600 s + 2 * 30 s are 6.6e11 draws, days of drawing.
    # It runs in a child, so a regression fails on the timeout, not hangs
    path = tmp_path / "steps.ini"
    path.write_text(_ONE_DEVICE.format(duration_s=600, clock=_WALK + "1e-9", tx_period_s=30))
    proc = subprocess.run(
        [sys.executable, "-m", "lorasync.cli", "simulate", str(path)],
        env=_child_env(), capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    # the error points at the device's section
    assert proc.stderr == (
        "error: line 11: device d: a random walk may draw at most 10000000 steps "
        "over duration_s + 2 * tx_period_s\n"
    )


def test_simulate_rejects_a_fleet_of_walks_with_too_many_steps_between_them(tmp_path):
    # 1000 walks of 10 ms steps over 99,000 s + 2 * 10 s each pass their
    # own bound and send 9.9e6 frames, under MAX_FRAMES, but draw about
    # 9.9e9 steps between them, hours of drawing.  It runs in a child, so
    # a regression fails on the timeout, not hangs
    path = tmp_path / "fleet.ini"
    fleet = "".join(
        f"\n[device d{i}]\nclock = random_walk\nstep_interval_s = 0.01\n"
        f"step_std_ppm = 0\ninitial_ppm = 20\ntx_period_s = 10\n"
        for i in range(1000)
    )
    path.write_text(_ONE_DEVICE.split("\n[device d]")[0].format(duration_s=99000) + fleet)
    proc = subprocess.run(
        [sys.executable, "-m", "lorasync.cli", "simulate", str(path)],
        env=_child_env(), capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    # the error points at [scenario]
    assert proc.stderr == (
        "error: line 1: the random walks' steps over duration_s + 2 * tx_period_s, summed "
        "over the devices, must be at most 10000000\n"
    )


def test_simulate_rejects_a_run_of_too_many_frames(tmp_path):
    # one device every 30 s for 4.6e9 s is about 1.5e8 frames, each kept
    # in the trace: minutes of run and gigabytes of memory.  It runs in a
    # child, so a regression fails on the timeout, not hangs
    path = tmp_path / "frames.ini"
    path.write_text(_ONE_DEVICE.format(duration_s="4.6e9", clock="clock = ideal", tx_period_s=30))
    proc = subprocess.run(
        [sys.executable, "-m", "lorasync.cli", "simulate", str(path)],
        env=_child_env(), capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    # the error points at [scenario]
    assert proc.stderr == (
        "error: line 1: duration_s / tx_period_s summed over the devices must be at most "
        "10000000, the frames a run may send\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["simulate", BENCH], ["airtime", "--max"], ["compare", BENCH]],
    ids=["simulate", "airtime", "compare"],
)
def test_closed_stdout_is_a_runtime_failure(argv):
    # the reader is gone before the CLI writes a byte, so every write to
    # stdout fails.  Block-buffered, as a pipe is by default, the output
    # waits for a flush; left to the interpreter's own flush at exit, the
    # failure prints a traceback and exits 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lorasync.cli", *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Exception ignored" not in proc.stderr and "Traceback" not in proc.stderr


_TWO_DEVICES = """\
[scenario]
duration_s = 600

[slot]
t_tx_ms = 306
t_rx_ms = 91
rx_delay_ms = 1000
tb1_ms = 180
tb2_ms = 180

[device steady]
clock = ideal
tx_period_s = 30

[device wobbly]
clock = random_walk
step_interval_s = {step_interval_s}
step_std_ppm = 900000
initial_ppm = 0
tx_period_s = 30
"""


# with 1 ms steps the walk fails while the first uplinks are placed, with
# 10 s steps while a later uplink is scheduled
@pytest.mark.parametrize("step_interval_s", ["0.001", "10"], ids=["bootstrap", "event-loop"])
def test_simulate_names_the_device_whose_clock_fails(capsys, tmp_path, step_interval_s):
    path = tmp_path / "wobbly.ini"
    path.write_text(_TWO_DEVICES.format(step_interval_s=step_interval_s))
    code, _, err = _run(capsys, "simulate", str(path))
    assert code == 1
    assert err == "error: device wobbly: random walk left the valid ppm range\n"


def test_simulate_accepts_a_week(capsys, tmp_path):
    path = tmp_path / "week.ini"
    path.write_text(_ONE_DEVICE.format(duration_s=7 * 86400, clock=_WALK + "10",
                                       tx_period_s=3600))
    code, out, _ = _run(capsys, "simulate", str(path))
    assert code == 0
    # one uplink an hour, the first at a random phase inside the first hour
    assert "frames_total=167" in out


def test_compare_table_and_machine_block(capsys):
    code, out, _ = _run(capsys, "compare", BENCH)
    assert code == 0
    assert "overhead ratio" in out
    assert "byte ratio" in out
    assert "[compare]" in out
    kv = dict(
        line.split("=", 1)
        for line in out[out.index("[compare]"):].splitlines()
        if "=" in line
    )
    adaptive = int(kv["adaptive.resyncs"])
    fixed_1h = int(kv["fixed_3600.resyncs"])
    fixed_30m = int(kv["fixed_1800.resyncs"])
    assert adaptive >= 1
    assert fixed_1h == 12
    assert fixed_30m == 26
    assert int(kv["adaptive.sync_overhead_bytes"]) == 2 * adaptive
    assert int(kv["fixed_3600.sync_overhead_bytes"]) == 8 * fixed_1h
    assert float(kv["fixed_3600.overhead_ratio"]) == round(fixed_1h / adaptive, 2)


def _variant(tmp_path, round_s=None) -> str:
    """configs/testbench.ini, or its fixed-rate variant with round_s rounds."""
    if round_s is None:
        return BENCH
    path = tmp_path / f"fixed{round_s}.ini"
    path.write_text(Path(BENCH).read_text().replace(
        "strategy = adaptive", f"strategy = fixed_rate\nround_s = {round_s}"))
    return str(path)


def _summary_block(out: str) -> dict:
    _, block = out.split("\n\n[summary]\n")
    return dict(line.split("=", 1) for line in block.splitlines())


def _printed_values(template: str, line: str) -> list:
    """(field, value) for each {field} of template, as line prints it."""
    parts = list(string.Formatter().parse(template))
    match = re.fullmatch("".join(re.escape(text) + ("(.*?)" if field else "")
                                 for text, field, _, _ in parts), line)
    assert match, f"{line!r} does not read as {template!r}"
    return list(zip([field for _, field, _, _ in parts if field], match.groups()))


@pytest.mark.parametrize("round_s", [None, 600], ids=["adaptive", "fixed600"])
def test_human_summary_prints_each_fact_as_the_block_does(capsys, tmp_path, round_s):
    code, out, _ = _run(capsys, "simulate", _variant(tmp_path, round_s))
    assert code == 0
    facts = _summary_block(out)
    # the slot parts that only the human line prints, as the config sets them
    facts.update(rx_delay_ms="1000", t_rx_ms="91", tb1_ms="180", tb2_ms="180")
    # the human lines, each printed value named by its fact
    templates = [
        "run summary",
        "  strategy         {strategy}" + ("" if round_s is None else " ({round_s} s rounds)"),
        "  duration         {duration_s} s, {frames_total} frames, {collision_count} collisions",
        "  slot             {t_slot_ms} ms = tx {ideal_arrival_ms} + delay {rx_delay_ms}"
        " + rx {t_rx_ms} + guards {tb1_ms}/{tb2_ms}",
        "  in-sync window   uplink end in ({in_sync_lower_ms}, {in_sync_upper_ms}) ms,"
        " ideal {ideal_arrival_ms} ms",
        *(f"  device {name:<10} resyncs {{device.{name}.resyncs}},"
          f" out-of-sync {{device.{name}.out_sync_frames}}" for name in ("feather", "ttgo")),
        "  gateway          {downlink_count} acks, {sync_overhead_bytes} sync bytes,"
        " {downlink_airtime_ms} ms downlink air-time",
        "  duty cycle       {duty_cycle_fraction} of {duty_cycle_limit} allowed",
    ]
    human = out[:out.index("\n\n[summary]\n")].splitlines()
    assert len(human) == len(templates)
    for template, line in zip(templates, human):
        for field, value in _printed_values(template, line):
            assert value == facts[field], field


def test_compare_rows_read_each_variant_as_simulate_prints_it(capsys, tmp_path):
    code, out, _ = _run(capsys, "compare", BENCH)
    assert code == 0
    table = {}
    for line in out[:out.index("\n\n[compare]\n")].splitlines()[1:]:
        name, *values = re.split(r" {2,}", line.strip())
        table[name] = values
    for j, round_s in enumerate([None, 3600, 1800]):
        code, out, _ = _run(capsys, "simulate", _variant(tmp_path, round_s))
        assert code == 0
        facts = _summary_block(out)
        out_sync = sum(int(v) for k, v in facts.items() if k.endswith(".out_sync_frames"))
        assert table["resyncs"][j] == facts["resyncs_total"]
        assert table["out-of-sync frames"][j] == str(out_sync)
        assert table["sync overhead bytes"][j] == facts["sync_overhead_bytes"]
        assert table["downlink airtime ms"][j] == facts["downlink_airtime_ms"]
        assert table["duty-cycle fraction"][j] == facts["duty_cycle_fraction"]


def test_compare_custom_rounds(capsys):
    code, out, _ = _run(capsys, "compare", BENCH, "--rounds", "7200")
    assert code == 0
    assert "fixed_7200.resyncs" in out
    assert "fixed_3600" not in out


def test_compare_seed_override_runs_as_the_config_seed(capsys, tmp_path):
    seeded = tmp_path / "seeded.ini"
    text = Path(BENCH).read_text()
    assert "\nseed = 3\n" in text
    seeded.write_text(text.replace("\nseed = 3\n", "\nseed = 7\n"))
    code, out, _ = _run(capsys, "compare", str(seeded))
    assert code == 0
    assert _run(capsys, "compare", BENCH, "--seed", "7") == (0, out, "")
    assert _run(capsys, "compare", BENCH)[1] != out


def test_compare_bad_rounds(capsys):
    code, _, err = _run(capsys, "compare", BENCH, "--rounds", "soon")
    assert code == 1
    assert "rounds" in err
    code, _, _ = _run(capsys, "compare", BENCH, "--rounds", "-5")
    assert code == 1


def test_compare_rejects_duplicate_rounds(capsys):
    # a repeated round length would run one variant twice and print its keys twice
    code, out, err = _run(capsys, "compare", BENCH, "--rounds", "600,600")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "distinct" in err


_QUIET_PAIR = """\
[scenario]
duration_s = 600
{strategy}

[slot]
t_tx_ms = 306
t_rx_ms = 91
rx_delay_ms = 1000
tb1_ms = 180
tb2_ms = 180

[device busy]
clock = constant_ppm
offset_ppm = 200
tx_period_s = 30

[device quiet]
clock = ideal
tx_period_s = 1000000
"""


@pytest.mark.parametrize(
    "strategy", ["strategy = adaptive", "strategy = fixed_rate\nround_s = 300"]
)
def test_device_never_heard_is_reported_with_zero_counts(capsys, tmp_path, strategy):
    path = tmp_path / "quiet.ini"
    path.write_text(_QUIET_PAIR.format(strategy=strategy))
    sc = load_scenario(path)
    m, trace = run(sc)
    # the quiet device's first uplink, at a random phase inside its first
    # 10^6 s, ends past the 600 s run: the server never hears from it
    assert {r.device_id for r in trace} == {"busy"}
    assert m.resyncs["quiet"] == m.out_sync_frames["quiet"] == 0
    assert m.resyncs["busy"] > 0

    code, out, _ = _run(capsys, "simulate", str(path))
    assert code == 0
    assert "device quiet      resyncs 0, out-of-sync 0" in out
    kv = dict(
        line.split("=", 1)
        for line in out[out.index("[summary]"):].splitlines()
        if "=" in line
    )
    assert kv["device.quiet.resyncs"] == "0"
    assert kv["device.quiet.out_sync_frames"] == "0"
    per_resync = 2 if sc.strategy == "adaptive" else 8
    assert int(kv["sync_overhead_bytes"]) == per_resync * int(kv["resyncs_total"]) > 0


@pytest.mark.parametrize("duration_s", ["1234567", "1800.123456789"])
def test_summary_prints_run_and_round_lengths_exactly(capsys, tmp_path, duration_s):
    path = tmp_path / "long.ini"
    path.write_text(_ONE_DEVICE.format(duration_s=duration_s, clock="clock = ideal",
                                       tx_period_s=3600))
    code, out, _ = _run(capsys, "simulate", str(path))
    assert code == 0
    assert f"  duration         {duration_s} s, " in out
    assert _summary_block(out)["duration_s"] == duration_s
    # a config's round_s is a whole number; the library also takes a fraction
    sc = load_scenario(path)
    fixed = sc._replace(strategy="fixed_rate", round_s=float(duration_s))
    facts = {key: text for key, text, _ in cli._facts(fixed, run(fixed)[0])}
    assert facts["round_s"] == duration_s


def _compare_block(out: str) -> dict:
    _, block = out.split("\n\n[compare]\n")
    return dict(line.split("=", 1) for line in block.splitlines())


def test_compare_ratio_of_nothing_over_nothing_is_nan(capsys, tmp_path):
    # a 0.1 s run hears no device, so no variant resyncs
    path = tmp_path / "short.ini"
    path.write_text(_ONE_DEVICE.format(duration_s=0.1, clock="clock = ideal", tx_period_s=30))
    code, out, _ = _run(capsys, "compare", str(path), "--rounds", "3600")
    assert code == 0
    kv = _compare_block(out)
    assert kv["adaptive.resyncs"] == kv["fixed_3600.resyncs"] == "0"
    assert kv["fixed_3600.overhead_ratio"] == kv["fixed_3600.byte_ratio"] == "nan"

    # at seed 2 the ideal clock boots in sync and never needs a correction,
    # while every minute's round still costs one: a positive count over 0
    path.write_text(_ONE_DEVICE.format(duration_s=600, clock="clock = ideal", tx_period_s=30))
    code, out, _ = _run(capsys, "compare", str(path), "--rounds", "60", "--seed", "2")
    assert code == 0
    kv = _compare_block(out)
    assert kv["adaptive.resyncs"] == "0" and int(kv["fixed_60.resyncs"]) > 0
    assert kv["fixed_60.overhead_ratio"] == kv["fixed_60.byte_ratio"] == "inf"
