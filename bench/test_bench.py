"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Run from the root of a source checkout; takes about half a minute.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import check
import run as bench
import spans
import workloads

ROOT = os.path.dirname(bench.HERE)
SRC = os.path.join(ROOT, "src")

# three devices for two hours, air-times derived from radio parameters
TINY_INI = """\
[scenario]
duration_s = 7200
seed = 5
strategy = adaptive
downlink_loss = 0.2

[radio.uplink]
sf = 7
bw_khz = 125
cr = 1
payload_bytes = 193

[radio.downlink]
sf = 8
bw_khz = 125
cr = 1
payload_bytes = 19
crc = off

[slot]
rx_delay_ms = 1000
tb1_ms = 180
tb2_ms = 180

[device a]
clock = feather-like
tx_period_s = 30
payload_bytes = 193

[device b]
clock = random_walk
step_interval_s = 10
step_std_ppm = 0.5
initial_ppm = -35
tx_period_s = 60

[device c]
clock = constant_ppm
offset_ppm = 40
tx_period_s = 30
"""


@pytest.fixture
def checkout(tmp_path):
    """A scratch checkout root that shares this tree's sources."""
    os.symlink(SRC, tmp_path / "src")
    return str(tmp_path)


@pytest.fixture
def lorasync_cli():
    sys.path.insert(0, SRC)
    try:
        import lorasync.cli

        yield lorasync.cli
    finally:
        sys.path.remove(SRC)


def test_generator_is_deterministic_per_seed():
    code = (
        "import json, workloads; print(json.dumps("
        "{n: workloads.generate(n, 7) for n in workloads.WORKLOADS}))"
    )
    other = subprocess.run(
        [sys.executable, "-c", code],
        cwd=bench.HERE,
        env=dict(os.environ, PYTHONHASHSEED="12345"),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(other.stdout) == {n: workloads.generate(n, 7) for n in workloads.WORKLOADS}
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) != workloads.generate(name, 8)


def test_one_corrupt_byte_fails_the_run(checkout, monkeypatch):
    run = bench.Run(checkout, "fleet-1k", workloads.DEFAULT_SEED, trace=False)
    assert run.workload_run()["problems"] == []

    real_child = bench._child

    def corrupting_child(*args, **kwargs):
        out = real_child(*args, **kwargs)
        with open(run.csv, "r+b") as fh:
            fh.seek(1000)
            byte = fh.read(1)
            fh.seek(1000)
            fh.write(bytes([byte[0] ^ 1]))
        return out

    monkeypatch.setattr(bench, "_child", corrupting_child)
    assert run.workload_run()["problems"]


def test_trace_invariants_catch_a_flipped_verdict(checkout):
    run = bench.Run(checkout, "fleet-1k", 3, trace=False)
    _, stdout, _ = bench._child(checkout, run._spec(), hash_seed=1)
    with open(run.csv, "rb") as fh:
        data = fh.read()
    _, summary = check.block(stdout, "summary")
    assert check.check_trace(data, summary, run.config_text) == []
    flipped = data.replace(b",1,none,", b",0,none,", 1)
    assert flipped != data
    assert check.check_trace(flipped, summary, run.config_text)


def _traced_counts(root, name):
    ini = os.path.join(root, "tiny.ini")
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(TINY_INI)
    prefix = os.path.join(root, name)
    spec = {
        "src": SRC,
        "argv": ["simulate", ini, "--out", os.path.join(root, "tiny.csv")],
        "spans": prefix,
    }
    result, _, err = bench._child(root, spec, hash_seed=len(name))
    assert result is not None, err
    assert result["wrappers_left"] == []
    meta, cols = spans.read_spans(prefix)
    calls = {k: v["calls"] for k, v in spans.aggregate(meta, cols).items()}
    return calls, meta["counts"], list(cols["rid"]), list(cols["parent"])


def test_per_layer_counts_repeat_exactly(tmp_path):
    first = _traced_counts(str(tmp_path), "one")
    second = _traced_counts(str(tmp_path), "two")
    assert first == second
    calls, counts = first[0], first[1]
    assert calls["airtime.time_on_air"] == 2
    assert calls["sim.run"] == 1
    assert counts["cli.trace_rows"] == calls["protocol.ns_on_uplink_end"]
    assert calls["slot.uplink_end_in_sync"] == 3 * counts["cli.trace_rows"]


def test_no_wrapper_left_and_untraced_output_still_pinned(tmp_path, lorasync_cli):
    cli = lorasync_cli
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI)
    originals = (cli.run, cli.load_scenario, cli.write_trace_csv)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.wrappers_left()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", str(ini), "--out", str(tmp_path / "t.csv")]) == 0
    finally:
        tracer.uninstall()
    assert spans.wrappers_left() == []
    assert (cli.run, cli.load_scenario, cli.write_trace_csv) == originals

    name = "fleet-1k"
    config = tmp_path / "scenario.ini"
    config.write_text(workloads.generate(name, workloads.DEFAULT_SEED))
    csv_path = tmp_path / "trace.csv"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(workloads.cli_argv(name, str(config), str(csv_path))) == 0
    with open(os.path.join(bench.HERE, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)[name]
    text, _ = check.block(out.getvalue(), "summary")
    assert check.sha256(text.encode()) == pinned["block"]
    assert check.sha256(csv_path.read_bytes()) == pinned["trace"]


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", "fleet-1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
