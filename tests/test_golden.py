"""Golden outputs: pinned digests of what the CLI writes, across commits and processes.

For both shipped configs, each run adaptive, fixed-rate with 600 s rounds
and with 10% and 50% downlink loss, the sha256 of the trace CSV and of the
`[summary]` block must match `data/golden.json`; so must the `[compare]`
block of `compare configs/testbench.ini`, and the outputs of a small
fixed-rate scenario built to make events tie on the nanosecond (see
`_ties_config`) and of a scenario whose period windows hold from none
to about two thousand slot starts (see `_slot_draw_config`), and of a
scenario with one device per clock kind the config accepts (see
`_clocks_config`).  A change that alters any of these bytes is a
behaviour change: it re-pins the file and says why.

Replay must also hold across interpreter processes: two different
PYTHONHASHSEED values give byte-identical output.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lorasync.cli import main
from lorasync.config import parse_scenario
from lorasync.sim import run

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())

VARIANTS = {
    "adaptive": lambda text: text,
    "fixed600": lambda text: text.replace(
        "strategy = adaptive", "strategy = fixed_rate\nround_s = 600"
    ),
    "loss10": lambda text: text.replace("[scenario]", "[scenario]\ndownlink_loss = 0.1"),
    # at the configs' seed no resync ACK is lost at 10%, so loss10 pins
    # the same bytes as adaptive; 50% loses some and exercises the retry
    "loss50": lambda text: text.replace("[scenario]", "[scenario]\ndownlink_loss = 0.5"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _block(stdout: str, header: str) -> str:
    """The `[header]` line and the key=value lines after it, as printed."""
    lines = stdout.splitlines()
    start = lines.index(f"[{header}]")
    body = [lines[start]]
    for line in lines[start + 1:]:
        if "=" not in line:
            break
        body.append(line)
    return "\n".join(body) + "\n"


def _variant_config(tmp_path, config: str, variant: str) -> Path:
    text = (CONFIGS / f"{config}.ini").read_text()
    changed = VARIANTS[variant](text)
    assert changed != text or variant == "adaptive"
    path = tmp_path / f"{config}-{variant}.ini"
    path.write_text(changed)
    return path


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("config", ["testbench", "radio-derived"])
def test_simulate_outputs_are_pinned(tmp_path, capsys, config, variant):
    ini = _variant_config(tmp_path, config, variant)
    csv_path = tmp_path / "trace.csv"
    assert main(["simulate", str(ini), "--out", str(csv_path)]) == 0
    got = {
        "trace_csv": _sha256(csv_path.read_bytes()),
        "summary": _sha256(_block(capsys.readouterr().out, "summary").encode()),
    }
    assert got == GOLDEN["simulate"][f"{config}/{variant}"]


def _simulate_digests(tmp_path, capsys, text: str) -> dict:
    """The digests of `simulate --out` on the config text, as golden.json keeps them."""
    ini = tmp_path / "scenario.ini"
    ini.write_text(text)
    csv_path = tmp_path / "trace.csv"
    assert main(["simulate", str(ini), "--out", str(csv_path)]) == 0
    return {
        "trace_csv": _sha256(csv_path.read_bytes()),
        "summary": _sha256(_block(capsys.readouterr().out, "summary").encode()),
    }


def _ties_config(slot_pick: str) -> str:
    """Twenty ideal clocks on a 4 s slot with 1 s fixed-rate rounds.

    Every slot field is a whole number of half seconds and the grid is
    4 s, so resynced devices end their uplinks together, on a round
    boundary.  d00 and d01 have a 1 ms period, hence a bootstrap phase of
    0: their first uplinks end exactly on the first boundary, at 1 s,
    before any device is registered.  The event order at such ties
    decides whether that boundary flags them.
    """
    parts = [
        "[scenario]\nduration_s = 120\nseed = 7\nstrategy = fixed_rate\nround_s = 1\n"
        f"downlink_loss = 0.3\nslot_pick = {slot_pick}\n",
        "[slot]\nt_tx_ms = 1000\nrx_delay_ms = 1000\nt_rx_ms = 1000\ntb1_ms = 500\ntb2_ms = 500\n",
    ]
    for i in range(20):
        period = "0.001" if i < 2 else ("4" if i % 2 else "8")
        parts.append(f"[device d{i:02d}]\nclock = ideal\ntx_period_s = {period}\n")
    return "\n".join(parts)


@pytest.mark.parametrize("slot_pick", ["aligned", "random"])
def test_tied_events_keep_their_order(tmp_path, capsys, slot_pick):
    text = _ties_config(slot_pick)
    _, trace = run(parse_scenario(text))
    ends = [r.true_time_ns for r in trace]
    assert ends[:2] == [1_000_000_000, 1_000_000_000]
    assert len(set(ends)) < len(ends) - 2  # more equal-end pairs than the first
    assert sum(1 for t in ends if t % 1_000_000_000 == 0) > len(ends) // 2

    assert _simulate_digests(tmp_path, capsys, text) == GOLDEN["simulate"][f"ties/{slot_pick}"]


def _slot_draw_config() -> str:
    """Random slot picks over windows of every size, with drift and ACK loss.

    The slot is 1757 ms.  A device picks one slot start inside each
    period window, so the periods below give windows of at most one
    slot start (1.75 s, shorter than a slot), one or two (2.5 s: a draw
    from one choice still moves the generator on for the next), exactly
    16 (28.112 s, a power of two) and 17 (29.869 s), and about 2050
    (3600 s).  Each period runs on an ideal clock, a constant offset and
    a random walk, so resyncs move the grid under the windows.
    """
    parts = [
        "[scenario]\nduration_s = 14400\nseed = 11\nstrategy = adaptive\n"
        "downlink_loss = 0.2\nslot_pick = random\n",
        "[slot]\nt_tx_ms = 306\nt_rx_ms = 91\nrx_delay_ms = 1000\ntb1_ms = 180\ntb2_ms = 180\n",
    ]
    clocks = {
        "ideal": "clock = ideal",
        "offset": "clock = constant_ppm\noffset_ppm = -40",
        "walk": "clock = feather-like",
    }
    for period in ("1.75", "2.5", "28.112", "29.869", "3600"):
        for label, clock in clocks.items():
            parts.append(f"[device p{period}-{label}]\n{clock}\ntx_period_s = {period}\n")
    return "\n".join(parts)


def test_slot_draws_are_pinned(tmp_path, capsys):
    text = _slot_draw_config()
    _, trace = run(parse_scenario(text))
    frames = {}
    for r in trace:
        frames[r.device_id] = frames.get(r.device_id, 0) + 1
    assert len(frames) == 15 and min(frames.values()) >= 3  # draws past the bootstrap

    assert _simulate_digests(tmp_path, capsys, text) == GOLDEN["simulate"]["slot-draws"]


def _clocks_config() -> str:
    """One device of every clock kind the config accepts, with ACK loss.

    The piecewise clock has three segments, a boundary at a fractional
    second and a negative rate; the random walk has its own seed; the
    constant offset is negative and fractional.  A fifth of the ACKs
    are lost, so corrections are retried.
    """
    parts = [
        "[scenario]\nduration_s = 10800\nseed = 5\nstrategy = adaptive\ndownlink_loss = 0.2\n",
        "[slot]\nt_tx_ms = 306\nt_rx_ms = 91\nrx_delay_ms = 1000\ntb1_ms = 40\ntb2_ms = 40\n",
    ]
    clocks = {
        "ideal": "clock = ideal",
        "ttgo": "clock = ttgo-like",
        "offset": "clock = constant_ppm\noffset_ppm = -12.75",
        "staged": "clock = piecewise\nsegments = 0:25, 1800.25:-30.5, 5400:12",
        "walk": "clock = random_walk\nstep_interval_s = 90\nstep_std_ppm = 3\n"
        "initial_ppm = -20\nseed = 17",
        "feather": "clock = feather-like",
    }
    for label, clock in clocks.items():
        parts.append(f"[device {label}]\n{clock}\ntx_period_s = 30\n")
    return "\n".join(parts)


def test_every_clock_kind_is_pinned(tmp_path, capsys):
    text = _clocks_config()
    _, trace = run(parse_scenario(text))
    resyncs = {}
    for r in trace:
        resyncs[r.device_id] = resyncs.get(r.device_id, 0) + (r.action == "resync")
    assert len(resyncs) == 6 and sum(resyncs.values()) > 2 * 6  # corrections past the first

    assert _simulate_digests(tmp_path, capsys, text) == GOLDEN["simulate"]["clocks"]


def test_compare_block_is_pinned(capsys):
    assert main(["compare", str(CONFIGS / "testbench.ini")]) == 0
    block = _block(capsys.readouterr().out, "compare")
    assert _sha256(block.encode()) == GOLDEN["compare"]["testbench"]


def test_output_is_identical_across_hash_seeds(tmp_path):
    ini = _variant_config(tmp_path, "testbench", "loss50")
    outputs = []
    for hash_seed in ("0", "4242"):
        csv_path = tmp_path / f"trace-{hash_seed}.csv"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "lorasync.cli", "simulate", str(ini), "--out", str(csv_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, csv_path.read_bytes()))
    assert outputs[0] == outputs[1]
