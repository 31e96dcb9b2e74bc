"""Seeded scenario generator for the benchmark workloads.

Each workload is one CLI command run on one generated scenario file.  The
seed picks the scenario seed and every device parameter; the structure
(device count, horizon, slot geometry, command) is fixed per workload, so
all seeds do the same amount of work.  The program under test only ever
sees the generated INI text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# the published two-device bench geometry: 1757 ms slots
_SLOT_MS = """\
[slot]
t_tx_ms = 306
t_rx_ms = 91
rx_delay_ms = 1000
tb1_ms = 180
tb2_ms = 180
"""

# same geometry, but the air-times come from the radio parameters
# (307 ms up, 93 ms down), so every load goes through lorasync.airtime
_SLOT_RADIO = """\
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
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple  # CLI arguments after the config path; "--out" gets a path appended
    devices: int
    duration_s: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fleet-1k",
            "simulate --out, 1000 devices for 30 min: per-frame path at density, "
            "~58 uplinks per slot start, ~1000 pending events, trace CSV written",
            ("simulate", "--out"),
            devices=1000,
            duration_s=1800,
        ),
        Workload(
            "drift-week",
            "simulate --out, 4 random-walk devices for 7 days: clock inverse over "
            "~60k rate segments per clock, tiny heap, longest trace sets peak RSS",
            ("simulate", "--out"),
            devices=4,
            duration_s=7 * 86400,
        ),
        Workload(
            "compare-lossy",
            "compare --rounds 600,300, 100 devices for 2 h, 10% ACK loss, radio-derived "
            "slot: resync ACKs and grid rebuilds, three variants in series, no trace",
            ("compare", "--rounds", "600,300"),
            devices=100,
            duration_s=7200,
        ),
    )
}

DEFAULT_SEED = 1


def _rng(name: str, seed: int) -> random.Random:
    # str seeds hash with sha512, independent of PYTHONHASHSEED
    return random.Random(f"lorasync-bench:{name}:{seed}")


def _scenario(rng: random.Random, duration_s: int, extra: str = "") -> str:
    return (
        "[scenario]\n"
        f"duration_s = {duration_s}\n"
        f"seed = {rng.getrandbits(31)}\n"
        "strategy = adaptive\n"
        f"{extra}\n"
    )


def _mixed_fleet(rng: random.Random, n: int) -> list[str]:
    """Alternating random-walk (60 s steps) and constant-ppm crystals, |ppm| <= 40."""
    out = []
    for i in range(n):
        if i % 2 == 0:
            clock = (
                "clock = random_walk\n"
                "step_interval_s = 60\n"
                "step_std_ppm = 0.5\n"
                f"initial_ppm = {rng.uniform(-30.0, 30.0):.3f}\n"
            )
        else:
            clock = f"clock = constant_ppm\noffset_ppm = {rng.uniform(-40.0, 40.0):.3f}\n"
        out.append(f"[device d{i:04d}]\n{clock}tx_period_s = 30\npayload_bytes = 193\n")
    return out


def _drifters(rng: random.Random, n: int) -> list[str]:
    """Random-walk crystals with small steps every 10 s."""
    return [
        f"[device walk{i}]\n"
        "clock = random_walk\n"
        "step_interval_s = 10\n"
        "step_std_ppm = 0.02\n"
        f"initial_ppm = {rng.uniform(-20.0, 20.0):.3f}\n"
        "tx_period_s = 30\n"
        "payload_bytes = 193\n"
        for i in range(n)
    ]


def generate(name: str, seed: int) -> str:
    """INI text of workload `name` for `seed`; the same pair gives the same text."""
    w = WORKLOADS[name]
    rng = _rng(name, seed)
    if name == "fleet-1k":
        parts = [_scenario(rng, w.duration_s), _SLOT_MS, *_mixed_fleet(rng, w.devices)]
    elif name == "drift-week":
        parts = [_scenario(rng, w.duration_s), _SLOT_MS, *_drifters(rng, w.devices)]
    else:  # compare-lossy
        parts = [
            _scenario(rng, w.duration_s, "downlink_loss = 0.1\n"),
            _SLOT_RADIO,
            *_mixed_fleet(rng, w.devices),
        ]
    return "\n".join(parts)


def cli_argv(name: str, config_path: str, trace_path: str) -> list[str]:
    """Arguments for lorasync.cli.main that run workload `name`."""
    cmd, *rest = WORKLOADS[name].argv
    argv = [cmd, config_path, *rest]
    if rest and rest[-1] == "--out":
        argv.append(trace_path)
    return argv
