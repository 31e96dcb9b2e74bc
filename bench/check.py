"""Output checks for one workload run.

A run passes when its command exited 0, its `[summary]` or `[compare]`
block parses, and the invariants below hold.  Digests of the trace CSV
and of the block let the caller compare runs across processes and
against the digests pinned for the default seed.

Trace invariants, at any seed:
- one row per `frames_total`, numbered 0..n-1, in non-decreasing time;
- arrival position = end time mod t_slot, and signed drift = t_tx minus
  position, wrapped into (-t_slot/2, t_slot/2];
- `in_sync` <=> -tb2 < drift < tb1;
- under adaptive: `resync` <=> out of sync, `remaining_ms` set <=> resync,
  and the number of resync rows equals `resyncs_total`.

Compare invariants: adaptive spends 2 bytes per resync, fixed-rate 8; a
fixed-rate variant resyncs every device once per whole round; the ratio
rows restate the resync and byte counts.
"""

from __future__ import annotations

import hashlib
import re

CSV_HEADER = (
    "frame_index,device_id,true_time_ms,arrival_position_ms,signed_drift_ms,"
    "in_sync,action,remaining_ms,strategy"
)
NS_PER_MS = 1_000_000


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ms_to_ns(text: str) -> int:
    """Exact parse of the CLI's decimal millisecond rendering."""
    sign = -1 if text.startswith("-") else 1
    whole, _, frac = text.lstrip("-").partition(".")
    if not whole.isdigit() or (frac and (not frac.isdigit() or len(frac) > 6)):
        raise ValueError(f"not a millisecond value: {text!r}")
    return sign * (int(whole) * NS_PER_MS + int(frac.ljust(6, "0") or 0))


def block(stdout: str, header: str) -> tuple[str, dict[str, str]]:
    """The `[header]` block of key=value lines: its exact text and its pairs."""
    lines = stdout.splitlines()
    start = lines.index(f"[{header}]")
    body = []
    for line in lines[start + 1:]:
        if "=" not in line:
            break
        body.append(line)
    pairs = dict(line.split("=", 1) for line in body)
    return "\n".join([lines[start], *body]) + "\n", pairs


def slot_ms(config_text: str) -> dict[str, int]:
    """Guard widths the generated config asks for."""
    return {k: int(v) for k, v in re.findall(r"^(tb[12]_ms) = (\d+)$", config_text, re.M)}


def check_trace(csv_bytes: bytes, summary: dict[str, str], config_text: str) -> list[str]:
    problems = []
    guards = slot_ms(config_text)
    tb1, tb2 = guards["tb1_ms"] * NS_PER_MS, guards["tb2_ms"] * NS_PER_MS
    t_slot = ms_to_ns(summary["t_slot_ms"])
    t_tx = ms_to_ns(summary["ideal_arrival_ms"])
    adaptive = summary["strategy"] == "adaptive"
    lines = csv_bytes.decode("utf-8").split("\n")
    if lines[0] != CSV_HEADER:
        return [f"trace header {lines[0]!r}"]
    if lines[-1] != "":
        problems.append("trace does not end with a newline")
    rows = lines[1:-1]
    if len(rows) != int(summary["frames_total"]):
        problems.append(f"{len(rows)} trace rows for frames_total={summary['frames_total']}")
    resync_rows = 0
    last_t = 0
    for n, line in enumerate(rows):
        try:
            idx, _dev, t_ms, pos_ms, drift_ms, in_sync, action, remaining, strategy = (
                line.split(",")
            )
            t, pos, drift = ms_to_ns(t_ms), ms_to_ns(pos_ms), ms_to_ns(drift_ms)
        except ValueError as exc:
            problems.append(f"row {n}: unparsable ({exc})")
            break
        want_drift = (t_tx - pos) % t_slot
        if 2 * want_drift > t_slot:
            want_drift -= t_slot
        guard_ok = -tb2 < drift < tb1
        errors = [
            (idx != str(n), "frame_index"),
            (t < last_t, "time goes backwards"),
            (pos != t % t_slot, "arrival position"),
            (drift != want_drift, "signed drift"),
            (in_sync != ("1" if guard_ok else "0"), "in_sync against the guards"),
            (strategy != summary["strategy"], "strategy"),
            (action not in ("none", "resync"), "action"),
            ((remaining != "") != (action == "resync"), "remaining_ms against action"),
            (adaptive and (action == "resync") == guard_ok, "resync against in_sync"),
        ]
        bad = [what for failed, what in errors if failed]
        if bad:
            problems.append(f"row {n}: {', '.join(bad)}")
            break
        last_t = t
        resync_rows += action == "resync"
    if adaptive and resync_rows != int(summary["resyncs_total"]):
        problems.append(f"{resync_rows} resync rows for resyncs_total={summary['resyncs_total']}")
    return problems


def check_compare(pairs: dict[str, str], rounds: list[int], devices: int, duration_s: int):
    problems = []
    base = int(pairs["adaptive.resyncs"])
    base_bytes = int(pairs["adaptive.sync_overhead_bytes"])
    if base_bytes != 2 * base:
        problems.append(f"adaptive: {base_bytes} bytes for {base} resyncs")

    def ratio(value, of):
        return "inf" if of == 0 else f"{value / of:.2f}"

    for r in rounds:
        key = f"fixed_{r}"
        resyncs = int(pairs[f"{key}.resyncs"])
        nbytes = int(pairs[f"{key}.sync_overhead_bytes"])
        if resyncs != (duration_s // r) * devices:
            problems.append(f"{key}: {resyncs} resyncs, want one per device per round")
        if nbytes != 8 * resyncs:
            problems.append(f"{key}: {nbytes} bytes for {resyncs} resyncs")
        if pairs[f"{key}.overhead_ratio"] != ratio(resyncs, base):
            problems.append(f"{key}: overhead_ratio {pairs[f'{key}.overhead_ratio']}")
        if pairs[f"{key}.byte_ratio"] != ratio(nbytes, base_bytes):
            problems.append(f"{key}: byte_ratio {pairs[f'{key}.byte_ratio']}")
    return problems
