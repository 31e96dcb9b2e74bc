"""Command-line front end.

    lorasync airtime  --sf 12 --bw 125 --cr 4 --pl 255      air-time table
    lorasync airtime  --max                                  worst-case uplink
    lorasync simulate CONFIG [--out trace.csv] [--seed N]    run one scenario
    lorasync compare  CONFIG [--rounds 3600,1800] [--seed N] adaptive vs fixed

Exit codes: 0 ok, 1 bad parameters or config, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

from .airtime import (
    WORST_CASE,
    RadioParams,
    remaining_time_bit_width,
    symbol_duration_ns,
    time_on_air,
)
from .config import load_scenario
from .errors import ConfigError, LorasyncError, ParamError
from .protocol import ADAPTIVE, FIXED_RATE
from .sim import Metrics, Scenario, Trace, TraceRow, run
from .units import fmt_ms, s_to_ns

# TraceRow's fields, times in milliseconds
CSV_HEADER = [f"{f[:-3]}_ms" if f.endswith("_ns") else f for f in TraceRow._fields]

# RadioParams fields the airtime command sets only from a flag given
_RADIO_OPTIONS = ("n_preamble", "crc_on", "implicit_header", "low_datarate_opt")


def _csv_field(value: str) -> str:
    """One string field as csv.writer renders it inside a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, 0])
    return buf.getvalue()[: -len(",0\n")]


def write_trace_csv(path, rows: Trace):
    """The trace as CSV, byte for byte what csv.writer makes of its rows.

    Only device_id is free text, so only the device names go through
    csv.writer, once per trace; every other field, the strategy's name
    among them, is a number or a fixed word that csv.writer never quotes.
    The trace derives its rows a chunk at a time, and each chunk is
    formatted and written as one piece.
    """
    quoted = {name: _csv_field(name) for name in rows.device_names}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(CSV_HEADER)
        for chunk in rows.fields():
            fh.write("".join([
                f"{i},{quoted[name]},{fmt_ms(t)},{fmt_ms(pos)},{fmt_ms(drift)},"
                f"{'1' if in_sync else '0'},{action},{'' if rem is None else rem},{strategy}\n"
                for i, name, t, pos, drift, in_sync, action, rem, strategy in chunk
            ]))


def _cmd_airtime(args) -> int:
    if args.max:
        p = WORST_CASE
        print(f"worst-case uplink: sf {p.sf}, bw {p.bw_hz // 1000} kHz, cr {p.cr}, "
              f"payload {p.pl_bytes} B, preamble {p.n_preamble}, "
              f"crc {'on' if p.crc_on else 'off'}")
    else:
        if args.sf is None or args.bw is None or args.cr is None or args.pl is None:
            raise ParamError("need --sf, --bw, --cr and --pl (or --max)")
        options = {f: getattr(args, f) for f in _RADIO_OPTIONS if hasattr(args, f)}
        p = RadioParams(sf=args.sf, bw_hz=args.bw * 1000, cr=args.cr, pl_bytes=args.pl, **options)
    at = time_on_air(p)
    total_ms = at.t_packet_ms
    print(f"symbol    {fmt_ms(symbol_duration_ns(p))} ms")
    print(f"preamble  {fmt_ms(at.t_preamble_ns)} ms  ({p.n_preamble} + 4.25 symbols)")
    print(f"payload   {fmt_ms(at.t_payload_ns)} ms  ({at.n_payload_symbols} symbols)")
    print(f"total     {fmt_ms(at.t_packet_ns)} ms  (rounds to {total_ms} ms, "
          f"{remaining_time_bit_width(total_ms)} bits to count it)")
    return 0


def _fmt_s(seconds: float) -> str:
    """Seconds as the shortest text that reads back as the same float, less a trailing ".0"."""
    return repr(float(seconds)).removesuffix(".0")


def _facts(sc: Scenario, m: Metrics) -> list[tuple[str, str, bool]]:
    """Every reported fact of one run, each computed and formatted once:
    (key, text, whether the [summary] block prints it), in block order."""
    cfg = sc.cfg
    # every downlink costs t_rx
    airtime_ns = m.downlink_count * cfg.t_rx_ns
    facts = [
        ("strategy", sc.strategy, True),
        ("duration_s", _fmt_s(sc.duration_s), True),
        ("seed", str(sc.seed), True),
        ("t_slot_ms", fmt_ms(cfg.t_slot_ns), True),
        ("ideal_arrival_ms", fmt_ms(cfg.t_tx_ns), True),
        ("rx_delay_ms", fmt_ms(cfg.rx_delay_ns), False),
        ("t_rx_ms", fmt_ms(cfg.t_rx_ns), False),
        ("tb1_ms", fmt_ms(cfg.tb1_ns), False),
        ("tb2_ms", fmt_ms(cfg.tb2_ns), False),
        ("in_sync_lower_ms", fmt_ms(cfg.t_tx_ns - cfg.tb1_ns), True),
        ("in_sync_upper_ms", fmt_ms(cfg.t_tx_ns + cfg.tb2_ns), True),
        ("frames_total", str(m.frames_total), True),
        ("collision_count", str(m.collision_count), True),
        ("downlink_count", str(m.downlink_count), True),
        ("downlink_airtime_ms", fmt_ms(airtime_ns), True),
        ("duty_cycle_fraction", f"{airtime_ns / s_to_ns(sc.duration_s):.6f}", True),
        ("duty_cycle_limit", f"{sc.duty_cycle_limit:.6f}", True),
        ("sync_overhead_bytes", str(m.sync_overhead_bytes), True),
        ("resyncs_total", str(sum(m.resyncs.values())), True),
        ("out_sync_frames_total", str(sum(m.out_sync_frames.values())), False),
    ]
    if sc.strategy == FIXED_RATE:
        facts.insert(1, ("round_s", _fmt_s(sc.round_s), True))
    for name in sorted(m.resyncs):
        out_sync = str(m.out_sync_frames[name])
        facts += [
            (f"device.{name}.resyncs", str(m.resyncs[name]), True),
            (f"device.{name}.out_sync_frames", out_sync, True),
            # out-of-sync frames are the slot violations; the key stays as pinned
            (f"device.{name}.violations", out_sync, True),
        ]
    return facts


def _print_summary(sc: Scenario, m: Metrics):
    """The human lines, fixed templates over the fact table, then the
    [summary] block of its block facts."""
    facts = _facts(sc, m)
    t = {key: text for key, text, _ in facts}
    rounds = f" ({t['round_s']} s rounds)" if "round_s" in t else ""
    print("run summary")
    print(f"  strategy         {t['strategy']}{rounds}")
    print(f"  duration         {t['duration_s']} s, {t['frames_total']} frames, "
          f"{t['collision_count']} collisions")
    print(f"  slot             {t['t_slot_ms']} ms = tx {t['ideal_arrival_ms']}"
          f" + delay {t['rx_delay_ms']} + rx {t['t_rx_ms']}"
          f" + guards {t['tb1_ms']}/{t['tb2_ms']}")
    print(f"  in-sync window   uplink end in ({t['in_sync_lower_ms']}, "
          f"{t['in_sync_upper_ms']}) ms, ideal {t['ideal_arrival_ms']} ms")
    for name in sorted(m.resyncs):
        print(f"  device {name:<10} resyncs {t[f'device.{name}.resyncs']}, "
              f"out-of-sync {t[f'device.{name}.out_sync_frames']}")
    print(f"  gateway          {t['downlink_count']} acks, {t['sync_overhead_bytes']} sync bytes, "
          f"{t['downlink_airtime_ms']} ms downlink air-time")
    print(f"  duty cycle       {t['duty_cycle_fraction']} of {t['duty_cycle_limit']} allowed")
    print()
    print("[summary]", *(f"{key}={text}" for key, text, in_block in facts if in_block), sep="\n")


def _scenario(args) -> Scenario:
    sc = load_scenario(args.config)
    return sc if args.seed is None else sc._replace(seed=args.seed)


def _cmd_simulate(args) -> int:
    sc = _scenario(args)
    metrics, trace = run(sc)
    if args.out:
        write_trace_csv(args.out, trace)
        print(f"wrote {len(trace)} trace rows to {args.out}", file=sys.stderr)
    _print_summary(sc, metrics)
    return 0


def _cmd_compare(args) -> int:
    sc = _scenario(args)
    try:
        rounds = [int(r) for r in args.rounds.split(",") if r.strip()]
    except ValueError as exc:
        raise ParamError(f"bad --rounds value: {exc}") from exc
    if not rounds or any(r <= 0 for r in rounds):
        raise ParamError("--rounds needs positive integers")
    if len(set(rounds)) != len(rounds):
        raise ParamError("--rounds values must be distinct")

    labels = ["adaptive", *(f"fixed {r} s" for r in rounds)]
    variants = [sc._replace(strategy=ADAPTIVE, round_s=None),
                *(sc._replace(strategy=FIXED_RATE, round_s=r) for r in rounds)]
    # keep only each variant's facts: its trace is dropped as soon as it returns
    tables = [{key: text for key, text, _ in _facts(v, run(v)[0])} for v in variants]

    def texts(key):
        return [t[key] for t in tables]

    def ratios(key):
        """Each fixed-rate value over the adaptive one, which reads "-"; 0 over 0 reads "nan"."""
        base, *rest = (int(t[key]) for t in tables)
        return ["-"] + [f"{v / base:.2f}" if base else "inf" if v else "nan" for v in rest]

    # (table row, its key in the [compare] block or None, a value per variant)
    rows = [
        ("resyncs", "resyncs", texts("resyncs_total")),
        ("out-of-sync frames", None, texts("out_sync_frames_total")),
        ("sync overhead bytes", "sync_overhead_bytes", texts("sync_overhead_bytes")),
        ("downlink airtime ms", None, texts("downlink_airtime_ms")),
        ("duty-cycle fraction", "duty_cycle_fraction", texts("duty_cycle_fraction")),
        ("overhead ratio", "overhead_ratio", ratios("resyncs_total")),
        ("byte ratio", "byte_ratio", ratios("sync_overhead_bytes")),
    ]

    name_w = max(len(name) for name, _, _ in rows)
    col_w = max(12, max(len(v) for _, _, vals in rows for v in vals), max(len(l) for l in labels))
    print(" " * name_w + "  " + "  ".join(f"{l:>{col_w}}" for l in labels))
    for name, _, vals in rows:
        print(f"{name:<{name_w}}  " + "  ".join(f"{v:>{col_w}}" for v in vals))

    print()
    print("[compare]")
    for j, label in enumerate(labels):
        prefix = label.replace(" s", "").replace(" ", "_")
        for _, key, vals in rows:
            if key and vals[j] != "-":
                print(f"{prefix}.{key}={vals[j]}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error counted as a bad parameter: exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lorasync",
        description="Slot synchronization for class-A LoRaWAN: air-time math and "
                    "a deterministic protocol simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_air = sub.add_parser("airtime", help="LoRa time-on-air for one parameter set")
    p_air.add_argument("--sf", type=int, help="spreading factor 5..12")
    p_air.add_argument("--bw", type=int, choices=(125, 250, 500), help="bandwidth, kHz")
    p_air.add_argument("--cr", type=int, help="coding rate 1..4 (4/5..4/8)")
    p_air.add_argument("--pl", type=int, help="payload bytes 0..255")
    # a flag left out sets no attribute, and RadioParams' default holds
    p_air.add_argument("--preamble", type=int, dest="n_preamble", metavar="PREAMBLE",
                       default=argparse.SUPPRESS, help="preamble symbols")
    p_air.add_argument("--no-crc", action="store_false", dest="crc_on",
                       default=argparse.SUPPRESS, help="disable payload CRC")
    p_air.add_argument("--implicit-header", action="store_true", default=argparse.SUPPRESS)
    p_air.add_argument("--low-datarate-opt", action="store_true", default=argparse.SUPPRESS)
    p_air.add_argument("--max", action="store_true",
                       help="show the worst-case uplink instead")
    p_air.set_defaults(func=_cmd_airtime)

    p_sim = sub.add_parser("simulate", help="run one scenario config")
    p_sim.add_argument("config", help="scenario config file")
    p_sim.add_argument("--out", help="write the frame trace as CSV")
    p_sim.add_argument("--seed", type=int, help="override the scenario seed")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare",
                           help="adaptive vs fixed-rate resync on one scenario")
    p_cmp.add_argument("config", help="scenario config file")
    p_cmp.add_argument("--rounds", default="3600,1800",
                       help="fixed-rate round lengths, seconds, comma separated")
    p_cmp.add_argument("--seed", type=int, help="override the scenario seed")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader fails here, not at exit
        return code
    except (LorasyncError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader left; the interpreter flushes stdout again at exit,
            # so stdout now points where that flush cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (ConfigError, ParamError)) else 2


if __name__ == "__main__":
    sys.exit(main())
