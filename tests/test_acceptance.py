"""Acceptance gate.

Each test checks one shipping criterion end to end against frozen
expected values and records a single pass/fail line (printed as a block
after the run, see conftest).  Tolerances are part of the criterion and
are asserted as stated, not loosened.
"""

import hashlib
import random
import time

from lorasync import (
    ADAPTIVE,
    DeviceSpec,
    FIXED_RATE,
    RadioParams,
    Scenario,
    SlotConfig,
    SyncAck,
    UplinkFrame,
    decode_ack,
    decode_uplink,
    encode_ack,
    encode_uplink,
    preset,
    remaining_time_bit_width,
    remaining_to_next_slot,
    run,
    time_on_air,
    uplink_end_in_sync,
)
from lorasync.frame import MAX_FRAME_BYTES
from lorasync.slot import MAX_SLOT_MS
from lorasync.units import ms_to_ns
from published_slot import PUBLISHED_SLOT as BENCH_CFG


def test_a1_worst_case_airtime(criterion):
    """Longest legal uplink: SF12, 125 kHz, CR 4/8, 255 bytes, CRC on."""
    at = time_on_air(RadioParams(sf=12, bw_hz=125_000, cr=4, pl_bytes=255))
    criterion(
        "A1 worst-case uplink air-time is 11936 ms",
        at.t_packet_ns == 11_935_744_000 and at.t_packet_ms == 11936,
        f"got {at.t_packet_ns} ns -> {at.t_packet_ms} ms",
    )


def test_a2_remaining_field_width(criterion):
    """The remaining-time wire field must count any slot that can occur."""
    width = remaining_time_bit_width(11936)
    headroom = MAX_SLOT_MS - 11936
    criterion(
        "A2 worst-case slot needs 14 bits; 16-bit field leaves 53599 ms for the rest",
        width == 14 and headroom == 53_599
        and remaining_time_bit_width(MAX_SLOT_MS) == 16,
        f"width {width}, headroom {headroom} ms",
    )


def test_a3_slot_from_radio_parameters(criterion):
    """Slot length derived from radio parameters lands within 3 ms of the
    slot measured on the air (306 + 91 against computed 307 + 93)."""
    up = time_on_air(RadioParams(sf=7, bw_hz=125_000, cr=1, pl_bytes=193))
    down = time_on_air(RadioParams(sf=8, bw_hz=125_000, cr=1, pl_bytes=19, crc_on=False))
    derived = SlotConfig(
        t_tx_ns=ms_to_ns(up.t_packet_ms),
        rx_delay_ns=ms_to_ns(1000),
        t_rx_ns=ms_to_ns(down.t_packet_ms),
        tb1_ns=ms_to_ns(180),
        tb2_ns=ms_to_ns(180),
    )
    derived_ms = derived.t_slot_ns // ms_to_ns(1)
    measured_ms = BENCH_CFG.t_slot_ns // ms_to_ns(1)
    criterion(
        "A3 radio-derived slot within 3 ms of the measured 1757 ms",
        abs(derived_ms - measured_ms) <= 3 and measured_ms == 1757,
        f"derived {derived_ms} ms vs measured {measured_ms} ms",
    )


def test_a4_bootstrap_in_sync_rate(criterion):
    """A device waking at a random phase lands inside the guards with
    probability (tb1+tb2)/t_slot ~ 20.5%; simulated over 30000 phases."""
    t0 = time.monotonic()
    total = hits = 0
    for seed in range(3):
        devices = tuple(
            DeviceSpec(name=f"d{i}", clock_model=preset("ideal"), tx_period_s=30.0)
            for i in range(10_000)
        )
        sc = Scenario(duration_s=30.4, cfg=BENCH_CFG, devices=devices, seed=seed)
        _, trace = run(sc)
        seen = set()
        for row in trace:
            if row.device_id not in seen:
                seen.add(row.device_id)
                total += 1
                hits += row.in_sync
    elapsed = time.monotonic() - t0
    rate = hits / total
    criterion(
        "A4 bootstrap in-sync rate 20.5% +/- 1.0pp over >= 10000 phases in < 10 s",
        total >= 10_000 and 0.195 <= rate <= 0.215 and elapsed < 10.0,
        f"{hits}/{total} = {rate:.2%} in {elapsed:.1f} s",
    )


def test_a5_single_correction_is_exact(criterion):
    """With ideal clocks one resync must land the very next uplink end on
    the ideal in-slot offset with zero error, not merely inside guards."""
    checked = 0
    worst = 0
    for seed in range(50):
        devices = tuple(
            DeviceSpec(name=f"d{i}", clock_model=preset("ideal"), tx_period_s=30.0)
            for i in range(2)
        )
        sc = Scenario(duration_s=120.0, cfg=BENCH_CFG, devices=devices, seed=seed)
        _, trace = run(sc)
        rows_by_dev = {}
        for row in trace:
            rows_by_dev.setdefault(row.device_id, []).append(row)
        for rows in rows_by_dev.values():
            if rows[0].in_sync or len(rows) < 2:
                continue  # lucky bootstrap or run too short
            checked += 1
            worst = max(worst, abs(rows[1].signed_drift_ns))
    criterion(
        "A5 resynchronized uplink ends with exactly 0 ns drift on ideal clocks",
        checked >= 30 and worst == 0,
        f"{checked} corrections checked, worst residual {worst} ns",
    )


def test_a6_fixed_rate_resync_counts(criterion, bench_scenario):
    """Unconditional resync once per round: 6.5 h bench crosses 6 hourly
    boundaries and exactly 13 half-hourly ones, two devices each."""
    m1, _ = run(bench_scenario(strategy=FIXED_RATE, round_s=3600))
    total_1h = sum(m1.resyncs.values())
    m2, _ = run(bench_scenario(strategy=FIXED_RATE, round_s=1800))
    total_30m = sum(m2.resyncs.values())
    criterion(
        "A6 fixed-rate bench resyncs: exactly 12 (1 h rounds) and 26 (30 min rounds)",
        total_1h == 12 and total_30m == 26,
        f"got {total_1h} and {total_30m}",
    )


def test_a7_adaptive_vs_fixed_overhead(criterion, bench_scenario):
    """Drift-triggered resync on the 6.5 h bench: a handful of corrections
    against the fixed-rate dozens, each run finishing promptly."""
    sc = bench_scenario()
    t0 = time.monotonic()
    m_ad, _ = run(sc)
    t_ad = time.monotonic() - t0

    t0 = time.monotonic()
    m_1h, _ = run(sc._replace(strategy=FIXED_RATE, round_s=3600))
    t_1h = time.monotonic() - t0

    t0 = time.monotonic()
    m_30m, _ = run(sc._replace(strategy=FIXED_RATE, round_s=1800))
    t_30m = time.monotonic() - t0

    adaptive = sum(m_ad.resyncs.values())
    fixed_1h = sum(m_1h.resyncs.values())
    fixed_30m = sum(m_30m.resyncs.values())
    ratio_1h = fixed_1h / adaptive
    ratio_30m = fixed_30m / adaptive

    ok = (
        3 <= adaptive <= 7
        and ratio_1h >= 2.0
        and ratio_30m >= 4.0
        and m_ad.sync_overhead_bytes == 2 * adaptive
        and m_1h.sync_overhead_bytes == 8 * fixed_1h
        and m_30m.sync_overhead_bytes == 8 * fixed_30m
        and max(t_ad, t_1h, t_30m) < 5.0
    )
    criterion(
        "A7 adaptive bench needs 3..7 resyncs; fixed-rate overhead >= 2x (1 h) "
        "and >= 4x (30 min)",
        ok,
        f"adaptive {adaptive} ({m_ad.sync_overhead_bytes} B), "
        f"ratios {ratio_1h:.1f}/{ratio_30m:.1f}, "
        f"slowest run {max(t_ad, t_1h, t_30m):.2f} s",
    )


def test_a8_protocol_invariants(criterion, bench_scenario):
    """Property sweep: codec round-trips, slot arithmetic identities,
    replay determinism, strict guard edges."""
    t0 = time.monotonic()
    rng = random.Random(2024)

    # 10000 random frames survive encode/decode unchanged
    codec_ok = True
    for _ in range(5000):
        f = UplinkFrame(
            dev_addr=rng.randrange(0, 1 << 32),
            fcnt=rng.randrange(0, 1 << 16),
            fport=rng.randrange(0, 256),
            payload=rng.randbytes(rng.randrange(0, MAX_FRAME_BYTES - 9 + 1)),
        )
        codec_ok = codec_ok and decode_uplink(encode_uplink(f)) == f
        a = SyncAck(
            dev_addr=rng.randrange(0, 1 << 32),
            fcnt=rng.randrange(0, 1 << 16),
            remaining_ms=None if rng.random() < 0.3 else rng.randrange(0, 1 << 16),
        )
        codec_ok = codec_ok and decode_ack(encode_ack(a)) == a

    # position + remaining == t_slot at every instant
    ident_ok = True
    for _ in range(10_000):
        t = rng.randrange(0, 10**15)
        pos = uplink_end_in_sync(t, BENCH_CFG)[0]
        ident_ok = ident_ok and pos + remaining_to_next_slot(t, BENCH_CFG) == BENCH_CFG.t_slot_ns

    # bit-identical replay: same scenario, same seed, same trace hash
    def trace_hash(sc):
        _, trace = run(sc)
        h = hashlib.sha256()
        for r in trace:
            h.update(repr(r).encode())
        return h.hexdigest()

    sc = bench_scenario()
    replay_ok = trace_hash(sc) == trace_hash(sc)

    # guards are strict: the exact edge is out, one nanosecond inside is in
    edges_ok = True
    for _ in range(2000):
        tb1 = rng.randrange(1, 180) * ms_to_ns(1)
        tb2 = rng.randrange(1, 180) * ms_to_ns(1)
        cfg = SlotConfig(
            t_tx_ns=ms_to_ns(306),
            rx_delay_ns=ms_to_ns(1000),
            t_rx_ns=ms_to_ns(91),
            tb1_ns=tb1,
            tb2_ns=tb2,
        )
        at_tb1 = uplink_end_in_sync(cfg.t_tx_ns - tb1, cfg)
        in_tb1 = uplink_end_in_sync(cfg.t_tx_ns - tb1 + 1, cfg)
        at_tb2 = uplink_end_in_sync(cfg.t_tx_ns + tb2, cfg)
        in_tb2 = uplink_end_in_sync(cfg.t_tx_ns + tb2 - 1, cfg)
        # each judgement is (position, drift, in_sync)
        edges_ok = edges_ok and at_tb1[1:] == (tb1, False) and at_tb2[1:] == (-tb2, False)
        edges_ok = edges_ok and in_tb1[1:] == (tb1 - 1, True) and in_tb2[1:] == (-(tb2 - 1), True)

    elapsed = time.monotonic() - t0
    criterion(
        "A8 invariant sweep (codec round-trip, slot identities, replay, guard edges) "
        "in < 30 s",
        codec_ok and ident_ok and replay_ok and edges_ok and elapsed < 30.0,
        f"elapsed {elapsed:.1f} s",
    )
