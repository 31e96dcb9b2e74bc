"""Discrete-event simulator: determinism, conservation laws, baselines."""

import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from inspect import CO_GENERATOR
from pathlib import Path

import pytest

from lorasync import (
    ADAPTIVE,
    FIXED_RATE,
    ConfigError,
    DeviceSpec,
    SyncAck,
    Piecewise,
    ParamError,
    RandomWalk,
    Scenario,
    SimClock,
    SlotConfig,
    Trace,
    TraceRow,
    run,
    NetworkServerState,
    encode_ack,
    ns_on_uplink_end,
    preset,
    remaining_to_next_slot,
    uplink_end_in_sync,
)
from lorasync import sim
from lorasync.sim import MAX_FRAMES, MAX_WALK_STEPS
from lorasync.slot import MAX_SLOT_MS
from lorasync.units import NS_PER_MS, ms_to_ns, ns_to_ms_round, s_to_ns

CFG = SlotConfig(
    t_tx_ns=ms_to_ns(306),
    rx_delay_ns=ms_to_ns(1000),
    t_rx_ns=ms_to_ns(91),
    tb1_ns=ms_to_ns(180),
    tb2_ns=ms_to_ns(180),
)


def _ideal_scenario(seed=0, duration_s=600.0, n_devices=2, **kw):
    devices = tuple(
        DeviceSpec(name=f"d{i}", clock_model=preset("ideal"), tx_period_s=30.0, payload_bytes=16)
        for i in range(n_devices)
    )
    return Scenario(duration_s=duration_s, cfg=CFG, devices=devices, seed=seed, **kw)


def test_same_seed_replays_bit_for_bit(bench_scenario):
    sc = bench_scenario()
    m1, t1 = run(sc)
    m2, t2 = run(sc)
    assert list(t1) == list(t2)
    assert m1 == m2


def test_different_seeds_diverge():
    _, t1 = run(_ideal_scenario(seed=1))
    _, t2 = run(_ideal_scenario(seed=2))
    assert [r.true_time_ns for r in t1] != [r.true_time_ns for r in t2]


def test_trace_invariants(bench_scenario):
    sc = bench_scenario()
    m, trace = run(sc)
    assert m.frames_total == len(trace) > 0
    last_t = -1
    for i, row in enumerate(trace):
        assert row.frame_index == i
        assert row.true_time_ns >= last_t
        last_t = row.true_time_ns
        assert row.true_time_ns <= s_to_ns(sc.duration_s)
        assert 0 <= row.arrival_position_ns < CFG.t_slot_ns
        # drift is the wrapped distance from the ideal end
        assert (row.arrival_position_ns + row.signed_drift_ns - CFG.t_tx_ns) % CFG.t_slot_ns == 0
        assert row.in_sync == (-CFG.tb2_ns < row.signed_drift_ns < CFG.tb1_ns)
        assert row.in_sync == uplink_end_in_sync(row.arrival_position_ns, CFG)[2]
        # adaptive: correction attached exactly when out of sync
        assert row.action == ("none" if row.in_sync else "resync")
        assert (row.remaining_ms is not None) == (row.action == "resync")
        assert row.strategy == ADAPTIVE


def test_trace_reads_as_a_sequence_of_rows(bench_scenario, monkeypatch):
    # a trace has a length and reads forward: its rows in frame order,
    # each as TraceRow and, from fields(), as the plain tuple of the same
    # values, a chunk of rows at a time
    monkeypatch.setattr(sim, "_CHUNK_ROWS", 7)
    m, trace = run(bench_scenario(duration_s=3600.0))
    assert isinstance(trace, Trace)
    rows = list(trace)
    assert len(trace) == len(rows) == m.frames_total > 10
    assert all(type(r) is TraceRow for r in rows)
    assert [r.frame_index for r in rows] == list(range(len(rows)))
    chunks = list(trace.fields())
    assert [len(c) for c in chunks[:-1]] == [7] * (len(chunks) - 1) and 0 < len(chunks[-1]) <= 7
    assert [tuple(r) for r in rows] == [row for c in chunks for row in c]
    assert list(run(bench_scenario(duration_s=3600.0))[1]) == rows
    _, empty = run(bench_scenario(duration_s=0.2))
    assert len(empty) == 0 and list(empty) == [] and list(empty.fields()) == []


def test_trace_rows_match_an_independent_judgement(bench_scenario):
    sc = bench_scenario(strategy=FIXED_RATE, round_s=600, downlink_loss=0.3, duration_s=7200.0)
    m, trace = run(sc)
    cfg = sc.cfg
    names = {d.name for d in sc.devices}
    for i, row in enumerate(trace):
        assert row.frame_index == i
        assert row.device_id in names and row.strategy == FIXED_RATE
        judged = (row.arrival_position_ns, row.signed_drift_ns, row.in_sync)
        assert judged == uplink_end_in_sync(row.true_time_ns, cfg)
        assert type(row.in_sync) is bool
        if row.action == "resync":
            want = ns_to_ms_round(remaining_to_next_slot(row.true_time_ns, cfg))
            assert row.remaining_ms == want
        else:
            assert row.action == "none" and row.remaining_ms is None
    # both outcomes and both actions occur, so every branch above ran
    assert {r.in_sync for r in trace} == {True, False}
    assert {r.action for r in trace} == {"none", "resync"}
    assert sum(r.action == "resync" for r in trace) <= sum(
        d.resync_count for d in m.per_device.values()
    )


def _retained_bytes(sc) -> tuple[int, int, int]:
    """Bytes still allocated once run returns, with its result held; the
    peak allocated while it ran; and its frames."""
    tracemalloc.start()
    try:
        m, trace = run(sc)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current, peak, m.frames_total


def test_run_retains_only_the_trace_per_frame(bench_scenario):
    # only the trace grows with the run: its columns hold 13 B a frame
    # (4 + 8 + 1), and nothing else may add a per-frame record
    short = bench_scenario(duration_s=43200.0)
    run(short)  # anything set up once per process is in place before measuring
    small, _, frames = _retained_bytes(short)
    large, _, frames2 = _retained_bytes(bench_scenario(duration_s=86400.0))
    assert frames2 - frames > 2500
    assert (large - small) / (frames2 - frames) <= 15


def test_run_peak_grows_only_by_the_trace():
    # four crystals stepping every 10 s draw 8640 rate segments a day
    # each; their clocks keep two of them, not all, so even the peak of a
    # run grows by no more than the trace's columns: 13 B a frame (4 + 8 + 1)
    def walkers(days):
        devices = tuple(
            DeviceSpec(name=f"w{i}", clock_model=RandomWalk(10.0, 0.02, ppm),
                       tx_period_s=30.0, payload_bytes=193)
            for i, ppm in enumerate((-17.5, -4.25, 6.0, 19.75))
        )
        return Scenario(duration_s=days * 86400.0, cfg=CFG, devices=devices, seed=3)

    run(walkers(0.1))  # anything set up once per process is in place before measuring
    _, small, frames = _retained_bytes(walkers(1))
    _, large, frames2 = _retained_bytes(walkers(2))
    assert frames2 - frames > 10_000
    assert (large - small) / (frames2 - frames) <= 15


def test_run_reads_every_clock_within_its_query_rule(bench_scenario):
    # a clock keeps only its cursor's segment and the one before it, and
    # raises for a query behind them.  sim.run asks the inverse for local
    # times no earlier than the clock's last reading and reads the clock
    # forward from the answers, so it never makes one: not with steps much
    # shorter than a period, not on fast or slow crystals, under either
    # pick, with rounds or with lost ACKs
    walkers = tuple(
        DeviceSpec(name=f"w{i}", clock_model=RandomWalk(0.1, 0.5, ppm),
                   tx_period_s=60.0, payload_bytes=16)
        for i, ppm in enumerate((-400_000.0, -35.0, 0.0, 42.0, 400_000.0))
    )
    short_steps = Scenario(duration_s=1800.0, cfg=CFG, devices=walkers, seed=6)
    for sc in (bench_scenario(), short_steps):
        for variant in (
            {},
            dict(slot_pick="aligned"),
            dict(strategy=FIXED_RATE, round_s=600.0),
            dict(downlink_loss=0.5),
        ):
            m, _ = run(sc._replace(**variant))
            assert m.frames_total > 0


def test_uplinks_all_answered_and_accounted():
    for duration_s in (600.0, 619.0):
        m, trace = run(_ideal_scenario(seed=5, duration_s=duration_s))
        # every uplink gets one RX1 downlink, except those whose receive
        # window opens after the end of the run (at 619 s, one does)
        assert m.gateway.downlink_count == sum(
            1 for r in trace if r.true_time_ns + CFG.rx_delay_ns <= s_to_ns(duration_s)
        )
        resyncs = sum(1 for r in trace if r.action == "resync")
        assert m.gateway.sync_overhead_bytes == 2 * resyncs
        assert sum(d.out_sync_frames for d in m.per_device.values()) == sum(
            1 for r in trace if not r.in_sync
        )


def test_ideal_clocks_stay_locked_after_one_correction():
    # with perfect oscillators a single resync puts a device on the grid
    # forever: every later frame of that device lands at drift exactly 0
    any_corrected = False
    for seed in range(8):
        _, trace = run(_ideal_scenario(seed=seed, duration_s=900.0))
        corrected = set()
        for row in trace:
            if row.device_id in corrected:
                assert row.signed_drift_ns == 0
                assert row.in_sync
            if row.action == "resync":
                corrected.add(row.device_id)
        any_corrected = any_corrected or bool(corrected)
    assert any_corrected  # some device bootstrapped out of sync somewhere


def test_first_out_of_sync_device_is_exact_after_resync():
    _, trace = run(_ideal_scenario(seed=3, duration_s=600.0))
    by_dev = {}
    for row in trace:
        by_dev.setdefault(row.device_id, []).append(row)
    for rows in by_dev.values():
        if rows[0].in_sync:
            continue
        assert rows[0].action == "resync"
        second = rows[1]
        assert second.signed_drift_ns == 0  # exactly, not approximately
        assert second.arrival_position_ns == CFG.t_tx_ns


def test_fixed_rate_resync_counts_are_rounds_times_devices(bench_scenario):
    sc = bench_scenario(strategy=FIXED_RATE, round_s=3600)
    m, trace = run(sc)
    # 23400 s of run time crosses 6 full hourly boundaries
    assert all(d.resync_count == 6 for d in m.per_device.values())
    assert sum(d.resync_count for d in m.per_device.values()) == 12
    assert m.gateway.sync_overhead_bytes == 8 * 12

    sc = bench_scenario(strategy=FIXED_RATE, round_s=1800)
    m, _ = run(sc)
    # 23400 / 1800 = 13 exactly; the boundary on the final instant counts
    assert all(d.resync_count == 13 for d in m.per_device.values())
    assert m.gateway.sync_overhead_bytes == 8 * 26


def test_fixed_rate_lets_drift_grow_between_rounds():
    # a 50 ppm clock drifts ~180 ms in ~3600 s: hourly rounds are too slow
    # to keep it inside the guards, so violations appear under fixed-rate
    # but not under the drift-triggered adaptive strategy
    dev = DeviceSpec(name="hot", clock_model=Piecewise(((0.0, 80.0),)), tx_period_s=30.0)
    base = Scenario(duration_s=23_400.0, cfg=CFG, devices=(dev,), seed=1)
    m_ad, _ = run(base)
    m_fx, _ = run(base._replace(strategy=FIXED_RATE, round_s=3600))
    viol_ad = sum(d.out_sync_frames for d in m_ad.per_device.values())
    viol_fx = sum(d.out_sync_frames for d in m_fx.per_device.values())
    assert viol_fx > viol_ad


def test_collisions_counted_not_destructive():
    # short slots and 2 s periods put two ideal devices in every slot;
    # seeds where the bootstrap phases overlap produce counted collisions
    # while every frame still reaches the server
    cfg = SlotConfig(
        t_tx_ns=ms_to_ns(306),
        rx_delay_ns=ms_to_ns(500),
        t_rx_ns=ms_to_ns(91),
        tb1_ns=ms_to_ns(180),
        tb2_ns=ms_to_ns(180),
    )
    devices = tuple(
        DeviceSpec(name=f"d{i}", clock_model=preset("ideal"), tx_period_s=2.0) for i in range(2)
    )
    seen = None
    for seed in range(30):
        sc = Scenario(duration_s=120.0, cfg=cfg, devices=devices, seed=seed)
        m, trace = run(sc)
        assert m.frames_total == len(trace)
        if m.collision_count > 0:
            seen = (seed, m.collision_count, m.frames_total)
            break
    assert seen is not None
    # and the count replays exactly
    m2, _ = run(Scenario(duration_s=120.0, cfg=cfg, devices=devices, seed=seen[0]))
    assert m2.collision_count == seen[1]


def test_collision_count_matches_brute_force_overlaps():
    # 200 devices on 5 s periods keep dozens of uplinks in flight at once
    devices = tuple(
        DeviceSpec(
            name=f"d{i}",
            clock_model=preset("ideal") if i % 2 else Piecewise(((0.0, (i % 7 - 3) * 20.0),)),
            tx_period_s=5.0,
        )
        for i in range(200)
    )
    m, trace = run(Scenario(duration_s=600.0, cfg=CFG, devices=devices, seed=4))
    starts = sorted(r.true_time_ns - CFG.t_tx_ns for r in trace)
    overlapping_pairs = touching_pairs = 0
    for i, a in enumerate(starts):
        j = i + 1
        while j < len(starts) and starts[j] < a + CFG.t_tx_ns:
            j += 1
        overlapping_pairs += j - i - 1
        while j < len(starts) and starts[j] == a + CFG.t_tx_ns:
            touching_pairs += 1
            j += 1
    assert overlapping_pairs > 10 * m.frames_total
    # one uplink starting the instant another ends is not a collision
    assert touching_pairs > 0
    assert m.collision_count == overlapping_pairs


def test_downlink_loss_devices_eventually_resync(bench_scenario):
    sc = bench_scenario(downlink_loss=0.5, duration_s=7200.0)
    m, trace = run(sc)
    m2, trace2 = run(sc)
    assert list(trace) == list(trace2) and m == m2  # loss draws are seeded too
    # lost corrections mean repeated out-of-sync frames, but the protocol
    # keeps answering and the run completes with frames flowing
    assert m.frames_total > 200
    # total loss: nobody ever gets corrected, the grid never locks
    dead = bench_scenario(downlink_loss=1.0, duration_s=3600.0)
    md, traced = run(dead)
    out0 = [r for r in traced if r.device_id == "feather"]
    if out0 and not out0[0].in_sync:
        assert all(not r.in_sync for r in out0)
    assert md.gateway.downlink_count > 0  # gateway still transmits


def test_aligned_slot_pick_is_periodic():
    sc = _ideal_scenario(seed=4, duration_s=600.0, slot_pick="aligned")
    _, trace = run(sc)
    per_dev = {}
    for r in trace:
        per_dev.setdefault(r.device_id, []).append(r.true_time_ns)
    for times in per_dev.values():
        gaps = {b - a for a, b in zip(times[1:], times[2:])}  # after lock-in
        # aligned pick: always the first grid point one period out
        assert gaps <= {18 * CFG.t_slot_ns}
    # no ACK arrives, so the grid never moves from its origin, the first
    # uplink's start, and every uplink sits a whole number of slots after it
    sc = _ideal_scenario(seed=4, duration_s=600.0, slot_pick="aligned", downlink_loss=1.0)
    _, trace = run(sc)
    per_dev = {}
    for r in trace:
        per_dev.setdefault(r.device_id, []).append(r.true_time_ns)
    for times in per_dev.values():
        assert len(times) > 2
        assert {b - a for a, b in zip(times, times[1:])} == {18 * CFG.t_slot_ns}


def test_short_run_produces_no_frames():
    sc = _ideal_scenario(seed=0, duration_s=0.2)
    m, trace = run(sc)
    assert len(trace) == 0 and list(trace) == []
    assert m.frames_total == 0
    assert m.gateway.downlink_count == 0


def test_scenario_validation():
    dev = DeviceSpec(name="a", clock_model=preset("ideal"), tx_period_s=30.0)
    ok = Scenario(duration_s=10.0, cfg=CFG, devices=(dev,))  # no raise
    cases = [
        dict(duration_s=0.0),
        dict(duration_s=1e-10),  # rounds to 0 ns
        dict(devices=()),
        dict(devices=(dev, dev)),
        dict(strategy="sometimes"),
        dict(strategy=FIXED_RATE),  # missing round_s
        # round lengths the int64 nanosecond grid cannot hold
        *(dict(strategy=FIXED_RATE, round_s=r) for r in (float("nan"), float("inf"), 5e-10, 1e10)),
        dict(round_s=600),  # rounds under the adaptive strategy
        dict(downlink_loss=1.5),
        dict(duty_cycle_limit=0.0),
        dict(slot_pick="bursty"),
        dict(duration_s=5e9),  # past the int64 nanosecond range
        dict(devices=(DeviceSpec(name="a", clock_model=preset("ideal"), tx_period_s=2.4e9),)),
        *(dict(devices=(DeviceSpec(name="a", clock_model=preset("ideal"), tx_period_s=p),))
          for p in (0.0, 1e-10)),  # 1e-10 s rounds to a 0 ns period
        dict(devices=(DeviceSpec(name="a", clock_model=preset("ideal"), tx_period_s=30.0,
                                 payload_bytes=247),)),
        # a name with '=' would split the summary's key=value lines
        dict(devices=(dev, DeviceSpec(name="fea=ther", clock_model=preset("ideal"),
                                      tx_period_s=30.0))),
    ]
    fields = {f: getattr(ok, f) for f in ok._fields}
    for overrides in cases:
        # the constructor checks, and so does a copy with the field changed
        with pytest.raises(ConfigError):
            Scenario(**{**fields, **overrides})
        with pytest.raises(ConfigError):
            ok._replace(**overrides)
    # a repeated name is blamed on the repeat, by its index and name
    other = DeviceSpec(name="b", clock_model=preset("ideal"), tx_period_s=30.0)
    with pytest.raises(ConfigError) as e:
        ok._replace(devices=(dev, other, dev))
    assert e.value.device == 2
    assert str(e.value) == "device a: device names must be unique"
    # the first failing check wins: the run length, then the devices,
    # then the scenario's own fields, then each device's own
    first_wins = [
        (dict(duration_s=0.0, devices=()), "duration_s must be positive, at least 1 ns"),
        (dict(devices=(dev, dev), strategy="sometimes"), "device a: device names must be unique"),
        (dict(strategy="sometimes", downlink_loss=2.0), "unknown strategy 'sometimes'"),
        (dict(downlink_loss=2.0, slot_pick="bursty"), "downlink_loss must be in [0, 1]"),
        (dict(slot_pick="bursty", devices=(dev._replace(tx_period_s=0.0),)),
         "unknown slot_pick 'bursty'"),
    ]
    for overrides, text in first_wins:
        with pytest.raises(ConfigError) as e:
            ok._replace(**overrides)
        assert str(e.value) == text
    # the inverse draws no walk step past the segment holding its answer,
    # so a step longer than the rest of the int64 range needs no margin
    long_steps = DeviceSpec(name="a", clock_model=RandomWalk(2e9, 1.0, 10.0), tx_period_s=1e9)
    m, _ = run(ok._replace(duration_s=2.5e9, devices=(long_steps,)))
    assert m.frames_total == 2


def test_walk_step_count_is_bounded_over_the_clock_horizon():
    # each clock is read up to duration_s + 2 * tx_period_s = 100 s
    def scenario(step_interval_s):
        walk = RandomWalk(step_interval_s, 1.0, 10.0, seed=1)
        devices = (DeviceSpec(name="i", clock_model=preset("ideal"), tx_period_s=20.0),
                   DeviceSpec(name="w", clock_model=walk, tx_period_s=20.0))
        return Scenario(duration_s=60.0, cfg=CFG, devices=devices)

    scenario(100.0 / MAX_WALK_STEPS)  # the bound itself: no raise
    # the walk steps in whole nanoseconds, so 9999.6 ns steps are 10 us steps
    scenario(9999.6e-9)
    with pytest.raises(ConfigError) as e:
        scenario(99.9 / MAX_WALK_STEPS)
    assert e.value.device == 1
    assert str(e.value) == (f"device w: a random walk may draw at most {MAX_WALK_STEPS} "
                            "steps over duration_s + 2 * tx_period_s")


def test_walk_step_count_is_bounded_summed_over_all_walks():
    # each clock is read up to duration_s + 2 * tx_period_s = 100 s
    def scenario(*step_intervals_s):
        walks = tuple(
            DeviceSpec(name=f"w{j}", clock_model=RandomWalk(s, 1.0, 10.0, seed=j),
                       tx_period_s=20.0)
            for j, s in enumerate(step_intervals_s)
        )
        ideal = DeviceSpec(name="i", clock_model=preset("ideal"), tx_period_s=20.0)
        return Scenario(duration_s=60.0, cfg=CFG, devices=(ideal, *walks))

    half = 200.0 / MAX_WALK_STEPS  # 20 us steps: half the bound each
    scenario(half, half)  # the bound itself: no raise
    # two walks, each under the bound, whose sum is over it
    with pytest.raises(ConfigError) as e:
        scenario(half, 199.9 / MAX_WALK_STEPS)
    assert e.value.device is None
    assert str(e.value) == ("the random walks' steps over duration_s + 2 * tx_period_s, summed "
                            f"over the devices, must be at most {MAX_WALK_STEPS}")
    # each walk's own check comes first and names its device
    with pytest.raises(ConfigError) as e:
        scenario(half, 99.9 / MAX_WALK_STEPS)
    assert e.value.device == 2


def test_frame_count_is_bounded_over_all_devices():
    # devices every 10 s and 30 s send 4 frames per 30 s between them
    def scenario(duration_s, periods=(10.0, 30.0)):
        devices = tuple(DeviceSpec(name=f"d{i}", clock_model=preset("ideal"), tx_period_s=p)
                        for i, p in enumerate(periods))
        return Scenario(duration_s=duration_s, cfg=CFG, devices=devices)

    scenario(7.5 * MAX_FRAMES)  # the bound itself: no raise
    with pytest.raises(ConfigError) as e:
        scenario(7.5 * MAX_FRAMES + 7.5)  # one frame over it
    assert e.value.device is None
    assert str(e.value) == ("duration_s / tx_period_s summed over the devices must be at most "
                            f"{MAX_FRAMES}, the frames a run may send")
    # each device's own checks come first: a 0 s period is reported as such
    with pytest.raises(ConfigError, match="tx_period_s must be positive") as e:
        scenario(4.6e9, periods=(30.0, 0.0))
    assert e.value.device == 1


def test_one_nanosecond_rounds_finish():
    # a round costs the server O(1) per frame, whatever the number of
    # boundaries; a subprocess makes a regression fail instead of hang
    code = (
        "import sys, time\n"
        "from lorasync import FIXED_RATE, run\n"
        "from lorasync.config import load_scenario\n"
        "from lorasync.units import s_to_ns\n"
        "sc = load_scenario(sys.argv[1])._replace(\n"
        "    duration_s=600.0, strategy=FIXED_RATE, round_s=1e-9)\n"
        "t0 = time.perf_counter()\n"
        "m, trace = run(sc)\n"
        "elapsed = time.perf_counter() - t0\n"
        "first = {}\n"
        "for r in trace:\n"
        "    first.setdefault(r.device_id, r.true_time_ns)\n"
        "    assert (r.remaining_ms is None) == (first[r.device_id] == r.true_time_ns)\n"
        "for name, dm in m.per_device.items():\n"
        "    assert dm.resync_count == s_to_ns(sc.duration_s) - first[name], name\n"
        "print(elapsed)\n"
    )
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    ini = root / "configs" / "testbench.ini"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ini)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1.0


def test_uplink_end_is_not_read_when_the_ack_ends_past_the_run():
    # the walk leaves the ppm range at its first step, 0.1 s in, so reading
    # the clock at the end of an uplink sent at 0 fails
    walk = RandomWalk(step_interval_s=0.1, step_std_ppm=1e7, initial_ppm=0.0, seed=1)
    with pytest.raises(ParamError):
        SimClock(walk).local_time(CFG.t_tx_ns)
    # a 1 ms period puts the one uplink at local 0; it ends inside the run
    # and its RX1 opens after it, so nothing ever reads the clock there
    dev = DeviceSpec(name="a", clock_model=walk, tx_period_s=0.001)
    m, trace = run(Scenario(duration_s=0.5, cfg=CFG, devices=(dev,)))
    assert [r.true_time_ns for r in trace] == [CFG.t_tx_ns]
    assert m.gateway.downlink_count == 0


def test_lorasync_calls_per_frame_are_pinned(bench_scenario):
    # the Python calls the package makes on the frame path, counted with
    # sys.setprofile over one run of the bench with 10% ACK loss; each
    # added call a frame adds about 1558 here.  Comprehensions are skipped,
    # as 3.12 inlines them, and so are generator resumptions (a walk's
    # draws), which count the walk's steps, not calls on the frame path
    pkg = os.path.dirname(sim.__file__) + os.sep
    calls = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(pkg)
                and not code.co_name.startswith("<") and not code.co_flags & CO_GENERATOR):
            calls[f"{Path(code.co_filename).stem}.{code.co_name}"] += 1

    sc = bench_scenario(downlink_loss=0.1)
    sys.setprofile(profile)
    try:
        m, _ = run(sc)
    finally:
        sys.setprofile(None)
    breakdown = ", ".join(f"{name} {n}" for name, n in calls.most_common())
    # 8.14 calls a frame
    assert (sum(calls.values()), m.frames_total) == (12689, 1558), breakdown


def test_bench_gateway_stays_inside_duty_limit(bench_scenario):
    sc = bench_scenario()
    m, _ = run(sc)
    airtime_ns = m.gateway.downlink_count * sc.cfg.t_rx_ns
    assert airtime_ns / s_to_ns(sc.duration_s) < sc.duty_cycle_limit


def test_remaining_time_fits_the_wire_field_at_the_largest_slot():
    # the simulator hands remaining_ms to the device without encoding it,
    # so every value it attaches must be one encode_ack accepts
    cfg = SlotConfig(
        t_tx_ns=ms_to_ns(306),
        rx_delay_ns=ms_to_ns(MAX_SLOT_MS - 306 - 91 - 180 - 180),
        t_rx_ns=ms_to_ns(91),
        tb1_ns=ms_to_ns(180),
        tb2_ns=ms_to_ns(180),
    )
    assert cfg.t_slot_ns == ms_to_ns(MAX_SLOT_MS)
    devices = tuple(
        DeviceSpec(name=f"d{i}", clock_model=Piecewise(((0.0, ppm),)), tx_period_s=600.0)
        for i, ppm in enumerate((-150.0, -40.0, 0.0, 25.0, 90.0, 200.0) * 3)
    )
    sc = Scenario(duration_s=6 * 3600.0, cfg=cfg, devices=devices, seed=4)
    _, trace = run(sc)
    attached = [r.remaining_ms for r in trace if r.remaining_ms is not None]
    # the drifting devices fall out of sync after their correction too
    assert len(attached) > len(devices)
    for remaining_ms in attached:
        assert 0 <= remaining_ms <= MAX_SLOT_MS
        encode_ack(SyncAck(dev_addr=1, fcnt=0, remaining_ms=remaining_ms))
    # the largest value: an uplink ending on, or just after, a boundary
    server = NetworkServerState(cfg, n_devices=2, round_ns=None)  # adaptive
    for arrival in (cfg.t_slot_ns, cfg.t_slot_ns + NS_PER_MS // 2 - 1):
        plan = ns_on_uplink_end(server, 1, arrival)
        assert plan.remaining_ms == MAX_SLOT_MS
        encode_ack(SyncAck(dev_addr=1, fcnt=0, remaining_ms=plan.remaining_ms))
