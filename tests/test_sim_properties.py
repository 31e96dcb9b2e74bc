"""Hypothesis properties of the simulator: fixed-rate rounds, the adaptive
resync count, and the adaptive resync interval of a constant-ppm clock.

A round boundary at the same instant as an uplink end comes first: it
flags every device the server has heard of, and the uplink it ties with
carries the correction.  Drawn scenarios use the slot geometry of
`test_golden._ties_config`, so uplinks end on whole seconds, and 1 s
rounds make them land exactly on boundaries.

Each run is checked twice: by counting boundaries between uplink ends,
and by replaying the rounds as events over the trace, one boundary at a
time.

Under the adaptive strategy a resync is an out-of-sync frame: each
device's two counts and its trace rows tell the same number.

Under the adaptive strategy a device whose clock runs at a constant
ppm drifts away from its corrected grid at |ppm| and is resynchronized
once the drift leaves the guard on its side, so its resyncs come about
one guard / |ppm| apart.

One correction leaves such a device off the server's grid by the ACK
field's rounding, at most half a millisecond, plus the drift of its rate
from the uplink the correction answered to the next uplink's start.
"""

import math

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from lorasync import FIXED_RATE, DeviceSpec, Piecewise, Scenario, SlotConfig, preset, run
from lorasync.units import NS_PER_MS, NS_PER_S, ms_to_ns

# every field a whole number of half seconds and a 4 s grid: a resynced
# ideal device ends its uplinks on whole seconds
CFG = SlotConfig(
    t_tx_ns=ms_to_ns(1000),
    rx_delay_ns=ms_to_ns(1000),
    t_rx_ns=ms_to_ns(1000),
    tb1_ns=ms_to_ns(500),
    tb2_ns=ms_to_ns(500),
)

_CLOCKS = st.one_of(
    st.just(preset("ideal")),
    st.sampled_from([-300.0, -40.0, 25.0, 200.0]).map(lambda ppm: Piecewise(((0.0, ppm),))),
)
# a 1 ms period means a bootstrap phase of 0: the first uplink ends at
# t_tx, exactly on the first boundary of 1 s rounds
_PERIODS = st.sampled_from([0.001, 4.0, 5.0, 8.0, 30.0])

_TIED = dict(
    devices=[(preset("ideal"), 0.001), (Piecewise(((0.0, -40.0),)), 0.001), (preset("ideal"), 4.0)],
    round_s=1,
    duration_s=60,
    loss=0.3,
    slot_pick="aligned",
    seed=7,
)


def _boundaries(lo_ns: int, hi_ns: int, round_ns: int) -> int:
    """Round boundaries k * round_ns, k >= 1, in (lo_ns, hi_ns]; lo_ns >= 0."""
    return hi_ns // round_ns - lo_ns // round_ns


def _replay_rounds(trace, round_ns: int, horizon_ns: int):
    """The rounds as events over the trace's rows, in time order.

    Before the row at t, each boundary k * round_ns <= t not yet applied
    flags and charges every device seen so far; a row clears its
    device's flag.  Returns whether each row's device was flagged, and
    the charges per device once the boundaries up to the horizon apply.
    """
    flagged: dict[str, bool] = {}  # every device seen so far
    charged: dict[str, int] = {}
    next_boundary = round_ns

    def apply_boundaries(t_ns):
        nonlocal next_boundary
        while next_boundary <= t_ns:
            for name in flagged:
                flagged[name] = True
                charged[name] += 1
            next_boundary += round_ns

    verdicts = []
    for row in trace:
        apply_boundaries(row.true_time_ns)
        verdicts.append(flagged.get(row.device_id, False))
        flagged[row.device_id] = False
        charged.setdefault(row.device_id, 0)
    apply_boundaries(horizon_ns)
    return verdicts, charged


@settings(max_examples=60, deadline=None)
@given(
    devices=st.lists(st.tuples(_CLOCKS, _PERIODS), min_size=1, max_size=6),
    round_s=st.sampled_from([1, 1, 2, 3, 5]),
    duration_s=st.integers(min_value=10, max_value=120),
    loss=st.sampled_from([0.0, 0.3]),
    slot_pick=st.sampled_from(["aligned", "random"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(**_TIED)
def test_a_boundary_flags_the_next_uplink_of_every_device_heard(
    devices, round_s, duration_s, loss, slot_pick, seed
):
    specs = tuple(
        DeviceSpec(name=f"d{i}", clock_model=clock, tx_period_s=period)
        for i, (clock, period) in enumerate(devices)
    )
    sc = Scenario(
        duration_s=float(duration_s),
        cfg=CFG,
        devices=specs,
        strategy=FIXED_RATE,
        round_s=round_s,
        seed=seed,
        downlink_loss=loss,
        slot_pick=slot_pick,
    )
    m, trace = run(sc)
    round_ns = round_s * NS_PER_S
    horizon_ns = duration_s * NS_PER_S

    first: dict[str, int] = {}
    previous: dict[str, int] = {}
    # fixed-rate keeps its resyncs apart from its out-of-sync frames
    out_sync = dict.fromkeys((spec.name for spec in specs), 0)
    for row in trace:
        out_sync[row.device_id] += not row.in_sync
        last = previous.get(row.device_id)
        # a boundary at this uplink's end comes first and flags it; one at
        # the previous end came before that uplink and was answered there
        flagged = last is not None and _boundaries(last, row.true_time_ns, round_ns) > 0
        assert (row.remaining_ms is not None) == flagged, row
        first.setdefault(row.device_id, row.true_time_ns)
        previous[row.device_id] = row.true_time_ns
    assert m.out_sync_frames == out_sync

    for spec in specs:
        heard = spec.name in first
        want = _boundaries(first[spec.name], horizon_ns, round_ns) if heard else 0
        assert m.resyncs[spec.name] == want, spec.name

    verdicts, charged = _replay_rounds(trace, round_ns, horizon_ns)
    for row, was_flagged in zip(trace, verdicts, strict=True):
        assert (row.remaining_ms is not None) == was_flagged, row
    for spec in specs:
        assert m.resyncs[spec.name] == charged.get(spec.name, 0), spec.name


@settings(max_examples=60, deadline=None)
@given(
    devices=st.lists(st.tuples(_CLOCKS, _PERIODS), min_size=1, max_size=6),
    duration_s=st.integers(min_value=10, max_value=120),
    loss=st.sampled_from([0.0, 0.3]),
    slot_pick=st.sampled_from(["aligned", "random"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_an_adaptive_resync_is_an_out_of_sync_frame(devices, duration_s, loss, slot_pick, seed):
    specs = tuple(
        DeviceSpec(name=f"d{i}", clock_model=clock, tx_period_s=period)
        for i, (clock, period) in enumerate(devices)
    )
    sc = Scenario(duration_s=float(duration_s), cfg=CFG, devices=specs, seed=seed,
                  downlink_loss=loss, slot_pick=slot_pick)
    m, trace = run(sc)
    out_sync = dict.fromkeys((spec.name for spec in specs), 0)
    resynced = dict(out_sync)
    for row in trace:
        out_sync[row.device_id] += not row.in_sync
        resynced[row.device_id] += row.action == "resync"
    for spec in specs:
        assert (m.resyncs[spec.name] == m.out_sync_frames[spec.name] == out_sync[spec.name]
                == resynced[spec.name]), spec.name


# the testbench slot with its 360 ms of guards split unevenly, so that a
# drift charged against the other side's guard shows
UNEVEN = SlotConfig(
    t_tx_ns=ms_to_ns(306),
    rx_delay_ns=ms_to_ns(1000),
    t_rx_ns=ms_to_ns(91),
    tb1_ns=ms_to_ns(120),
    tb2_ns=ms_to_ns(240),
)


def _resync_interval_bounds(ppm: float, tx_period_s: int) -> tuple[float, float]:
    """The least and the most reference ns between two resyncs of a device at ppm.

    A fast clock (ppm > 0) ends its uplinks early and leaves through tb1,
    a slow one through tb2.  The ACK's remaining time is rounded to whole
    milliseconds, half up, so a correction leaves up to half a
    millisecond of drift; and the first uplink past the guard follows
    the last one inside it within two periods and a slot.
    """
    guard = UNEVEN.tb1_ns if ppm > 0 else UNEVEN.tb2_ns
    half_ms = NS_PER_MS / 2
    lo = (guard - half_ms) * 1e6 / abs(ppm)
    hi = (guard + half_ms) * 1e6 / abs(ppm) + 2 * tx_period_s * NS_PER_S + UNEVEN.t_slot_ns
    return lo, hi


# a failing case is reported as drawn: shrinking one ran for minutes,
# each step a run of up to tens of thousands of frames
@settings(max_examples=25, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    devices=st.lists(
        st.tuples(st.floats(5.0, 200.0), st.booleans(), st.integers(10, 300)),
        min_size=3, max_size=3,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_adaptive_resyncs_a_constant_ppm_clock_once_per_guard_drift(devices, seed):
    ppms = {f"d{i}": ppm if fast else -ppm for i, (ppm, fast, _) in enumerate(devices)}
    specs = tuple(
        DeviceSpec(name=name, clock_model=Piecewise(((0.0, ppm),)), tx_period_s=float(period))
        for (name, ppm), (_, _, period) in zip(ppms.items(), devices)
    )
    bounds = {
        spec.name: _resync_interval_bounds(ppms[spec.name], int(spec.tx_period_s))
        for spec in specs
    }
    # a device first leaves the in-sync window once its drift has crossed
    # at most both guards; three intervals after that fit in the run
    duration_s = max(
        (UNEVEN.tb1_ns + UNEVEN.tb2_ns) * 1e6 / abs(ppms[spec.name])
        + 4 * bounds[spec.name][1]
        for spec in specs
    ) / NS_PER_S
    _, trace = run(Scenario(duration_s=duration_s, cfg=UNEVEN, devices=specs, seed=seed))

    last: dict[str, int] = {}
    intervals = {spec.name: 0 for spec in specs}
    for row in trace:
        if row.remaining_ms is None:
            continue
        if row.device_id in last:
            lo, hi = bounds[row.device_id]
            assert lo <= row.true_time_ns - last[row.device_id] <= hi, row
            intervals[row.device_id] += 1
        last[row.device_id] = row.true_time_ns
    assert min(intervals.values()) >= 3, intervals


def _one_ms_guards(t_guard_ms: int) -> SlotConfig:
    """The testbench slot with narrow guards, so that a drifting device resyncs often."""
    return SlotConfig(
        t_tx_ns=ms_to_ns(306),
        rx_delay_ns=ms_to_ns(1000),
        t_rx_ns=ms_to_ns(91),
        tb1_ns=ms_to_ns(t_guard_ms),
        tb2_ns=ms_to_ns(t_guard_ms),
    )


# the clock map rounds each reading to the nanosecond: the two readings a
# correction takes and the inverse of the grid point each shift it by a ns
_MAP_ROUNDING_NS = 3


@settings(max_examples=60, deadline=None)
@given(
    ppm=st.floats(-100.0, 100.0),
    t_guard_ms=st.integers(1, 20),
    tx_period_s=st.integers(5, 300),
    slot_pick=st.sampled_from(["aligned", "random"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_one_correction_leaves_half_a_millisecond_plus_the_drift_since(
    ppm, t_guard_ms, tx_period_s, slot_pick, seed
):
    cfg = _one_ms_guards(t_guard_ms)
    duration_s = 40 * tx_period_s
    spec = DeviceSpec(name="d", clock_model=Piecewise(((0.0, ppm),)), tx_period_s=tx_period_s)
    _, trace = run(Scenario(duration_s=duration_s, cfg=cfg, devices=(spec,), seed=seed,
                            slot_pick=slot_pick))
    rows = list(trace)
    checked = 0
    for resync, nxt in zip(rows, rows[1:]):
        ack_end = resync.true_time_ns + cfg.rx_delay_ns + cfg.t_rx_ns
        if resync.remaining_ms is None or ack_end > duration_s * NS_PER_S:
            continue
        # the ACK field's round-half-up, then |ppm| over the time from the
        # uplink end the correction answered to the next uplink's start,
        # where the device's grid point meets the server's
        start = nxt.true_time_ns - cfg.t_tx_ns
        rate_ns = math.ceil(abs(ppm) * (start - resync.true_time_ns) / 1e6)
        assert abs(nxt.signed_drift_ns) <= NS_PER_MS // 2 + rate_ns + _MAP_ROUNDING_NS, (resync, nxt)
        checked += 1
    # the device boots at a random phase: its first uplink is out of sync
    # unless it lands in the guards
    assert checked or rows[0].in_sync
