"""Server judgement, ACK planning, device-side grid reconstruction and transmit schedule."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorasync import (
    AckPlan,
    EndDeviceState,
    NetworkServerState,
    SlotConfig,
    UsageError,
    ed_first_tx_time,
    ed_next_tx_time,
    ed_on_ack,
    ed_pick_tx_time,
    ns_on_run_end,
    ns_on_uplink_end,
)
from lorasync.units import ms_to_ns

CFG = SlotConfig(
    t_tx_ns=ms_to_ns(306),
    rx_delay_ns=ms_to_ns(1000),
    t_rx_ns=ms_to_ns(91),
    tb1_ns=ms_to_ns(180),
    tb2_ns=ms_to_ns(180),
)
T_SLOT = CFG.t_slot_ns  # 1757 ms


N_DEVICES = 10


def _server(round_ns=None, n_devices=N_DEVICES):
    """An adaptive server, or a fixed-rate one with rounds of round_ns, for n_devices."""
    return NetworkServerState(cfg=CFG, n_devices=n_devices, round_ns=round_ns)


def test_in_sync_uplink_gets_empty_ack():
    s = _server()
    # frame ends exactly at the ideal offset of slot 2
    plan = ns_on_uplink_end(s, device_index=7, arrival_true_ns=2 * T_SLOT + CFG.t_tx_ns)
    # the plan holds only the server's decision: an empty ACK
    assert plan == AckPlan(remaining_ms=None)
    assert s.resync_count[7] == 0
    assert s.out_sync_count[7] == 0


def test_out_of_sync_uplink_gets_remaining_time():
    s = _server()
    # arrival at absolute 4000 ms: position 486 ms, drift -180 ms (late)
    plan = ns_on_uplink_end(s, device_index=7, arrival_true_ns=ms_to_ns(4000))
    assert plan.remaining_ms == 1271
    assert s.resync_count[7] == 1
    assert s.out_sync_count[7] == 1


def test_arrival_before_reference_rejected():
    # the server's grid starts at reference time 0
    s = _server()
    with pytest.raises(UsageError):
        ns_on_uplink_end(s, device_index=1, arrival_true_ns=-1)
    # no count moved
    assert s.resync_count == s.out_sync_count == [0] * N_DEVICES
    assert s.last_arrival_ns == [None] * N_DEVICES


def test_fixed_rate_holds_correction_until_round():
    s = _server(round_ns=ms_to_ns(10_000))
    # out-of-sync frame: fixed-rate still answers with an empty ACK
    plan = ns_on_uplink_end(s, device_index=3, arrival_true_ns=ms_to_ns(4000))
    assert plan.remaining_ms is None
    assert s.resync_count[3] == 0
    assert s.out_sync_count[3] == 1

    # the boundary at 10 s falls before the next uplink, which carries the
    # correction even though it is in-sync, and counts one resync
    plan = ns_on_uplink_end(s, device_index=3, arrival_true_ns=7 * T_SLOT + CFG.t_tx_ns)
    assert plan.remaining_ms == 1451  # 1757 - 306
    assert s.resync_count[3] == 1
    # no boundary since (12605 ms, 16119 ms]: the one after is empty again
    plan = ns_on_uplink_end(s, device_index=3, arrival_true_ns=9 * T_SLOT + CFG.t_tx_ns)
    assert plan.remaining_ms is None
    assert s.resync_count[3] == 1
    assert s.out_sync_count[3] == 1


def test_fixed_rate_round_covers_all_devices_sorted():
    s = _server(round_ns=ms_to_ns(10_000))
    for addr in (9, 2, 5):
        ns_on_uplink_end(s, device_index=addr, arrival_true_ns=5 * T_SLOT + CFG.t_tx_ns)
    # device 2 is heard again after the boundary at 10 s and is answered
    plan = ns_on_uplink_end(s, device_index=2, arrival_true_ns=7 * T_SLOT + CFG.t_tx_ns)
    assert plan.remaining_ms == 1451
    # the others are not heard again: the end of the run charges their
    # boundary, and none twice; devices never heard are charged nothing
    ns_on_run_end(s, ms_to_ns(15_000))
    assert s.resync_count == [int(i in (2, 5, 9)) for i in range(N_DEVICES)]


def test_fixed_rate_charges_every_boundary_between_two_uplinks():
    s = _server(round_ns=ms_to_ns(1000))
    # a first uplink is charged nothing, even one ending on a boundary
    plan = ns_on_uplink_end(s, device_index=1, arrival_true_ns=ms_to_ns(4000))
    assert plan.remaining_ms is None
    assert s.resync_count[1] == 0
    # the boundaries at 5..9 s, the one at this uplink's own end included:
    # one correction, five resyncs
    plan = ns_on_uplink_end(s, device_index=1, arrival_true_ns=ms_to_ns(9000))
    assert plan.remaining_ms == 1542  # 9000 ms is 215 ms into its slot
    assert s.resync_count[1] == 5
    # none in (9 s, 9.5 s]
    plan = ns_on_uplink_end(s, device_index=1, arrival_true_ns=ms_to_ns(9500))
    assert plan.remaining_ms is None
    assert s.resync_count[1] == 5
    # the boundaries at 10..12 s follow the last uplink
    ns_on_run_end(s, ms_to_ns(12_000))
    assert s.resync_count[1] == 8


def test_run_end_charges_nothing_under_adaptive():
    s = _server()
    ns_on_uplink_end(s, device_index=7, arrival_true_ns=ms_to_ns(4000))
    ns_on_run_end(s, ms_to_ns(3_600_000))
    assert s.resync_count[7] == 1  # the out-of-sync frame's own


def _device(slot_start_ns, tx_period_ns=ms_to_ns(30_000), t_slot_ns=T_SLOT, rng=None):
    """A device whose grid starts at slot_start_ns, as after its first uplink or a correction.

    Its next window opens a period after slot_start_ns, as after a boot there.
    """
    d = EndDeviceState(tx_period_ns, t_slot_ns, rng)
    d.slot_start_local_ns = slot_start_ns
    d.window_start_local_ns = slot_start_ns + tx_period_ns
    return d


def test_aligned_pick_locks_to_the_grid():
    d = _device(slot_start_ns=ms_to_ns(1234))
    # next grid point at least one period later: 1234 + 18*1757 = 32860
    nxt = ed_next_tx_time(d, now_local_ns=ms_to_ns(2000))
    assert nxt == ms_to_ns(1234) + 18 * T_SLOT
    assert nxt - ms_to_ns(1234) >= d.tx_period_ns


def test_resync_example():
    # uplink ended at local 5000 ms, ACK told us 1271 ms remained at that
    # instant, ACK itself ended 1091 ms later
    d = _device(slot_start_ns=ms_to_ns(4694))
    ed_on_ack(d, ms_to_ns(5000), ms_to_ns(6091), remaining_ms=1271)
    assert d.slot_start_local_ns == ms_to_ns(6091 + 1271 - 1091)  # 6271


def test_resync_with_elapsed_past_the_boundary():
    # ACK arrives after the boundary the remaining time pointed at:
    # t goes negative and wraps into the following slot
    d = _device(slot_start_ns=0)
    ed_on_ack(d, ms_to_ns(5000), ms_to_ns(6500), remaining_ms=1200)
    # t = 1200 - 1500 = -300 -> +1457 into the next slot
    assert d.slot_start_local_ns == ms_to_ns(6500 + 1457)


def test_an_ack_ending_before_its_uplink_is_a_usage_error():
    # only a correction reaches the device: sim.run skips an empty or
    # lost ACK (test_sim.py::test_aligned_slot_pick_is_periodic)
    d = _device(slot_start_ns=ms_to_ns(100))
    with pytest.raises(UsageError):
        ed_on_ack(d, ms_to_ns(1000), ms_to_ns(999), remaining_ms=1271)
    assert d.slot_start_local_ns == ms_to_ns(100)


def test_period_rounds_up_to_grid_multiple():
    d = _device(slot_start_ns=0)
    t = ed_next_tx_time(d, 0)
    assert t == 18 * T_SLOT  # smallest multiple >= 30 s
    assert ed_next_tx_time(d, t) == 36 * T_SLOT


def test_server_correction_lands_device_on_grid():
    """Full dance: judge at the server, correct at the device, verify the
    device's reconstructed grid matches the server's."""
    rng = random.Random(13)
    s = _server(n_devices=300)
    for trial in range(300):
        # device booted with an arbitrary whole-ms phase (devices schedule
        # on millisecond ticks); ideal clock so local == true
        boot = ms_to_ns(rng.randrange(0, 10**7))
        d = _device(slot_start_ns=boot)
        end = boot + CFG.t_tx_ns
        plan = ns_on_uplink_end(s, device_index=trial, arrival_true_ns=end)
        if plan.remaining_ms is None:
            continue  # got lucky, already inside the guards
        # RX1 opens rx_delay after the uplink end
        ack_end = end + CFG.rx_delay_ns + CFG.t_rx_ns
        ed_on_ack(d, end, ack_end, plan.remaining_ms)
        # remaining_ms is whole milliseconds and all inputs are whole ms
        # here, so the reconstructed grid must sit exactly on the server's
        assert d.slot_start_local_ns % T_SLOT == 0
        # follow-up uplink ends exactly at the ideal in-slot offset
        nxt = ed_next_tx_time(d, ack_end)
        assert (nxt + CFG.t_tx_ns) % T_SLOT == CFG.t_tx_ns
        plan2 = ns_on_uplink_end(s, device_index=trial, arrival_true_ns=nxt + CFG.t_tx_ns)
        assert plan2.remaining_ms is None


# -- the transmit schedule against a plain oracle --------------------------


def _first_grid_point(origin: int, t_slot: int, lo: int) -> int:
    """The earliest grid point origin + k*t_slot, k >= 0, at or after lo."""
    return origin + max(0, math.ceil(Fraction(lo - origin, t_slot))) * t_slot


def _oracle_pick(origin, t_slot, window_lo, period, now, rng: random.Random) -> int:
    """Slotted ALOHA from its definition: one grid point of the window drawn with randrange."""
    first = _first_grid_point(origin, t_slot, max(window_lo, now))
    inside = range(first, window_lo + period, t_slot)
    return inside[rng.randrange(len(inside))] if inside else first


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    # periods under 1 ms have only the phase 0
    period_ns=st.one_of(st.integers(1, 999_999), st.integers(1, 10**11)),
)
@example(seed=5, period_ns=1)
@example(seed=5, period_ns=1_000_000)
def test_first_tx_time_matches_randrange(seed, period_ns):
    d = EndDeviceState(period_ns, T_SLOT, rng=random.Random(seed))
    phase = ed_first_tx_time(d)
    assert phase == random.Random(seed).randrange(max(1, period_ns // 1_000_000)) * 1_000_000
    assert phase < period_ns or phase == 0
    # the boot uplink is the grid's origin; the next window opens a period later
    assert d.slot_start_local_ns == phase
    assert d.window_start_local_ns == phase + period_ns


@st.composite
def _windows(draw):
    """A grid, a first window and the `now`s of successive picks.

    Windows hold no slot start, one, a power of two of them, or any
    number up to a few thousand; the window may open before the grid's
    origin, and `now` may fall before, inside or after it.
    """
    t_slot = draw(st.one_of(st.just(T_SLOT), st.integers(1, 10**10)))
    origin = draw(st.integers(0, 10**13))
    window_lo = origin + draw(
        st.one_of(st.integers(-3 * t_slot, 3 * t_slot), st.integers(0, 10**13))
    )
    period = draw(
        st.one_of(
            st.integers(1, t_slot),  # none or one slot start
            st.builds(lambda j: t_slot << j, st.integers(0, 11)),  # 2**j starts
            st.integers(1, 3000 * t_slot),
        )
    )
    nows = draw(st.lists(st.integers(-2 * period, 2 * period), min_size=1, max_size=6))
    return origin, t_slot, window_lo, period, nows


@settings(max_examples=200, deadline=None)
@given(case=_windows(), seed=st.integers(0, 2**64))
# a window that closes before the grid's origin: the pick is the origin
@example(case=(10 * T_SLOT, T_SLOT, 8 * T_SLOT + 5, T_SLOT, [0]), seed=0)
def test_pick_tx_time_matches_an_independent_draw(case, seed):
    origin, t_slot, window_lo, period, nows = case
    d = _device(origin, period, t_slot, random.Random(seed))
    d.window_start_local_ns = window_lo
    oracle_rng = random.Random(seed)
    last_tx = origin
    for i, dt in enumerate(nows):
        lo = window_lo + i * period  # each window opens where the previous one closed
        now = lo + dt
        expected = _oracle_pick(origin, t_slot, lo, period, now, oracle_rng)
        got = ed_pick_tx_time(d, now)
        assert got == expected
        assert d.window_start_local_ns == lo + period
        # a grid point in [max(lo, now), lo + period), or the first one after
        # the window when none falls inside it
        assert got >= origin and (got - origin) % t_slot == 0
        first = _first_grid_point(origin, t_slot, max(lo, now))
        assert first <= got
        assert got < lo + period if first < lo + period else got == first
        # the aligned pick shares the grid: the first point a period after the last start
        # on a copy of the device whose window opens a period after last_tx
        a = _device(origin, period, t_slot)
        a.window_start_local_ns = last_tx + period
        aligned = ed_next_tx_time(a, now)
        assert aligned == _first_grid_point(origin, t_slot, max(now, last_tx + period))
        last_tx = got
    # both drew the same numbers, no more and no fewer
    assert d.rng.random() == oracle_rng.random()
