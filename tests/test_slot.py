"""Slot geometry, slot-grid arithmetic, in-sync judgement."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorasync import (
    ParamError,
    SlotConfig,
    UsageError,
    remaining_to_next_slot,
    uplink_end_in_sync,
)
from lorasync.slot import MAX_SLOT_MS
from lorasync.units import NS_PER_MS, ms_to_ns
from published_slot import PUBLISHED_SLOT as BENCH


def test_slot_length_is_the_sum_of_parts():
    assert BENCH.t_slot_ns == ms_to_ns(1757)


def _position(t):
    return uplink_end_in_sync(t, BENCH)[0]


def test_position_and_remaining_examples():
    assert _position(ms_to_ns(4000)) == ms_to_ns(486)
    assert remaining_to_next_slot(ms_to_ns(4000), BENCH) == ms_to_ns(1271)
    # exactly on a boundary: position 0, a full slot remains
    assert _position(ms_to_ns(3514)) == 0
    assert remaining_to_next_slot(ms_to_ns(3514), BENCH) == ms_to_ns(1757)
    # the grid starts at 0: earlier times have no position in it
    assert _position(0) == 0
    for func in (uplink_end_in_sync, remaining_to_next_slot):
        with pytest.raises(UsageError):
            func(-1, BENCH)


def test_position_plus_remaining_is_always_a_slot():
    rng = random.Random(21)
    for _ in range(2000):
        t = rng.randrange(0, 10**14)
        pos = _position(t)
        rem = remaining_to_next_slot(t, BENCH)
        assert 0 <= pos < BENCH.t_slot_ns
        assert 0 < rem <= BENCH.t_slot_ns
        assert pos + rem == BENCH.t_slot_ns


def test_in_sync_judgement_examples():
    # (position, drift, in_sync) of an uplink end; exactly on the ideal end
    assert uplink_end_in_sync(ms_to_ns(306), BENCH) == (ms_to_ns(306), 0, True)
    # 179 ms early: inside tb1
    assert uplink_end_in_sync(ms_to_ns(127), BENCH) == (ms_to_ns(127), ms_to_ns(179), True)
    # 180 ms late: exactly on the tb2 edge, strict bound rejects it
    assert uplink_end_in_sync(ms_to_ns(486), BENCH) == (ms_to_ns(486), -ms_to_ns(180), False)
    # ended right at the slot boundary: 306 ms early, outside tb1
    assert uplink_end_in_sync(0, BENCH) == (0, ms_to_ns(306), False)
    # the same end three slots on is judged the same
    t = 3 * BENCH.t_slot_ns + ms_to_ns(127)
    assert uplink_end_in_sync(t, BENCH) == (ms_to_ns(127), ms_to_ns(179), True)
    # exactly half a slot off maps to +t_slot/2, not the negative side
    half = BENCH.t_slot_ns // 2
    pos = (BENCH.t_tx_ns - half) % BENCH.t_slot_ns
    assert uplink_end_in_sync(pos, BENCH) == (pos, half, False)


def test_in_sync_wrap_maps_to_half_open_interval():
    rng = random.Random(31)
    t_slot = BENCH.t_slot_ns
    for _ in range(3000):
        pos = rng.randrange(0, t_slot)
        _, d, ok = uplink_end_in_sync(pos, BENCH)
        assert -t_slot < 2 * d <= t_slot
        assert (pos + d - BENCH.t_tx_ns) % t_slot == 0
        assert ok == (-BENCH.tb2_ns < d < BENCH.tb1_ns)


def test_in_sync_guard_edges_exact():
    one = 1
    _, d, ok = uplink_end_in_sync(BENCH.t_tx_ns - BENCH.tb1_ns, BENCH)
    assert (ok, d) == (False, BENCH.tb1_ns)
    _, d, ok = uplink_end_in_sync(BENCH.t_tx_ns - BENCH.tb1_ns + one, BENCH)
    assert (ok, d) == (True, BENCH.tb1_ns - one)
    _, d, ok = uplink_end_in_sync(BENCH.t_tx_ns + BENCH.tb2_ns, BENCH)
    assert (ok, d) == (False, -BENCH.tb2_ns)
    _, d, ok = uplink_end_in_sync(BENCH.t_tx_ns + BENCH.tb2_ns - one, BENCH)
    assert (ok, d) == (True, -(BENCH.tb2_ns - one))


def test_in_sync_rejects_times_before_the_grid():
    with pytest.raises(UsageError):
        uplink_end_in_sync(-1, BENCH)
    # a slot length on is the next slot's start, not out of range
    assert uplink_end_in_sync(BENCH.t_slot_ns, BENCH) == uplink_end_in_sync(0, BENCH)


_MAX_SLOT_NS = MAX_SLOT_MS * NS_PER_MS


@st.composite
def _slot_configs(draw):
    """Any valid SlotConfig: odd and even slots, uneven guards, tb1 up to
    just under t_tx, tb2 up to just under half the slot."""
    t_tx = draw(st.integers(1, _MAX_SLOT_NS // 4))
    tb1 = draw(st.integers(0, t_tx - 1) | st.just(t_tx - 1))
    rx_delay = draw(st.integers(0, _MAX_SLOT_NS // 8))
    t_rx = draw(st.integers(0, _MAX_SLOT_NS // 8))
    top = min(t_tx + tb1 + rx_delay + t_rx - 1, _MAX_SLOT_NS // 4)
    tb2 = draw(st.integers(0, top) | st.just(top))
    return SlotConfig(t_tx, rx_delay, t_rx, tb1, tb2)


@settings(max_examples=500, deadline=None)
@given(cfg=_slot_configs(), data=st.data())
@example(cfg=BENCH, data=None)
def test_judgement_matches_an_independent_oracle(cfg, data):
    t_slot, t_tx = cfg.t_slot_ns, cfg.t_tx_ns
    if data is None:
        times = [0, t_tx, t_slot - 1, 10**17]
    else:
        # any time, and a time next to where the verdict or the drift's
        # sign flips: each guard edge and, in an even slot, the half-slot tie
        edge = data.draw(st.sampled_from([t_tx - cfg.tb1_ns, t_tx + cfg.tb2_ns, t_tx + t_slot // 2]))
        k = data.draw(st.integers(0, 10**17 // t_slot - 1))
        times = [data.draw(st.integers(0, 10**17)),
                 k * t_slot + (edge + data.draw(st.integers(-1, 1))) % t_slot]
    for t in times:
        pos, drift, in_sync = uplink_end_in_sync(t, cfg)
        assert pos == t - t_slot * (t // t_slot)
        assert (t_tx - pos - drift) % t_slot == 0
        assert -t_slot < 2 * drift <= t_slot
        # wrap-free: SlotConfig keeps t_tx > tb1 and t_tx + tb2 <= t_slot
        assert in_sync == (t_tx - cfg.tb1_ns < pos < t_tx + cfg.tb2_ns)
        assert pos + remaining_to_next_slot(t, cfg) == t_slot


def test_guarded_fraction_matches_monte_carlo():
    # uniform arrival position: in-sync probability = (tb1 + tb2 - 1ns)/t_slot,
    # which at ns resolution is (tb1+tb2)/t_slot to 9 digits
    rng = random.Random(77)
    n = 200_000
    hits = sum(
        uplink_end_in_sync(rng.randrange(0, BENCH.t_slot_ns), BENCH)[2]
        for _ in range(n)
    )
    expect = (BENCH.tb1_ns + BENCH.tb2_ns) / BENCH.t_slot_ns
    assert hits / n == pytest.approx(expect, abs=0.005)


def test_config_validation():
    ms = ms_to_ns
    with pytest.raises(ParamError):
        SlotConfig(t_tx_ns=0, rx_delay_ns=ms(1000), t_rx_ns=ms(91), tb1_ns=0, tb2_ns=0)
    with pytest.raises(ParamError):
        # tb1 >= t_tx breaks the wrap-free in-sync window
        SlotConfig(t_tx_ns=ms(100), rx_delay_ns=ms(1000), t_rx_ns=ms(91),
                   tb1_ns=ms(100), tb2_ns=ms(50))
    with pytest.raises(ParamError):
        # tb2 above half the slot
        SlotConfig(t_tx_ns=ms(600), rx_delay_ns=0, t_rx_ns=0,
                   tb1_ns=0, tb2_ns=ms(700))
    with pytest.raises(ParamError):
        # slot longer than the 16-bit millisecond field
        SlotConfig(t_tx_ns=ms(60_000), rx_delay_ns=ms(10_000), t_rx_ns=0,
                   tb1_ns=ms(1), tb2_ns=ms(1))
    with pytest.raises(ParamError):
        SlotConfig(t_tx_ns=ms(306), rx_delay_ns=-1, t_rx_ns=ms(91),
                   tb1_ns=ms(180), tb2_ns=ms(180))


def test_guard_headroom_cap():
    # biggest guards that still fit every structural constraint
    big = SlotConfig(
        t_tx_ns=ms_to_ns(16_384),
        rx_delay_ns=0,
        t_rx_ns=0,
        tb1_ns=ms_to_ns(16_383),
        tb2_ns=ms_to_ns(32_766),
    )
    assert big.t_slot_ns <= 65_535 * NS_PER_MS
    # guards may consume at most what the worst-case uplink leaves of the
    # 16-bit millisecond field: 65535 - 11936 = 53599 ms
    with pytest.raises(ParamError, match="53599"):
        SlotConfig(
            t_tx_ns=ms_to_ns(26_801),
            rx_delay_ns=0,
            t_rx_ns=0,
            tb1_ns=ms_to_ns(26_800),
            tb2_ns=ms_to_ns(26_800),
        )
