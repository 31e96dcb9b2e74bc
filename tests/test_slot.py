"""Slot geometry, slot-grid arithmetic, in-sync judgement."""

import random

import pytest

from lorasync import (
    ParamError,
    SlotConfig,
    UsageError,
    position_in_slot,
    remaining_to_next_slot,
    uplink_end_in_sync,
)
from lorasync.units import NS_PER_MS, ms_to_ns

# bench geometry: 306 tx + 1000 rx-delay + 91 rx + 180 + 180 = 1757 ms
BENCH = SlotConfig(
    t_tx_ns=ms_to_ns(306),
    rx_delay_ns=ms_to_ns(1000),
    t_rx_ns=ms_to_ns(91),
    tb1_ns=ms_to_ns(180),
    tb2_ns=ms_to_ns(180),
)


def test_slot_length_is_the_sum_of_parts():
    assert BENCH.t_slot_ns == ms_to_ns(1757)


def test_position_and_remaining_examples():
    assert position_in_slot(ms_to_ns(4000), BENCH) == ms_to_ns(486)
    assert remaining_to_next_slot(ms_to_ns(4000), BENCH) == ms_to_ns(1271)
    # exactly on a boundary: position 0, a full slot remains
    assert position_in_slot(ms_to_ns(3514), BENCH) == 0
    assert remaining_to_next_slot(ms_to_ns(3514), BENCH) == ms_to_ns(1757)
    # the grid starts at 0: earlier times have no position in it
    assert position_in_slot(0, BENCH) == 0
    for func in (position_in_slot, remaining_to_next_slot):
        with pytest.raises(UsageError):
            func(-1, BENCH)


def test_position_plus_remaining_is_always_a_slot():
    rng = random.Random(21)
    for _ in range(2000):
        t = rng.randrange(0, 10**14)
        pos = position_in_slot(t, BENCH)
        rem = remaining_to_next_slot(t, BENCH)
        assert 0 <= pos < BENCH.t_slot_ns
        assert 0 < rem <= BENCH.t_slot_ns
        assert pos + rem == BENCH.t_slot_ns


def test_in_sync_judgement_examples():
    # exactly on the ideal end
    ok, d = uplink_end_in_sync(ms_to_ns(306), BENCH)
    assert (ok, d) == (True, 0)
    # 179 ms early: inside tb1
    ok, d = uplink_end_in_sync(ms_to_ns(127), BENCH)
    assert (ok, d) == (True, ms_to_ns(179))
    # 180 ms late: exactly on the tb2 edge, strict bound rejects it
    ok, d = uplink_end_in_sync(ms_to_ns(486), BENCH)
    assert (ok, d) == (False, -ms_to_ns(180))
    # ended right at the slot boundary: 306 ms early, outside tb1
    ok, d = uplink_end_in_sync(0, BENCH)
    assert (ok, d) == (False, ms_to_ns(306))
    # exactly half a slot off maps to +t_slot/2, not the negative side
    half = BENCH.t_slot_ns // 2
    ok, d = uplink_end_in_sync((BENCH.t_tx_ns - half) % BENCH.t_slot_ns, BENCH)
    assert (ok, d) == (False, half)


def test_in_sync_wrap_maps_to_half_open_interval():
    rng = random.Random(31)
    t_slot = BENCH.t_slot_ns
    for _ in range(3000):
        pos = rng.randrange(0, t_slot)
        ok, d = uplink_end_in_sync(pos, BENCH)
        assert -t_slot < 2 * d <= t_slot
        assert (pos + d - BENCH.t_tx_ns) % t_slot == 0
        assert ok == (-BENCH.tb2_ns < d < BENCH.tb1_ns)


def test_in_sync_guard_edges_exact():
    one = 1
    ok, d = uplink_end_in_sync(BENCH.t_tx_ns - BENCH.tb1_ns, BENCH)
    assert (ok, d) == (False, BENCH.tb1_ns)
    ok, d = uplink_end_in_sync(BENCH.t_tx_ns - BENCH.tb1_ns + one, BENCH)
    assert (ok, d) == (True, BENCH.tb1_ns - one)
    ok, d = uplink_end_in_sync(BENCH.t_tx_ns + BENCH.tb2_ns, BENCH)
    assert (ok, d) == (False, -BENCH.tb2_ns)
    ok, d = uplink_end_in_sync(BENCH.t_tx_ns + BENCH.tb2_ns - one, BENCH)
    assert (ok, d) == (True, -(BENCH.tb2_ns - one))


def test_in_sync_rejects_out_of_range_positions():
    with pytest.raises(UsageError):
        uplink_end_in_sync(-1, BENCH)
    with pytest.raises(UsageError):
        uplink_end_in_sync(BENCH.t_slot_ns, BENCH)


def test_guarded_fraction_matches_monte_carlo():
    # uniform arrival position: in-sync probability = (tb1 + tb2 - 1ns)/t_slot,
    # which at ns resolution is (tb1+tb2)/t_slot to 9 digits
    rng = random.Random(77)
    n = 200_000
    hits = sum(
        uplink_end_in_sync(rng.randrange(0, BENCH.t_slot_ns), BENCH)[0]
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
