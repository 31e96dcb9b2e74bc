"""LoRa time-on-air math against hand-computed values.

Expected numbers were worked out independently from the closed-form
symbol-count formula (integer arithmetic on a few representative
configurations) before the implementation existed, so these act as
frozen oracles rather than snapshots of the code's own output.
"""

import math
import random

import pytest

from lorasync import (
    ParamError,
    RadioParams,
    payload_symbol_count,
    remaining_time_bit_width,
    symbol_duration_ns,
    time_on_air,
)


def _params(sf, bw, **kw):
    kw.setdefault("cr", 1)
    kw.setdefault("pl_bytes", 10)
    return RadioParams(sf=sf, bw_hz=bw, **kw)


def test_symbol_duration_reference_values():
    # 2^7 / 125 kHz = 1.024 ms, and scaling laws around it
    assert symbol_duration_ns(_params(7, 125_000)) == 1_024_000
    assert symbol_duration_ns(_params(12, 125_000)) == 32_768_000
    assert symbol_duration_ns(_params(7, 250_000)) == 512_000
    assert symbol_duration_ns(_params(5, 500_000)) == 64_000


def test_symbol_duration_is_exact_in_ns():
    for sf in range(5, 13):
        for bw in (125_000, 250_000, 500_000):
            ts = symbol_duration_ns(_params(sf, bw))
            # exact: 2^sf * 1e9 must be divisible by bw
            assert ts * bw == (1 << sf) * 10**9


def test_payload_symbol_count_examples():
    # 193-byte uplink at SF7/CR4-5 with CRC
    p = RadioParams(sf=7, bw_hz=125_000, cr=1, pl_bytes=193)
    assert payload_symbol_count(p) == 288
    # 19-byte ACK at SF8/CR4-5 without CRC
    p = RadioParams(sf=8, bw_hz=125_000, cr=1, pl_bytes=19, crc_on=False)
    assert payload_symbol_count(p) == 33


def test_payload_symbol_count_floors_at_8():
    # tiny payload with implicit header and no CRC drives n_bits negative
    p = RadioParams(
        sf=12, bw_hz=125_000, cr=1, pl_bytes=1, crc_on=False, implicit_header=True
    )
    assert payload_symbol_count(p) == 8


def test_worst_case_packet_is_11936_ms():
    p = RadioParams(sf=12, bw_hz=125_000, cr=4, pl_bytes=255)
    at = time_on_air(p)
    assert at.t_packet_ns == 11_935_744_000
    assert at.t_packet_ms == 11936


def test_uplink_and_downlink_reference_airtimes():
    up = time_on_air(RadioParams(sf=7, bw_hz=125_000, cr=1, pl_bytes=193))
    assert up.t_packet_ns == 307_456_000
    assert up.t_packet_ms == 307
    down = time_on_air(
        RadioParams(sf=8, bw_hz=125_000, cr=1, pl_bytes=19, crc_on=False)
    )
    assert down.t_packet_ns == 92_672_000
    assert down.t_packet_ms == 93


def test_airtime_microsecond_views_are_exact():
    at = time_on_air(RadioParams(sf=7, bw_hz=125_000, cr=1, pl_bytes=193))
    # preamble: (8 + 4.25) symbols of 1024 us; payload: 288 of them
    assert divmod(at.t_preamble_ns, 1000) == (12_544, 0)
    assert divmod(at.t_payload_ns, 1000) == (294_912, 0)
    assert divmod(at.t_packet_ns, 1000) == (307_456, 0)
    # every air time on the SF/BW grid is a whole number of microseconds
    for sf in range(5, 13):
        for bw in (125_000, 250_000, 500_000):
            t = time_on_air(RadioParams(sf=sf, bw_hz=bw, cr=1, pl_bytes=10))
            assert t.t_preamble_ns % 1000 == 0
            assert t.t_payload_ns % 1000 == 0
            assert t.t_packet_ns % 1000 == 0


def test_preamble_quarter_symbol_never_truncates():
    # 4.25-symbol tail: ts is always divisible by 4, so the division is exact
    for sf in range(5, 13):
        for bw in (125_000, 250_000, 500_000):
            at = time_on_air(RadioParams(sf=sf, bw_hz=bw, cr=1, pl_bytes=10))
            ts = symbol_duration_ns(_params(sf, bw))
            assert at.t_preamble_ns * 4 == (4 * 8 + 17) * ts


def test_worst_case_is_maximum_over_grid():
    worst = time_on_air(RadioParams(sf=12, bw_hz=125_000, cr=4, pl_bytes=255))
    best = None
    for sf in range(5, 13):
        for bw in (125_000, 250_000, 500_000):
            for cr in (1, 2, 3, 4):
                t = time_on_air(RadioParams(sf=sf, bw_hz=bw, cr=cr, pl_bytes=255))
                assert t.t_packet_ns <= worst.t_packet_ns
                best = t if best is None else min(best, t, key=lambda a: a.t_packet_ns)
    assert best.t_packet_ns < worst.t_packet_ns


def test_airtime_monotone_in_payload_and_cr():
    rng = random.Random(42)
    for _ in range(200):
        sf = rng.randint(5, 12)
        bw = rng.choice((125_000, 250_000, 500_000))
        cr = rng.randint(1, 3)
        pl = rng.randint(1, 254)
        base = time_on_air(RadioParams(sf=sf, bw_hz=bw, cr=cr, pl_bytes=pl))
        more = time_on_air(RadioParams(sf=sf, bw_hz=bw, cr=cr, pl_bytes=pl + 1))
        harder = time_on_air(RadioParams(sf=sf, bw_hz=bw, cr=cr + 1, pl_bytes=pl))
        assert more.t_packet_ns >= base.t_packet_ns
        assert harder.t_packet_ns >= base.t_packet_ns


def test_bandwidth_halving_doubles_airtime_exactly():
    rng = random.Random(7)
    for _ in range(100):
        sf = rng.randint(5, 12)
        cr = rng.randint(1, 4)
        pl = rng.randint(1, 255)
        slow = time_on_air(RadioParams(sf=sf, bw_hz=125_000, cr=cr, pl_bytes=pl))
        fast = time_on_air(RadioParams(sf=sf, bw_hz=250_000, cr=cr, pl_bytes=pl))
        assert slow.t_packet_ns == 2 * fast.t_packet_ns


def test_integer_math_matches_float_formula():
    rng = random.Random(1234)
    for _ in range(500):
        sf = rng.randint(5, 12)
        bw = rng.choice((125_000, 250_000, 500_000))
        cr = rng.randint(1, 4)
        pl = rng.randint(1, 255)
        crc = rng.random() < 0.5
        ih = rng.random() < 0.2
        de = rng.random() < 0.3
        p = RadioParams(
            sf=sf, bw_hz=bw, cr=cr, pl_bytes=pl,
            crc_on=crc, implicit_header=ih, low_datarate_opt=de,
        )
        ts = (1 << sf) / bw  # seconds
        num = 8 * pl - 4 * sf + 28 + 16 * crc - 20 * ih
        n_bits = math.ceil(num / (4 * (sf - 2 * de)))
        n_sym = 8 + max(n_bits * (cr + 4), 0)
        t_float = (12.25 + n_sym) * ts
        at = time_on_air(p)
        assert payload_symbol_count(p) == n_sym
        assert at.t_packet_ns == pytest.approx(t_float * 1e9, abs=1.0)


def test_remaining_time_bit_width():
    assert remaining_time_bit_width(11936) == 14
    assert remaining_time_bit_width(65535) == 16
    assert remaining_time_bit_width(65536) == 16
    assert remaining_time_bit_width(1) == 0
    assert remaining_time_bit_width(2) == 1


def test_param_validation():
    with pytest.raises(ParamError):
        RadioParams(sf=4, bw_hz=125_000, cr=1, pl_bytes=10)
    with pytest.raises(ParamError):
        RadioParams(sf=13, bw_hz=125_000, cr=1, pl_bytes=10)
    with pytest.raises(ParamError):
        RadioParams(sf=7, bw_hz=200_000, cr=1, pl_bytes=10)
    with pytest.raises(ParamError):
        RadioParams(sf=7, bw_hz=125_000, cr=0, pl_bytes=10)
    with pytest.raises(ParamError):
        RadioParams(sf=7, bw_hz=125_000, cr=5, pl_bytes=10)
    with pytest.raises(ParamError):
        RadioParams(sf=7, bw_hz=125_000, cr=1, pl_bytes=-1)
    with pytest.raises(ParamError):
        RadioParams(sf=7, bw_hz=125_000, cr=1, pl_bytes=256)
    with pytest.raises(ParamError):
        RadioParams(sf=7, bw_hz=125_000, cr=1, pl_bytes=10, n_preamble=0)
