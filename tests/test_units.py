"""Unit conversions and the exact millisecond formatter."""

import random

import pytest

from lorasync.units import NS_PER_MS, fmt_ms, ms_to_ns, ns_to_ms_round, s_to_ns


def test_conversions():
    assert ms_to_ns(306) == 306_000_000
    assert ms_to_ns(0.5) == 500_000
    assert s_to_ns(23_400) == 23_400_000_000_000
    assert s_to_ns(30.4) == 30_400_000_000


def test_ns_to_ms_round_half_up():
    assert ns_to_ms_round(0) == 0
    assert ns_to_ms_round(499_999) == 0
    assert ns_to_ms_round(500_000) == 1
    assert ns_to_ms_round(11_935_744_000) == 11_936
    assert ns_to_ms_round(92_672_000) == 93
    with pytest.raises(ValueError):
        ns_to_ms_round(-1)


def test_fmt_ms_examples():
    assert fmt_ms(0) == "0"
    assert fmt_ms(1_271_000_000) == "1271"
    assert fmt_ms(-179_832_400) == "-179.8324"
    assert fmt_ms(1) == "0.000001"
    assert fmt_ms(-1) == "-0.000001"
    assert fmt_ms(306_000_001) == "306.000001"
    assert fmt_ms(11_935_744_000) == "11935.744"
    # under one millisecond, either sign
    assert fmt_ms(10) == "0.00001"
    assert fmt_ms(999_999) == "0.999999"
    assert fmt_ms(-500_000) == "-0.5"
    assert fmt_ms(-999_999) == "-0.999999"
    # exact multiples of one millisecond
    assert fmt_ms(1_000_000) == "1"
    assert fmt_ms(-1_000_000) == "-1"
    assert fmt_ms(-306_000_000) == "-306"
    assert fmt_ms(10**18) == "1000000000000"
    # the int64 extremes
    assert fmt_ms(2**63 - 1) == "9223372036854.775807"
    assert fmt_ms(-(2**63 - 1)) == "-9223372036854.775807"


def test_fmt_ms_roundtrips_through_decimal():
    rng = random.Random(8)
    edges = [0, 1, -1, 999_999, -999_999, 2**63 - 1, -(2**63 - 1)]
    edges += [sign * k * NS_PER_MS for sign in (1, -1) for k in (1, 7, 10**6)]
    draws = [rng.randrange(-(10**15), 10**15) for _ in range(5000)]
    draws += [rng.randrange(-NS_PER_MS + 1, NS_PER_MS) for _ in range(1000)]
    for ns in edges + draws:
        text = fmt_ms(ns)
        # parse back: the rendering must be exact, no precision loss
        neg = text.startswith("-")
        body = text.lstrip("-")
        whole, _, frac = body.partition(".")
        back = int(whole) * NS_PER_MS + int(frac.ljust(6, "0") or 0)
        assert (-back if neg else back) == ns
        # canonical: no trailing zeros, no bare trailing dot
        assert not text.endswith("0") or text == "0" or "." not in text
        assert not text.endswith(".")
