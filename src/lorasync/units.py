"""Time units.

All durations and timestamps in this package are integer nanoseconds.
Milliseconds only appear at presentation boundaries (CLI output, config
files, the 2-byte wire field) and are produced with round-half-up.
"""

from __future__ import annotations

NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def ms_to_ns(value) -> int:
    return round(value * NS_PER_MS)


def s_to_ns(value) -> int:
    return round(value * NS_PER_S)


def ns_to_ms_round(ns: int) -> int:
    """Whole milliseconds, round-half-up. Durations only (non-negative)."""
    if ns < 0:
        raise ValueError("negative duration")
    return (ns + NS_PER_MS // 2) // NS_PER_MS


def fmt_ms(ns: int) -> str:
    """Exact decimal millisecond rendering of a nanosecond value.

    One integer-to-text conversion, then the last six digits become the
    fraction with its trailing zeros dropped, so output is reproducible
    byte for byte: 1_271_000_000 -> "1271", -179_832_400 -> "-179.8324".
    """
    sign = ""
    if ns < 0:
        sign, ns = "-", -ns
    digits = str(ns)
    if len(digits) > 6:
        whole, frac = digits[:-6], digits[-6:].rstrip("0")
    else:  # under one millisecond
        whole, frac = "0", ("00000" + digits)[-6:].rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else sign + whole
