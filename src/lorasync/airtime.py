"""LoRa time-on-air.

Implements the usual LoRa modem timing: a symbol lasts 2^SF / BW seconds,
the preamble adds 4.25 symbols of sync word on top of the programmed
symbol count, and the payload occupies

    8 + max(ceil((8 PL - 4 SF + 28 + 16 CRC - 20 IH) / (4 (SF - 2 DE)))
            * (CR + 4), 0)

symbols.  For the three LoRaWAN bandwidths every symbol period is a whole
number of microseconds and divisible by four, so all durations here are
computed as exact integer nanoseconds; no floating point enters the math.
"""

from __future__ import annotations

from typing import NamedTuple

from ._record import Frozen
from .errors import ParamError
from .units import ns_to_ms_round

BANDWIDTHS_HZ = (125_000, 250_000, 500_000)
SF_MIN = 5
SF_MAX = 12
MAX_PL_BYTES = 255


class RadioParams(Frozen):
    """Physical-layer parameter set for one LoRa transmission."""

    __slots__ = _fields = (
        "sf", "bw_hz", "cr", "pl_bytes",
        "n_preamble", "crc_on", "implicit_header", "low_datarate_opt",
    )

    def __init__(
        self,
        sf: int,
        bw_hz: int,
        cr: int,
        pl_bytes: int,
        n_preamble: int = 8,
        crc_on: bool = True,
        implicit_header: bool = False,
        low_datarate_opt: bool = False,
    ):
        if not SF_MIN <= sf <= SF_MAX:
            raise ParamError(f"sf must be in {SF_MIN}..{SF_MAX}, got {sf}")
        if bw_hz not in BANDWIDTHS_HZ:
            raise ParamError(f"bw_hz must be one of {BANDWIDTHS_HZ}, got {bw_hz}")
        if not 1 <= cr <= 4:
            raise ParamError(f"cr must be in 1..4, got {cr}")
        if not 0 <= pl_bytes <= MAX_PL_BYTES:
            raise ParamError(f"pl_bytes must be in 0..{MAX_PL_BYTES}, got {pl_bytes}")
        if n_preamble < 1:
            raise ParamError(f"n_preamble must be >= 1, got {n_preamble}")
        self._set(sf, bw_hz, cr, pl_bytes, n_preamble, crc_on, implicit_header, low_datarate_opt)


# the longest uplink: the slowest data rate, the most coding, the largest payload
WORST_CASE = RadioParams(sf=12, bw_hz=125_000, cr=4, pl_bytes=MAX_PL_BYTES)


class AirTime(NamedTuple):
    """Durations of one transmission, exact nanoseconds."""

    t_preamble_ns: int
    t_payload_ns: int
    n_payload_symbols: int

    @property
    def t_packet_ns(self) -> int:
        return self.t_preamble_ns + self.t_payload_ns

    @property
    def t_packet_ms(self) -> int:
        """Whole milliseconds, round-half-up."""
        return ns_to_ms_round(self.t_packet_ns)


def symbol_duration_ns(p: RadioParams) -> int:
    # 10^9 / bw is exact for 125/250/500 kHz: 8000, 4000, 2000 ns.
    return (1 << p.sf) * (1_000_000_000 // p.bw_hz)


def payload_symbol_count(p: RadioParams) -> int:
    """Number of payload symbols after the preamble."""
    de = 1 if p.low_datarate_opt else 0
    num = (
        8 * p.pl_bytes
        - 4 * p.sf
        + 28
        + (16 if p.crc_on else 0)
        - (20 if p.implicit_header else 0)
    )
    den = 4 * (p.sf - 2 * de)  # at least 12: RadioParams admits sf >= 5
    n_bits = -(-num // den)  # ceil for possibly-negative integer numerator
    return 8 + max(n_bits * (p.cr + 4), 0)


def time_on_air(p: RadioParams) -> AirTime:
    """Preamble, payload and total duration of one transmission."""
    ts = symbol_duration_ns(p)
    # preamble is (n_preamble + 4.25) symbols; ts is divisible by 4
    t_preamble = (4 * p.n_preamble + 17) * ts // 4
    n_payload = payload_symbol_count(p)
    return AirTime(t_preamble, n_payload * ts, n_payload)


def remaining_time_bit_width(max_slot_ms: int) -> int:
    """Bits needed to carry a remaining-time value up to max_slot_ms.

    ceil(log2(n)) in integer arithmetic; the ACK's remaining-time field
    caps the slot length at slot.MAX_SLOT_MS.
    """
    if max_slot_ms < 1:
        raise ParamError(f"max_slot_ms must be >= 1, got {max_slot_ms}")
    return (max_slot_ms - 1).bit_length()
