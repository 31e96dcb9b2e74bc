"""Slot geometry and slot-grid arithmetic.

A slot holds one uplink at its head, the class-A receive window, and two
guard intervals at the tail:

    | t_tx | rx_delay | t_rx | tb1 | tb2 |   -> t_slot = sum

tb1 absorbs early arrivals (fast device clocks), tb2 late ones.  The
in-sync judgement looks at where an uplink *ends* inside the slot: the
ideal end sits at offset t_tx, and the signed drift is how far before
(+) or after (-) the ideal end the frame actually landed.

The server's grid starts at reference time 0: slot n starts at
n * t_slot, and times before 0 have no position in it.  One call,
`uplink_end_in_sync`, makes the whole judgement of an uplink end: its
position in the slot, its signed drift and the verdict.
"""

from __future__ import annotations

from ._record import Frozen
from .airtime import WORST_CASE, time_on_air
from .errors import ParamError, UsageError
from .frame import REMAINING_MS
from .units import NS_PER_MS

# the ACK's remaining-time field caps the slot length, 65535 ms
MAX_SLOT_MS = (1 << 8 * REMAINING_MS.size) - 1
# and the worst-case uplink's air time (11936 ms) leaves this much of it
# for everything else, guards included
GUARD_HEADROOM_MS = MAX_SLOT_MS - time_on_air(WORST_CASE).t_packet_ms


class SlotConfig(Frozen):
    _fields = ("t_tx_ns", "rx_delay_ns", "t_rx_ns", "tb1_ns", "tb2_ns")
    __slots__ = (*_fields, "_t_slot_ns")

    def __init__(self, t_tx_ns: int, rx_delay_ns: int, t_rx_ns: int, tb1_ns: int, tb2_ns: int):
        fields = (t_tx_ns, rx_delay_ns, t_rx_ns, tb1_ns, tb2_ns)
        for name, value in zip(self._fields, fields):
            if value < 0:
                raise ParamError(f"{name} must be >= 0")
        if t_tx_ns <= 0:
            raise ParamError("t_tx_ns must be positive")
        if t_tx_ns <= tb1_ns:
            # keeps the in-sync window wrap-free around the ideal end
            raise ParamError("t_tx must exceed tb1")
        t_slot = t_tx_ns + rx_delay_ns + t_rx_ns + tb1_ns + tb2_ns
        if 2 * tb1_ns >= t_slot or 2 * tb2_ns >= t_slot:
            raise ParamError("guards must stay below half a slot")
        if (tb1_ns + tb2_ns) > GUARD_HEADROOM_MS * NS_PER_MS:
            raise ParamError(f"tb1 + tb2 must not exceed {GUARD_HEADROOM_MS} ms")
        if t_slot > MAX_SLOT_MS * NS_PER_MS:
            raise ParamError(f"t_slot must not exceed {MAX_SLOT_MS} ms")
        # summed once; the per-frame slot arithmetic reads this field, not the property
        self._set(*fields, _t_slot_ns=t_slot)

    @property
    def t_slot_ns(self) -> int:
        return self._t_slot_ns


def remaining_to_next_slot(time_ns: int, cfg: SlotConfig) -> int:
    """Time until the next slot boundary; a full t_slot exactly on one."""
    if time_ns < 0:
        raise UsageError("time precedes the slot grid's origin")
    t_slot = cfg._t_slot_ns
    return t_slot - time_ns % t_slot


def uplink_end_in_sync(time_ns: int, cfg: SlotConfig) -> tuple[int, int, bool]:
    """Judge an uplink by where it ended inside its slot.

    Returns (arrival_position, signed_drift, in_sync), in TraceRow order.
    arrival_position = time_ns mod t_slot.  signed_drift = t_tx -
    arrival_position, wrapped into (-t_slot/2, t_slot/2]: positive means
    the frame ended early (fast clock, charged against tb1), negative
    means late (slow clock, charged against tb2).  In-sync iff
    -tb2 < drift < tb1, strict.
    """
    if time_ns < 0:
        raise UsageError("time precedes the slot grid's origin")
    t_slot = cfg._t_slot_ns
    pos = time_ns % t_slot
    d = (cfg.t_tx_ns - pos) % t_slot
    if 2 * d > t_slot:
        d -= t_slot
    return pos, d, -cfg.tb2_ns < d < cfg.tb1_ns
