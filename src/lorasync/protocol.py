"""Server-side monitoring, device-side resynchronization and transmit schedule.

The network server never initiates traffic.  It watches where each uplink
ends inside its slot grid, which starts at reference time 0; while a
device is in-sync the ACK stays empty, and the moment it is not, the ACK
carries the remaining time to the next slot boundary (`frame.REMAINING_MS`,
2 bytes).  The device reconstructs the boundary from that single number
plus two local timestamps:

    beg      local time when its uplink ended
    end      local time when the ACK finished arriving
    t        remaining - (end - beg), wrapped into [0, t_slot) if negative
    slot_start <- end + t

No retransmission state is kept: a lost ACK just means the device shows
up out-of-sync again and the next ACK corrects it.

The device alone decides when it transmits, on its own clock.  It boots
at a uniform whole-millisecond phase in its first period, its grid's
origin, then transmits on grid points slot_start + k*t_slot.  Its next
window opens a period after the boot phase.  Each pick reads the window
at the device's current local time `now` and advances it: the random
pick (Slotted ALOHA) draws a grid point uniformly in [max(w, now),
w + period) and opens the next window at w + period; the aligned pick
takes the first grid point at or after max(w, now) and opens the next
window a period after it.  Only boot phases are whole milliseconds: a
correction puts the grid at the uplink end's local reading plus
remaining_ms.

The fixed-rate baseline resynchronizes every device it has heard once
per round, unconditionally, at 8 bytes a piece.  The server reaches a
device only after its next uplink, which carries the correction when a
round boundary k*R (k >= 1) falls in (previous uplink end, this end]:
one correction, and one resync per boundary.  A first uplink counts none.
`SYNC_BYTES` holds each strategy's price of a resync.

The server is built for the devices of a run and knows each by its
index: it keeps a list per count with an entry for every device, heard
or not.  Under adaptive a resync is an out-of-sync frame, so one list
holds both counts; fixed-rate keeps its resyncs, and each device's last
uplink end, in lists of their own.  It judges each uplink end with one
`slot.uplink_end_in_sync` call, and its `AckPlan` holds only its
decision, the ACK's remaining-time field or None; every empty ACK is one
shared plan.  The ACK goes out when RX1 opens, rx_delay after the uplink
end.  `ack_remaining_ms` is the one derivation of that field; a trace
derives it again when it is read.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import UsageError
from .frame import REMAINING_MS
from .slot import SlotConfig, remaining_to_next_slot, uplink_end_in_sync
from .units import NS_PER_MS, ns_to_ms_round

ADAPTIVE = "adaptive"
FIXED_RATE = "fixed_rate"


# downlink bytes one resync costs, by strategy: the ACK's remaining-time
# field, or a fixed-rate correction
SYNC_BYTES = {ADAPTIVE: REMAINING_MS.size, FIXED_RATE: 8}


class NetworkServerState:
    """What the server counts, one list entry per device of the run, by its index."""

    __slots__ = ("cfg", "round_ns", "resync_count", "out_sync_count", "last_arrival_ns")

    def __init__(self, cfg: SlotConfig, n_devices: int, round_ns: int | None):
        self.cfg = cfg
        self.round_ns = round_ns  # fixed-rate round length; None: adaptive
        self.out_sync_count = [0] * n_devices
        # adaptive resyncs are its out-of-sync frames: one list, two names
        self.resync_count = self.out_sync_count if round_ns is None else [0] * n_devices
        # fixed-rate only: the last uplink end; None until the device is heard
        self.last_arrival_ns: list[int | None] | None = (
            None if round_ns is None else [None] * n_devices
        )


class AckPlan(NamedTuple):
    """The server's decision on one uplink: its ACK's remaining-time field, None if empty."""

    remaining_ms: int | None


# every empty ACK is this one plan: a tuple cannot change, so frames share it
_EMPTY_ACK = AckPlan(None)


class EndDeviceState:
    """One device's grid and transmit schedule, on its local clock."""

    __slots__ = ("tx_period_ns", "t_slot_ns", "slot_start_local_ns", "rng", "window_start_local_ns")

    def __init__(self, tx_period_ns: int, t_slot_ns: int, rng=None):
        self.tx_period_ns = tx_period_ns
        self.t_slot_ns = t_slot_ns
        self.slot_start_local_ns = 0  # the grid's origin: ed_first_tx_time sets it
        self.rng = rng  # a random.Random: the boot phase and random picks draw from it
        self.window_start_local_ns = 0  # where the next period window opens


def ack_remaining_ms(arrival_true_ns: int, cfg: SlotConfig) -> int:
    """The ACK's remaining-time field for an uplink ending at arrival_true_ns.

    Whole milliseconds to the next slot boundary, round-half-up.
    """
    return ns_to_ms_round(remaining_to_next_slot(arrival_true_ns, cfg))


def ns_on_uplink_end(s: NetworkServerState, device_index: int, arrival_true_ns: int) -> AckPlan:
    """Judge one finished uplink of a device and plan its ACK.

    Under the adaptive strategy the remaining time is attached exactly
    when the frame is out-of-sync; under the fixed-rate baseline exactly
    when a round boundary fell in (the device's previous uplink end, this
    one].
    """
    in_sync = uplink_end_in_sync(arrival_true_ns, s.cfg)[2]
    if not in_sync:
        s.out_sync_count[device_index] += 1
    # adaptive: counted above, as resync_count is out_sync_count
    resync = not in_sync
    if s.round_ns is not None:
        last = s.last_arrival_ns[device_index]
        s.last_arrival_ns[device_index] = arrival_true_ns
        boundaries = 0 if last is None else arrival_true_ns // s.round_ns - last // s.round_ns
        s.resync_count[device_index] += boundaries
        resync = boundaries > 0
    return AckPlan(ack_remaining_ms(arrival_true_ns, s.cfg)) if resync else _EMPTY_ACK


def ns_on_run_end(s: NetworkServerState, end_true_ns: int):
    """Charge each device heard the round boundaries in (its last uplink end, end_true_ns].

    No uplink answers them; call it once, at the end of a run.  Adaptive
    has no rounds, and a device never heard has none to answer.
    """
    if s.round_ns is not None:
        for i, last in enumerate(s.last_arrival_ns):
            if last is not None:
                s.resync_count[i] += end_true_ns // s.round_ns - last // s.round_ns


def ed_first_tx_time(d: EndDeviceState) -> int:
    """The boot uplink's local start, a whole-ms phase in the first period: the grid's origin."""
    phase = d.rng.randrange(max(1, d.tx_period_ns // NS_PER_MS)) * NS_PER_MS
    d.slot_start_local_ns = phase
    d.window_start_local_ns = phase + d.tx_period_ns
    return phase


def ed_pick_tx_time(d: EndDeviceState, now_local_ns: int) -> int:
    """Random pick: a uniform grid point in [max(w, now), w + tx_period), the next window.

    Each window opens where the previous one closed; with no grid point in
    it, the pick is the first one after it.
    """
    lo = d.window_start_local_ns
    hi = d.window_start_local_ns = lo + d.tx_period_ns
    # the first grid point slot_start + k*t_slot, k >= 0, at or after max(lo, now)
    s0, t_slot = d.slot_start_local_ns, d.t_slot_ns
    k = -((s0 - (now_local_ns if lo < now_local_ns else lo)) // t_slot)
    nxt = s0 + k * t_slot if k > 0 else s0
    if nxt < hi:
        # d.rng.randrange(n), drawn inline: the same getrandbits
        # calls of the same width, rejected while out of range
        n = 1 + (hi - 1 - nxt) // t_slot
        k = n.bit_length()
        getrandbits = d.rng.getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        nxt += r * t_slot
    return nxt


def ed_next_tx_time(d: EndDeviceState, now_local_ns: int) -> int:
    """Aligned pick: the first grid point at or after max(w, now).

    The next window opens a period after it.  As the first one opens a
    period after the boot phase, each pick is at least one tx_period
    after the previous start (periods effectively round up to the grid).
    """
    s0, t_slot = d.slot_start_local_ns, d.t_slot_ns
    k = -((s0 - max(now_local_ns, d.window_start_local_ns)) // t_slot)
    nxt = s0 + k * t_slot if k > 0 else s0
    d.window_start_local_ns = nxt + d.tx_period_ns
    return nxt


def ed_on_ack(d: EndDeviceState, beg_local_ns: int, end_local_ns: int, remaining_ms: int):
    """Apply one received correction: the device's grid moves onto the server's.

    beg is the local timestamp of the own uplink's end, end the local
    timestamp of the ACK's end, remaining_ms the ACK's remaining-time
    field.  An empty or lost ACK changes nothing, so the caller does not
    apply it.
    """
    if end_local_ns < beg_local_ns:
        raise UsageError("ACK cannot end before the uplink it answers")
    elapsed = end_local_ns - beg_local_ns
    t = remaining_ms * NS_PER_MS - elapsed
    if t < 0:
        t %= d.t_slot_ns
    d.slot_start_local_ns = end_local_ns + t
