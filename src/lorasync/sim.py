"""Deterministic discrete-event execution of synchronization scenarios.

Everything runs on virtual time.  Events are popped from a heap keyed by
(time, insertion sequence), so identical (scenario, seed) pairs replay
bit for bit.  A frame is the only event, pushed at its uplink end.  Its
handler counts the collisions of the uplink, judges it at the server,
then opens RX1 (counted only if RX1 opens within the run) and applies
the ACK and asks the device for its next transmission (only if the ACK
ends within the run).

Fixed-rate round boundaries fall every round_s from 0 and need no
events: the server counts those since a device's previous uplink when it
judges the next one (a boundary at the uplink's own end included), and
those after each device's last uplink, up to the horizon, once after
the loop (`protocol` states the rule).

Per frame the device clock is read at the ACK end, where the device
picks its next transmit instant (`protocol` states the rule), and also
at the uplink end only for a correction the device applies: an empty or
lost ACK changes nothing on the device.  The clock's inverse maps each
transmit instant to reference time.

Handling RX1 and the ACK early keeps every outcome of a chain of
separate events: every uplink lasts t_tx and RX1 and the ACK follow its
end at fixed offsets, so uplinks end, and downlinks open, in the order
the uplinks started, and the downlink loss draws happen in that order.
Only a device's own events touch its state or its clock, and a device
has one frame in flight at a time.

Frames skip the wire codec: the server's verdict reaches the device as
the ACK's remaining-time field itself, a whole number of milliseconds
that never exceeds the slot length, which SlotConfig caps at the 16-bit
field's 65535 ms (`frame` holds the on-air layout).

The medium is lossless by default: collisions are counted as time
overlaps between uplinks but do not destroy frames.  An optional uniform
downlink loss exercises the protocol's self-correction.

`run` returns the metrics and a `Trace`: a read-only sequence of
`TraceRow`s, one per frame in time order.  It stores what the run
decided, the device, the uplink end and the correction attached, in
typed columns of 16 bytes a frame; each row's slot position, drift and
verdict are the slot judgement of its uplink end, made when it is read.
"""

from __future__ import annotations

import heapq
import random
from array import array
from collections import deque
from collections.abc import Sequence
from itertools import count
from operator import eq
from typing import NamedTuple

from .clock import REF_NS_MAX, ClockModel, RandomWalk, SimClock
from .errors import ConfigError, ParamError
from .frame import MAX_UPLINK_PAYLOAD
from .protocol import (
    ADAPTIVE,
    FIXED_RATE,
    EndDeviceState,
    NetworkServerState,
    ed_first_tx_time,
    ed_next_tx_time,
    ed_on_ack,
    ed_pick_tx_time,
    ns_on_run_end,
    ns_on_uplink_end,
)
from .slot import SlotConfig, position_in_slot, uplink_end_in_sync
from .units import NS_PER_S, s_to_ns

SLOT_PICK_RANDOM = "random"
SLOT_PICK_ALIGNED = "aligned"

ADAPTIVE_SYNC_BYTES = 2
FIXED_RATE_SYNC_BYTES = 8


class DeviceSpec(NamedTuple):
    name: str
    clock_model: ClockModel
    tx_period_s: float
    payload_bytes: int = 0


class Scenario(NamedTuple):
    duration_s: float
    cfg: SlotConfig
    devices: tuple[DeviceSpec, ...]
    strategy: str = ADAPTIVE
    round_s: float | None = None
    seed: int = 0
    duty_cycle_limit: float = 0.01
    downlink_loss: float = 0.0
    slot_pick: str = SLOT_PICK_RANDOM


class TraceRow(NamedTuple):
    """One finished uplink as the server saw it."""

    frame_index: int
    device_id: str
    true_time_ns: int  # uplink end, reference clock
    arrival_position_ns: int
    signed_drift_ns: int
    in_sync: bool
    action: str  # "none" | "resync"
    remaining_ms: int | None
    strategy: str


class Trace(Sequence):
    """The frames of one run, in time order: a read-only sequence of TraceRow.

    Three typed columns hold what the run decided, a row per frame: the
    device, the uplink end and the remaining time attached (-1 when
    none is).  The device names, the strategy and the slot geometry are
    held once per trace.  frame_index is the row number, action is
    "resync" exactly when remaining_ms is attached, and the position,
    drift and verdict are the slot judgement of the uplink end.  Rows
    are built when they are read; a slice reads as a list of rows.
    """

    __slots__ = ("device_names", "strategy", "cfg", "device_index", "true_time_ns", "remaining_ms")

    def __init__(self, device_names, strategy: str, cfg: SlotConfig):
        self.device_names = tuple(device_names)
        self.strategy = strategy
        self.cfg = cfg
        self.device_index = array("I")  # into device_names
        self.true_time_ns = array("q")  # uplink end, reference clock
        self.remaining_ms = array("i")  # -1: no correction attached

    def columns(self) -> tuple:
        """The per-frame columns: device_index, true_time_ns and remaining_ms."""
        return (self.device_index, self.true_time_ns, self.remaining_ms)

    def _row(self, i, dev, t, rem) -> TraceRow:
        pos = position_in_slot(t, self.cfg)
        in_sync, drift = uplink_end_in_sync(pos, self.cfg)
        resync = rem >= 0
        return TraceRow(
            i,
            self.device_names[dev],
            t,
            pos,
            drift,
            in_sync,
            "resync" if resync else "none",
            rem if resync else None,
            self.strategy,
        )

    def __len__(self) -> int:
        return len(self.true_time_ns)

    def __getitem__(self, key):
        if isinstance(key, slice):
            rows = range(len(self))[key]
            return list(map(self._row, rows, *(col[key] for col in self.columns())))
        i = range(len(self))[key]  # negative indices count from the end
        return self._row(i, *(col[i] for col in self.columns()))

    def __iter__(self):
        return map(self._row, count(), *self.columns())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class DeviceMetrics(NamedTuple):
    resync_count: int = 0
    out_sync_frames: int = 0


class GatewayMetrics(NamedTuple):
    downlink_count: int = 0  # RX1 downlinks that opened within the run
    sync_overhead_bytes: int = 0  # 2 per adaptive resync, 8 per fixed-rate round resync
    downlink_airtime_ns: int = 0  # downlink_count * t_rx
    duty_cycle_used_fraction: float = 0.0  # downlink air-time over the run length


class Metrics(NamedTuple):
    duration_ns: int
    strategy: str
    per_device: dict
    gateway: GatewayMetrics
    collision_count: int = 0
    frames_total: int = 0


def validate_scenario(sc: Scenario):
    """Reject a scenario `run` cannot execute; a device's own error carries its index."""
    max_s = REF_NS_MAX // NS_PER_S
    if not sc.duration_s > 0:  # nan included
        raise ConfigError("duration_s must be positive")
    if not sc.duration_s * NS_PER_S <= REF_NS_MAX:
        raise ConfigError(f"duration_s must be at most {max_s} s, the int64 nanosecond range")
    if not sc.devices:
        raise ConfigError("scenario needs at least one device")
    names = [d.name for d in sc.devices]
    if len(set(names)) != len(names):
        raise ConfigError("device names must be unique")
    if sc.strategy not in (ADAPTIVE, FIXED_RATE):
        raise ConfigError(f"unknown strategy {sc.strategy!r}")
    # rounds are whole int64 nanoseconds: nan, inf and 0 ns are rejected
    if sc.strategy == FIXED_RATE and not 0.5 < (sc.round_s or 0) * NS_PER_S <= REF_NS_MAX:
        raise ConfigError(f"fixed_rate strategy needs round_s of 1 ns to {max_s} s")
    if sc.strategy == ADAPTIVE and sc.round_s is not None:
        raise ConfigError("round_s applies only to the fixed_rate strategy")
    if not 0.0 <= sc.downlink_loss <= 1.0:
        raise ConfigError("downlink_loss must be in [0, 1]")
    if not 0.0 < sc.duty_cycle_limit <= 1.0:
        raise ConfigError("duty_cycle_limit must be in (0, 1]")
    if sc.slot_pick not in (SLOT_PICK_RANDOM, SLOT_PICK_ALIGNED):
        raise ConfigError(f"unknown slot_pick {sc.slot_pick!r}")
    for i, d in enumerate(sc.devices):
        # the summary prints one device.<name>.<key>=value line per fact
        if "=" in d.name:
            raise ConfigError(f"device {d.name}: a device name must not contain '='", device=i)
        if not d.tx_period_s > 0:  # nan included
            raise ConfigError(f"device {d.name}: tx_period_s must be positive", device=i)
        if not 0 <= d.payload_bytes <= MAX_UPLINK_PAYLOAD:
            raise ConfigError(
                f"device {d.name}: payload_bytes must be in 0..{MAX_UPLINK_PAYLOAD}", device=i
            )
        # a device's clock is asked for instants up to about two periods
        # past the horizon
        if not (sc.duration_s + 2 * d.tx_period_s) * NS_PER_S <= REF_NS_MAX:
            raise ConfigError(
                f"device {d.name}: duration_s + 2 * tx_period_s "
                f"must be at most {max_s} s, the int64 nanosecond range",
                device=i,
            )


def run(scenario: Scenario) -> tuple[Metrics, Trace]:
    """Execute one scenario; returns (metrics, the Trace of its frames)."""
    validate_scenario(scenario)
    cfg = scenario.cfg
    duration_ns = s_to_ns(scenario.duration_s)
    round_ns = None if scenario.round_s is None else s_to_ns(scenario.round_s)
    server = NetworkServerState(cfg, round_ns)
    master = random.Random(scenario.seed)

    # per device, by the index the server knows it by
    states: list[EndDeviceState] = []
    clocks: list[SimClock] = []
    for spec in scenario.devices:
        # one master draw per device keeps clock realizations and phases
        # paired across strategy variants of the same scenario seed
        dev_master = random.Random(master.getrandbits(64))
        sched_rng = random.Random(dev_master.getrandbits(64))
        clock_seed = dev_master.getrandbits(64)
        model = spec.clock_model
        if isinstance(model, RandomWalk) and model.seed is None:
            model = RandomWalk(
                model.step_interval_s, model.step_std_ppm, model.initial_ppm, clock_seed
            )
        states.append(EndDeviceState(s_to_ns(spec.tx_period_s), cfg.t_slot_ns, rng=sched_rng))
        clocks.append(SimClock(model))
    loss_rng = random.Random(master.getrandbits(64))

    trace = Trace([spec.name for spec in scenario.devices], scenario.strategy, cfg)

    t_tx = cfg.t_tx_ns
    t_rx = cfg.t_rx_ns
    # (uplink end, insertion sequence, device index, local tx start); the
    # sequence breaks ties in push order
    heap: list = []
    seq = count()
    heappush, heappop = heapq.heappush, heapq.heappop
    pick_tx_time = ed_pick_tx_time if scenario.slot_pick == SLOT_PICK_RANDOM else ed_next_tx_time

    def push_uplink(i: int, tx_local: int):
        end = clocks[i].true_time_at_local(tx_local) + t_tx
        if end <= duration_ns:  # only complete frames
            heappush(heap, (end, next(seq), i, tx_local))

    loss = scenario.downlink_loss
    collisions = 0
    rx1_opened = 0
    add_device = trace.device_index.append
    add_time = trace.true_time_ns.append
    add_remaining = trace.remaining_ms.append
    # end times of in-flight uplinks; every uplink lasts t_tx, so they end
    # in the order they started and the deque stays sorted
    active_ends: deque[int] = deque()

    try:
        for i, d in enumerate(states):
            push_uplink(i, ed_first_tx_time(d))

        while heap:
            t, _, i, tx_local = heappop(heap)
            start = t - t_tx
            while active_ends and active_ends[0] <= start:
                active_ends.popleft()
            collisions += len(active_ends)  # one per overlapping pair
            active_ends.append(t)
            remaining_ms, t_rx1 = ns_on_uplink_end(server, i, t)
            add_device(i)
            add_time(t)
            add_remaining(-1 if remaining_ms is None else remaining_ms)

            # RX1 opens and the ACK ends at fixed offsets from the uplink
            # end, so handling both here keeps their order across devices
            if t_rx1 > duration_ns:
                continue
            t_ack = t_rx1 + t_rx
            rx1_opened += 1
            delivered = loss == 0.0 or loss_rng.random() >= loss
            if t_ack > duration_ns:
                continue
            clock = clocks[i]
            if delivered and remaining_ms is not None:
                # only a correction needs the uplink end on the device
                # clock; it is read first, as the clock is read in time order
                beg_local = clock.local_time(t)
                end_local = clock.local_time(t_ack)
                ed_on_ack(states[i], beg_local, end_local, remaining_ms)
            else:
                # an empty or lost ACK changes nothing: the device keeps
                # its grid and simply picks the next uplink
                end_local = clock.local_time(t_ack)
            push_uplink(i, pick_tx_time(states[i], end_local, tx_local))
    except ParamError as exc:  # only device i's clock raises it
        raise ParamError(f"device {scenario.devices[i].name}: {exc}") from exc

    # no frame follows the last boundaries; they still count a resync each
    ns_on_run_end(server, duration_ns)

    # the server's records count every resync; a device it never heard from has none
    per_device = {}
    for i, spec in enumerate(scenario.devices):
        rec = server.records.get(i)
        per_device[spec.name] = (
            DeviceMetrics(rec.resync_count, rec.out_sync_count) if rec else DeviceMetrics()
        )
    resyncs = sum(dm.resync_count for dm in per_device.values())
    sync_bytes = ADAPTIVE_SYNC_BYTES if scenario.strategy == ADAPTIVE else FIXED_RATE_SYNC_BYTES
    airtime_ns = rx1_opened * t_rx
    gateway = GatewayMetrics(
        downlink_count=rx1_opened,
        sync_overhead_bytes=sync_bytes * resyncs,
        downlink_airtime_ns=airtime_ns,
        duty_cycle_used_fraction=airtime_ns / duration_ns,
    )
    metrics = Metrics(
        duration_ns=duration_ns,
        strategy=scenario.strategy,
        per_device=per_device,
        gateway=gateway,
        collision_count=collisions,
        frames_total=len(trace),
    )
    return metrics, trace
