"""Deterministic discrete-event execution of synchronization scenarios.

A `Scenario` is checked when it is built, and so is every copy
`_replace` makes of it: `run` takes any scenario as it is.  Its walks'
steps, each walk's and their sum, and its frames are bounded
(`MAX_WALK_STEPS`, `MAX_FRAMES`).

Everything runs on virtual time.  Events are popped from a heap keyed by
(time, insertion sequence), so identical (scenario, seed) pairs replay
bit for bit.  A frame is the only event, pushed at its uplink end.  Its
handler counts the collisions of the uplink, judges it at the server,
which decides the ACK's remaining-time field, then opens RX1 rx_delay
after the uplink end (counted only if RX1 opens within the run) and
applies the ACK and asks the device for its next transmission (only if
the ACK ends within the run).

Fixed-rate round boundaries fall every round_s from 0 and need no
events: the server counts those since a device's previous uplink when it
judges the next one (a boundary at the uplink's own end included), and
those after each device's last uplink, up to the horizon, once after
the loop (`protocol` states the rule).

A heap entry is (uplink end, insertion sequence, device index): the
device alone holds where its next transmit window opens.  Per frame the
device clock is read at the ACK end, where the device picks its next
transmit instant (`protocol` states the rule), and also at the uplink
end only for a correction the device applies: an empty or lost ACK
changes nothing on the device.  The clock's inverse maps each transmit
instant to reference time.

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

`run` returns the metrics and a `Trace` of the frames, read forward: its
length, and its `TraceRow`s in time order, one per frame.  It stores what
the run decided, the device, the uplink end and whether the server
attached a correction, in typed columns of 13 bytes a frame;
`Trace.fields` derives the rest of each row as it is read: the slot
judgement of its uplink end, one `slot.uplink_end_in_sync` call as the
server made, and the remaining time of a correction.
"""

from __future__ import annotations

import heapq
import random
from array import array
from collections import deque
from itertools import count, repeat
from typing import NamedTuple

from ._record import Frozen
from .clock import REF_NS_MAX, ClockModel, RandomWalk, SimClock
from .errors import ConfigError, ParamError
from .frame import MAX_UPLINK_PAYLOAD
from .protocol import (
    ADAPTIVE,
    FIXED_RATE,
    SYNC_BYTES,
    EndDeviceState,
    NetworkServerState,
    ack_remaining_ms,
    ed_first_tx_time,
    ed_next_tx_time,
    ed_on_ack,
    ed_pick_tx_time,
    ns_on_run_end,
    ns_on_uplink_end,
)
from .slot import SlotConfig, uplink_end_in_sync
from .units import NS_PER_S, s_to_ns

SLOT_PICK_RANDOM = "random"
SLOT_PICK_ALIGNED = "aligned"

# steps a run's random walks may draw, each over duration_s + 2 * tx_period_s,
# alone and summed: at about 0.75 us a step (Python 3.11, Xeon) a run draws
# for under 10 s
MAX_WALK_STEPS = 10_000_000
# frames a run may send, counted as duration_s / tx_period_s summed over
# its devices: the trace keeps 13 B of each, 130 MB at the bound, and
# 1000 devices over 6 h at 30 s periods send about 720,000
MAX_FRAMES = 10_000_000


class DeviceSpec(NamedTuple):
    name: str
    clock_model: ClockModel
    tx_period_s: float
    payload_bytes: int = 0


class Scenario(Frozen):
    """One run: its length, slot geometry, devices, strategy and medium.

    Read-only and checked on construction, a copy from `_replace` too: a
    scenario `run` cannot execute raises ConfigError, and a device's own
    error carries its index.  `devices` is held as a tuple.
    """

    __slots__ = _fields = (
        "duration_s", "cfg", "devices", "strategy", "round_s",
        "seed", "duty_cycle_limit", "downlink_loss", "slot_pick",
    )

    def __init__(self, duration_s: float, cfg: SlotConfig, devices: tuple[DeviceSpec, ...],
                 strategy: str = ADAPTIVE, round_s: float | None = None, seed: int = 0,
                 duty_cycle_limit: float = 0.01, downlink_loss: float = 0.0,
                 slot_pick: str = SLOT_PICK_RANDOM):
        devices = tuple(devices)
        max_s = REF_NS_MAX // NS_PER_S
        # run lengths and periods are whole nanoseconds: nan and 0 ns are rejected
        if not duration_s * NS_PER_S > 0.5:
            raise ConfigError("duration_s must be positive, at least 1 ns")
        if not duration_s * NS_PER_S <= REF_NS_MAX:
            raise ConfigError(f"duration_s must be at most {max_s} s, the int64 nanosecond range")
        if not devices:
            raise ConfigError("scenario needs at least one device")
        first = {}
        for i, d in enumerate(devices):
            if first.setdefault(d.name, i) != i:
                raise ConfigError(f"device {d.name}: device names must be unique", device=i)
        if strategy not in (ADAPTIVE, FIXED_RATE):
            raise ConfigError(f"unknown strategy {strategy!r}")
        # rounds are whole int64 nanoseconds: nan, inf and 0 ns are rejected
        if strategy == FIXED_RATE and not 0.5 < (round_s or 0) * NS_PER_S <= REF_NS_MAX:
            raise ConfigError(f"fixed_rate strategy needs round_s of 1 ns to {max_s} s")
        if strategy == ADAPTIVE and round_s is not None:
            raise ConfigError("round_s applies only to the fixed_rate strategy")
        if not 0.0 <= downlink_loss <= 1.0:
            raise ConfigError("downlink_loss must be in [0, 1]")
        if not 0.0 < duty_cycle_limit <= 1.0:
            raise ConfigError("duty_cycle_limit must be in (0, 1]")
        if slot_pick not in (SLOT_PICK_RANDOM, SLOT_PICK_ALIGNED):
            raise ConfigError(f"unknown slot_pick {slot_pick!r}")
        walk_steps = []
        for i, d in enumerate(devices):
            # the summary prints one device.<name>.<key>=value line per fact
            if "=" in d.name:
                raise ConfigError(f"device {d.name}: a device name must not contain '='", device=i)
            if not d.tx_period_s * NS_PER_S > 0.5:
                raise ConfigError(
                    f"device {d.name}: tx_period_s must be positive, at least 1 ns", device=i
                )
            if not 0 <= d.payload_bytes <= MAX_UPLINK_PAYLOAD:
                raise ConfigError(
                    f"device {d.name}: payload_bytes must be in 0..{MAX_UPLINK_PAYLOAD}", device=i
                )
            # a device's clock is asked for instants up to about two periods
            # past the horizon, and a walk draws every step up to there
            horizon_s = duration_s + 2 * d.tx_period_s
            if not horizon_s * NS_PER_S <= REF_NS_MAX:
                raise ConfigError(
                    f"device {d.name}: duration_s + 2 * tx_period_s "
                    f"must be at most {max_s} s, the int64 nanosecond range",
                    device=i,
                )
            model = d.clock_model
            if isinstance(model, RandomWalk):
                if horizon_s * NS_PER_S > MAX_WALK_STEPS * model.step_ns:
                    raise ConfigError(f"device {d.name}: a random walk may draw at most "
                                      f"{MAX_WALK_STEPS} steps over duration_s + 2 * tx_period_s",
                                      device=i)
                walk_steps.append(horizon_s * NS_PER_S / model.step_ns)
        # after every device's own checks: a 0 s period is reported, not divided by
        if sum(duration_s / d.tx_period_s for d in devices) > MAX_FRAMES:
            raise ConfigError(f"duration_s / tx_period_s summed over the devices must be at most "
                              f"{MAX_FRAMES}, the frames a run may send")
        if sum(walk_steps) > MAX_WALK_STEPS:
            raise ConfigError(f"the random walks' steps over duration_s + 2 * tx_period_s, summed "
                              f"over the devices, must be at most {MAX_WALK_STEPS}")
        self._set(duration_s, cfg, devices, strategy, round_s,
                  seed, duty_cycle_limit, downlink_loss, slot_pick)


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


# rows derived at a time: reading a trace holds a bounded piece of it
_CHUNK_ROWS = 4096


class Trace:
    """The frames of one run, in time order: its length, and its TraceRows
    when iterated.

    Three typed columns hold what the run decided, a row per frame: the
    device, the uplink end and whether the server attached a correction.
    The device names, the strategy and the slot geometry are held once
    per trace.  `fields` derives every row from them when it is read.
    """

    __slots__ = ("device_names", "strategy", "cfg", "device_index", "true_time_ns", "resync")

    def __init__(self, device_names, strategy: str, cfg: SlotConfig):
        self.device_names = tuple(device_names)
        self.strategy = strategy
        self.cfg = cfg
        self.device_index = array("I")  # into device_names
        self.true_time_ns = array("q")  # uplink end, reference clock
        self.resync = bytearray()  # 1: the server attached a correction

    def fields(self):
        """Every row as a plain tuple in TraceRow field order, a list per chunk.

        frame_index is the row number, the position, drift and verdict
        are the slot judgement of the uplink end, and a resync row
        carries the remaining time the server put in its ACK.
        """
        cfg, names, strategy = self.cfg, self.device_names, self.strategy
        for lo in range(0, len(self), _CHUNK_ROWS):
            chunk = slice(lo, lo + _CHUNK_ROWS)
            times = self.true_time_ns[chunk]
            yield [
                (i, names[dev], t, pos, drift, in_sync, "resync" if resync else "none",
                 ack_remaining_ms(t, cfg) if resync else None, strategy)
                for i, dev, t, (pos, drift, in_sync), resync in zip(
                    count(lo), self.device_index[chunk], times,
                    map(uplink_end_in_sync, times, repeat(cfg)), self.resync[chunk],
                )
            ]

    def __len__(self) -> int:
        return len(self.true_time_ns)

    def __iter__(self):
        for rows in self.fields():
            yield from map(TraceRow._make, rows)


class DeviceMetrics(NamedTuple):
    resync_count: int
    out_sync_frames: int


class GatewayMetrics(NamedTuple):
    """What the gateway counted; the CLI derives air time and duty cycle from it."""

    downlink_count: int  # RX1 downlinks that opened within the run, each t_rx of air time
    sync_overhead_bytes: int  # protocol.SYNC_BYTES of the strategy per resync


class Metrics(NamedTuple):
    per_device: dict
    gateway: GatewayMetrics
    collision_count: int
    frames_total: int


def run(scenario: Scenario) -> tuple[Metrics, Trace]:
    """Execute one scenario; returns (metrics, the Trace of its frames)."""
    cfg = scenario.cfg
    duration_ns = s_to_ns(scenario.duration_s)
    round_ns = None if scenario.round_s is None else s_to_ns(scenario.round_s)
    server = NetworkServerState(cfg, len(scenario.devices), round_ns)
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
            model = model._replace(seed=clock_seed)
        states.append(EndDeviceState(s_to_ns(spec.tx_period_s), cfg.t_slot_ns, rng=sched_rng))
        clocks.append(SimClock(model))
    loss_rng = random.Random(master.getrandbits(64))

    trace = Trace([spec.name for spec in scenario.devices], scenario.strategy, cfg)

    t_tx = cfg.t_tx_ns
    rx_delay = cfg.rx_delay_ns
    t_rx = cfg.t_rx_ns
    # (uplink end, insertion sequence, device index); the sequence breaks
    # ties in push order
    heap: list = []
    seq = count()
    heappush, heappop = heapq.heappush, heapq.heappop
    pick_tx_time = ed_pick_tx_time if scenario.slot_pick == SLOT_PICK_RANDOM else ed_next_tx_time

    loss = scenario.downlink_loss
    collisions = 0
    rx1_opened = 0
    add_device = trace.device_index.append
    add_time = trace.true_time_ns.append
    add_resync = trace.resync.append
    # end times of in-flight uplinks; every uplink lasts t_tx, so they end
    # in the order they started and the deque stays sorted
    active_ends: deque[int] = deque()

    try:
        # each transmit instant maps to its uplink end in reference time;
        # only complete frames are pushed
        for i, d in enumerate(states):
            end = clocks[i].true_time_at_local(ed_first_tx_time(d)) + t_tx
            if end <= duration_ns:
                heappush(heap, (end, next(seq), i))

        while heap:
            t, _, i = heappop(heap)
            start = t - t_tx
            while active_ends and active_ends[0] <= start:
                active_ends.popleft()
            collisions += len(active_ends)  # one per overlapping pair
            active_ends.append(t)
            remaining_ms = ns_on_uplink_end(server, i, t).remaining_ms
            add_device(i)
            add_time(t)
            add_resync(remaining_ms is not None)

            # RX1 opens and the ACK ends at fixed offsets from the uplink
            # end, so handling both here keeps their order across devices
            t_rx1 = t + rx_delay
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
            end = clock.true_time_at_local(pick_tx_time(states[i], end_local)) + t_tx
            if end <= duration_ns:
                heappush(heap, (end, next(seq), i))
    except ParamError as exc:  # only device i's clock raises it
        raise ParamError(f"device {scenario.devices[i].name}: {exc}") from exc

    # no frame follows the last boundaries; they still count a resync each
    ns_on_run_end(server, duration_ns)

    # the server counts every resync, for every device of the run
    per_device = {
        spec.name: DeviceMetrics(resyncs, out_sync)
        for spec, resyncs, out_sync in zip(
            scenario.devices, server.resync_count, server.out_sync_count
        )
    }
    sync_bytes = SYNC_BYTES[scenario.strategy] * sum(server.resync_count)
    return Metrics(
        per_device=per_device,
        gateway=GatewayMetrics(downlink_count=rx1_opened, sync_overhead_bytes=sync_bytes),
        collision_count=collisions,
        frames_total=len(trace),
    ), trace
