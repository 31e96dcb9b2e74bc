"""Drifting-oscillator models: reference time vs device-local time.

A device whose oscillator runs at f0 + df sees its local clock advance by
(1 + ppm*1e-6) per reference second.  Drift is reported with the sign of
(reference - local): a fast device is ahead, so its drift is negative.

Every model is a stream of rate segments (start, end, local start, local
end, ppm) in time order: a Piecewise model builds its table once, and a
constant rate is a Piecewise model of one segment; a RandomWalk is a
generator that draws each step as it is first needed.  The last
segment's local end is unbounded.  _forward() is the one rate map;
it rounds the offset once over the whole interval since a segment start,
so querying a clock in many small steps or one big step yields
bit-identical local times (the simulator depends on that).

A clock holds its cursor's segment and the one before it, and both
queries move the cursor forward only: local_time() to the segment holding
its reference time, true_time_at_local() to the first segment whose local
end reaches its local time.  A walk is thus drawn the same whatever the
query pattern, and no further than a query needs.  That gives one query
rule: local_time() answers any reference time from the start of its
cursor's segment on, and true_time_at_local() any local time it finds in
that segment or, where on a slow clock rounding repeats a reading across
the cursor's start, in the one before.  A query behind that raises
UsageError.  The simulator never makes one: it asks the inverse for no
local time before its last reading, and reads the clock forward from
each answer.  A walk ends at a step that leaves the valid ppm range, and
every query that needs that step raises.

Times are int64 nanoseconds.  Reference instants must stay at or below
REF_NS_MAX (~146 years); since |ppm| < 1e6 keeps local time below twice
reference time, every local reading then fits too.  Models reject segment
starts past it, and a clock raises ParamError for a query or an inverse
answer beyond it.  Every segment that ends must advance local time by at
least 1 ns, or the inverse could never pass it: models reject one that
would not, and a walk ends at it.
"""

from __future__ import annotations

import random
from math import cos, inf, isfinite, log, sin, sqrt, tau

from ._record import Frozen
from .errors import ParamError, UsageError
from .units import NS_PER_S

# |ppm| must stay below this for local time to keep moving forward
_PPM_LIMIT = 1_000_000

# latest reference instant whose local reading still fits in int64
REF_NS_MAX = (2**63 - 1) // 2
_RANGE_ERROR = f"clock time past {REF_NS_MAX} ns leaves the int64 nanosecond range"


def _forward(dt: int, ppm: float) -> int:
    """Local nanoseconds that pass in dt reference nanoseconds at ppm."""
    return dt + round(dt * ppm / 1_000_000)


class RandomWalk(Frozen):
    """Piecewise-constant ppm that takes a Gaussian step every interval.

    seed=None means the simulator derives one from the scenario seed.
    step_ns is step_interval_s in whole nanoseconds, the length of a step.
    """

    _fields = ("step_interval_s", "step_std_ppm", "initial_ppm", "seed")
    __slots__ = (*_fields, "step_ns")

    def __init__(
        self,
        step_interval_s: float,
        step_std_ppm: float,
        initial_ppm: float,
        seed: int | None = None,
    ):
        if step_interval_s <= 0:
            raise ParamError("step_interval_s must be positive")
        if not step_interval_s * NS_PER_S <= REF_NS_MAX:
            raise ParamError(
                f"step_interval_s must be at most {REF_NS_MAX // NS_PER_S} s, "
                "the int64 nanosecond range"
            )
        if step_std_ppm < 0:
            raise ParamError("step_std_ppm must be >= 0")
        if not isfinite(step_std_ppm):
            # NaN passes the check above; NaN or inf would fail only at the first draw
            raise ParamError("step_std_ppm must be finite")
        if not abs(initial_ppm) < _PPM_LIMIT:
            raise ParamError(f"|initial_ppm| must be < {_PPM_LIMIT}")
        step_ns = round(step_interval_s * NS_PER_S)
        if _forward(step_ns, initial_ppm) <= 0:
            raise ParamError(
                "step_interval_s too small: a step at initial_ppm must advance local time"
            )
        self._set(step_interval_s, step_std_ppm, initial_ppm, seed)
        object.__setattr__(self, "step_ns", step_ns)


class Piecewise(Frozen):
    """Explicit (from_time_s, offset_ppm) segments, first at t=0; a
    constant rate is one segment.

    segments is held as a tuple of pairs.  table holds its rate segments,
    in nanoseconds, built once here for every SimClock of the model.
    """

    _fields = ("segments",)
    __slots__ = (*_fields, "table")

    def __init__(self, segments: tuple[tuple[float, float], ...]):
        segments = tuple((t, ppm) for t, ppm in segments)
        if not segments:
            raise ParamError("piecewise model needs at least one segment")
        if segments[0][0] != 0:
            raise ParamError("first piecewise segment must start at t=0")
        times = [t for t, _ in segments]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ParamError("piecewise segment times must strictly increase")
        if not all(t * NS_PER_S <= REF_NS_MAX for t in times):
            raise ParamError(
                f"piecewise segments must start by {REF_NS_MAX // NS_PER_S} s, "
                "the int64 nanosecond range"
            )
        if any(not abs(ppm) < _PPM_LIMIT for _, ppm in segments):
            raise ParamError(f"|offset_ppm| must be < {_PPM_LIMIT}")
        starts = [round(t * NS_PER_S) for t in times]
        table, local_start = [], 0
        for (t, ppm), start, end in zip(segments, starts, starts[1:]):
            local_end = local_start + _forward(end - start, ppm)
            if local_end <= local_start:
                raise ParamError(f"piecewise segment at {t} s must advance local time")
            table.append((start, end, local_start, local_end, ppm))
            local_start = local_end
        table.append((starts[-1], REF_NS_MAX + 1, local_start, inf, segments[-1][1]))
        self._set(segments)
        object.__setattr__(self, "table", tuple(table))


ClockModel = Piecewise | RandomWalk


def _walk(model: RandomWalk):
    """A walk's segments, each step drawn when its segment is first asked
    for.  A step is rng.gauss(0.0, std) inline: the same Box-Muller pair
    from two uniform draws and the same arithmetic.  The walk ends at a
    step that leaves the valid ppm range or would not advance local time."""
    uniform = random.Random(model.seed).random
    step, std, ppm = model.step_ns, model.step_std_ppm, model.initial_ppm
    start = local_start = 0
    advance = _forward(step, ppm)  # RandomWalk checked that it is positive
    z_next = None
    while True:
        end = start + step
        # no segment starts past the int64 range, so the last one never ends
        local_end = local_start + advance if end <= REF_NS_MAX else inf
        yield start, end, local_start, local_end, ppm
        if z_next is None:
            x2pi = uniform() * tau
            g2rad = sqrt(-2.0 * log(1.0 - uniform()))
            z, z_next = cos(x2pi) * g2rad, sin(x2pi) * g2rad
        else:
            z, z_next = z_next, None
        ppm += 0.0 + z * std
        if not abs(ppm) < _PPM_LIMIT or (advance := _forward(step, ppm)) <= 0:
            return
        start, local_start = end, local_end


class SimClock:
    """Single simulated oscillator, read forward (the module states the
    query rule)."""

    __slots__ = ("_next", "_prev", "_seg")

    def __init__(self, model: ClockModel):
        if isinstance(model, RandomWalk):
            if model.seed is None:
                raise ParamError("RandomWalk clock needs a concrete seed to run")
            self._next = _walk(model).__next__
        else:
            self._next = iter(model.table).__next__
        self._seg = self._prev = self._next()

    def _advance(self, true_time_ns: int, local_ns: int = -1):
        """Move the cursor forward to the segment holding true_time_ns or,
        if it ends later, to the first segment whose local end reaches
        local_ns."""
        if true_time_ns > REF_NS_MAX:
            raise ParamError(_RANGE_ERROR)
        prev, seg = self._prev, self._seg
        try:
            while seg[1] <= true_time_ns or seg[3] < local_ns:
                prev, seg = seg, self._next()
        except StopIteration:  # only a walk ends
            raise ParamError("random walk left the valid ppm range") from None
        finally:
            self._prev, self._seg = prev, seg

    def local_time(self, true_time_ns: int) -> int:
        if true_time_ns >= self._seg[1]:
            self._advance(true_time_ns)
        start, _, local_start, _, ppm = self._seg
        if true_time_ns < start:
            raise UsageError(f"clock read at {true_time_ns} ns, behind its segment from {start} ns")
        return local_start + _forward(true_time_ns - start, ppm)

    def true_time_at_local(self, local_ns: int) -> int:
        """Earliest reference time whose local reading is >= local_ns.

        This is how a scheduler turns "wake me when my clock reads L" into
        a reference-time event.
        """
        if local_ns <= 0:
            return 0
        if self._seg[3] < local_ns:
            self._advance(-1, local_ns)
        # the cursor's segment reaches local_ns; the answer lies in it, or
        # in the one before if it starts at local_ns or later
        start, _, local_start, _, ppm = self._seg
        if local_start >= local_ns:
            start, _, local_start, _, ppm = self._prev
            if local_start >= local_ns:
                raise UsageError(
                    f"inverse at local {local_ns} ns, behind the clock's last two segments"
                )
        # the earliest offset d into that segment that reads local_ns or
        # more.  1 ns steps from a float guess near it find it exactly where
        # the map never decreases: at every ppm >= 0, and at negative rates
        # short of extreme ones far into a segment, where float rounding
        # makes the map fall back
        target = local_ns - local_start
        d = int(target / (1.0 + ppm / 1_000_000))
        reading = _forward(d, ppm)
        if reading < target:
            # short: so is every offset below, and each step up was read
            # short, so the first that reaches the target is the earliest
            d += 1
            while _forward(d, ppm) < target:
                d += 1
        elif reading > target or ppm < 0:
            # it reaches the target, and so may offsets below: step down to
            # the lowest that still does
            while d > 0 and _forward(d - 1, ppm) >= target:
                d -= 1
        # else an exact hit at ppm >= 0 is the answer: there dt * ppm / 1e6
        # in floats, and its rounding, never decrease as dt grows, so the
        # map rises by at least 1 ns a ns and the offset below reads short
        t = start + d
        # the last segment's local end is unbounded
        if t > REF_NS_MAX:
            raise ParamError(_RANGE_ERROR)
        return t


def preset(name: str, seed: int | None = None) -> ClockModel:
    """Named clock archetypes measured on common dev boards.

    "feather-like": wobbly crystal, random walk around +30 ppm.
    "ttgo-like": stable TCXO-grade part, constant +2 ppm.
    Only "feather-like" draws, so only it takes a seed.
    """
    if name == "feather-like":
        return RandomWalk(step_interval_s=60.0, step_std_ppm=4.0, initial_ppm=30.0, seed=seed)
    if name not in ("ideal", "ttgo-like"):
        raise ParamError(f"unknown clock preset {name!r}")
    if seed is not None:
        raise ParamError(f"clock preset {name!r} draws nothing, so takes no seed")
    return Piecewise(((0.0, 0.0 if name == "ideal" else 2.0),))
