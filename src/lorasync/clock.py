"""Drifting-oscillator models: reference time vs device-local time.

A device whose oscillator runs at f0 + df sees its local clock advance by
(1 + ppm*1e-6) per reference second.  Drift is reported with the sign of
(reference - local): a fast device is ahead, so its drift is negative.

Offsets accumulate per rate segment and are rounded once over the full
interval since the segment start, so querying a clock in many small steps
or one big step yields bit-identical local times (the simulator depends
on that).

Each segment is held as its start on both clocks, so the offset at a
segment start is their difference.  A clock holds two segments as plain
attributes: its cursor's and the one before it.  Both queries move the
cursor forward only.  local_time() moves it to the segment holding its
reference time; true_time_at_local() moves it to the first segment that
starts at or after its local time, and answers in the one before.  A
query behind those two segments replays the clock from its model, which
draws the same segments.  The simulator never makes one: it asks the
inverse for local times no earlier than its last reading or target, and
reads the clock forward from the answer.  The segment before the
cursor's is where the inverse answers, and where the forward reads after
it may land; on a slow clock rounding can also repeat a local reading
across the cursor's start, and the inverse then answers before it.
Models other than walks are a table of segments, stepped by index.

Random-walk segments are drawn in time order and materialized only on
demand: a forward query extends the walk to the segment holding its
reference time, and the inverse extends it only until some segment starts
at or after the queried local time.  The draws are therefore the same
whatever the query pattern.

Times are int64 nanoseconds.  Reference instants must stay at or below
REF_NS_MAX (~146 years); since |ppm| < 1e6 keeps local time below twice
reference time, every local reading then fits too.  Models reject segment
starts past it, and a clock raises ParamError for a query, a drawn
segment or an inverse answer beyond it.  Every segment that ends must
advance local time by at least 1 ns, or the inverse could never pass it:
models reject one that would not, and so does a walk as it draws.
"""

from __future__ import annotations

import random
from math import cos, isfinite, log, sin, sqrt, tau

from ._record import Frozen
from .errors import ParamError, UsageError
from .units import NS_PER_S

# |ppm| must stay below this for local time to keep moving forward
_PPM_LIMIT = 1_000_000

# latest reference instant whose local reading still fits in int64
REF_NS_MAX = (2**63 - 1) // 2
_RANGE_ERROR = f"clock time past {REF_NS_MAX} ns leaves the int64 nanosecond range"


class Ideal(Frozen):
    """Perfect oscillator, local time equals reference time."""

    __slots__ = ()


class ConstantPpm(Frozen):
    __slots__ = _fields = ("offset_ppm",)

    def __init__(self, offset_ppm: float):
        if not abs(offset_ppm) < _PPM_LIMIT:
            raise ParamError(f"|offset_ppm| must be < {_PPM_LIMIT}")
        self._set(offset_ppm)


class RandomWalk(Frozen):
    """Piecewise-constant ppm that takes a Gaussian step every interval.

    seed=None means the simulator derives one from the scenario seed.
    """

    __slots__ = _fields = ("step_interval_s", "step_std_ppm", "initial_ppm", "seed")

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
        if step_ns + round(step_ns * initial_ppm / 1_000_000) <= 0:
            raise ParamError(
                "step_interval_s too small: a step at initial_ppm must advance local time"
            )
        self._set(step_interval_s, step_std_ppm, initial_ppm, seed)


class Piecewise(Frozen):
    """Explicit (from_time_s, offset_ppm) segments, first at t=0."""

    __slots__ = _fields = ("segments",)

    def __init__(self, segments: tuple[tuple[float, float], ...]):
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
        for (t0, ppm), (t1, _) in zip(segments, segments[1:]):
            dt = round(t1 * NS_PER_S) - round(t0 * NS_PER_S)
            if dt + round(dt * ppm / 1_000_000) <= 0:
                raise ParamError(f"piecewise segment at {t0} s must advance local time")
        self._set(segments)


ClockModel = Ideal | ConstantPpm | RandomWalk | Piecewise


class SimClock:
    """Single simulated oscillator.

    local_time() must be queried with non-decreasing reference times;
    true_time_at_local() is the scheduling inverse and carries no such
    restriction.
    """

    def __init__(self, model: ClockModel):
        if isinstance(model, RandomWalk) and model.seed is None:
            raise ParamError("RandomWalk clock needs a concrete seed to run")
        self.model = model
        self._last_query_ns = 0
        # a segment is (start, the same instant on the local clock, ppm).
        # Each offset is round(dt * ppm / 1e6) over the whole interval dt
        # since its segment start: one rounding per (segment start, query)
        # pair, so step patterns telescope exactly within a segment
        if isinstance(model, RandomWalk):
            self._rng = random.Random(model.seed)
            self._step_ns = round(model.step_interval_s * NS_PER_S)
            self._seg = self._prev = (0, 0, model.initial_ppm)
            self._seg_end = self._step_ns  # RandomWalk keeps it within REF_NS_MAX
            return
        self._rng = None
        if isinstance(model, Piecewise):
            segments = [(round(t * NS_PER_S), ppm) for t, ppm in model.segments]
        else:
            segments = [(0, 0.0 if isinstance(model, Ideal) else model.offset_ppm)]
        # every segment of the model, and last a row past the int64 range
        # that ends the one before it: no reading lies in it
        table = [(0, 0, segments[0][1])]
        for start, ppm in segments[1:] + [(REF_NS_MAX + 1, segments[-1][1])]:
            prev_start, local_start, prev_ppm = table[-1]
            dt = start - prev_start
            table.append((start, local_start + dt + round(dt * prev_ppm / 1_000_000), ppm))
        self._table, self._i = table, 0
        self._seg = self._prev = table[0]
        self._seg_end = table[1][0]

    def _advance(self, true_time_ns: int, local_ns: int = 0):
        """Move the cursor forward to the segment holding true_time_ns or,
        if it starts later, to the first segment that starts at or after
        local_ns on the local clock; a walk draws the segments it passes."""
        if true_time_ns > REF_NS_MAX:
            raise ParamError(_RANGE_ERROR)
        rng = self._rng
        if rng is None:
            table, i = self._table, self._i
            last = len(table) - 1
            while i < last and (table[i + 1][0] <= true_time_ns or table[i][1] < local_ns):
                i += 1
            # a caller moves the cursor off the first row, so i > 0 here
            self._i, self._prev, self._seg = i, table[i - 1], table[i]
            self._seg_end = table[min(i + 1, last)][0]
            return
        step, std = self._step_ns, self.model.step_std_ppm
        seg, prev = self._seg, self._prev
        start, local_start, ppm = seg
        boundary = start + step
        # segments start at multiples of step, so each one lasts step; on
        # the local clock the last one drawn lasts this, never 0 ns
        advance = step + round(step * ppm / 1_000_000)
        uniform, z_next = rng.random, rng.gauss_next
        error = None
        while boundary <= true_time_ns or local_start < local_ns:
            local_start += advance
            # each step is rng.gauss(0.0, std), drawn inline: the same
            # Box-Muller pair from two uniform draws, the same arithmetic,
            # and the pair's second value pending in rng.gauss_next
            if z_next is None:
                x2pi = uniform() * tau
                g2rad = sqrt(-2.0 * log(1.0 - uniform()))
                ppm += 0.0 + cos(x2pi) * g2rad * std
                z_next = sin(x2pi) * g2rad
            else:
                ppm += 0.0 + z_next * std
                z_next = None
            # a segment must advance local time, or the inverse never passes it
            if not abs(ppm) < _PPM_LIMIT or (advance := step + round(step * ppm / 1_000_000)) <= 0:
                error = "random walk left the valid ppm range"
                break
            # only the inverse draws this far: a slow clock can need
            # reference times far past the local time it was asked for
            if boundary > REF_NS_MAX:
                error = _RANGE_ERROR
                break
            prev, seg = seg, (boundary, local_start, ppm)
            boundary += step
        # a failed draw leaves the cursor on the last segment drawn, and
        # the next query draws on from there
        rng.gauss_next = z_next
        self._prev, self._seg = prev, seg
        self._seg_end = min(boundary, REF_NS_MAX + 1)
        if error:
            raise ParamError(error)

    def local_time(self, true_time_ns: int) -> int:
        if true_time_ns < self._last_query_ns:
            if true_time_ns < 0:
                raise UsageError("reference time precedes the common origin")
            raise UsageError(
                f"non-monotone clock query: {true_time_ns} after {self._last_query_ns}"
            )
        self._last_query_ns = true_time_ns
        if true_time_ns >= self._seg_end:
            self._advance(true_time_ns)
        start, local_start, ppm = self._seg
        if true_time_ns < start:  # the inverse moved the cursor past it
            start, local_start, ppm = self._prev
            if true_time_ns < start:
                return SimClock(self.model).local_time(true_time_ns)
        dt = true_time_ns - start
        return local_start + dt + round(dt * ppm / 1_000_000)

    def true_time_at_local(self, local_ns: int) -> int:
        """Earliest reference time whose local reading is >= local_ns.

        This is how a scheduler turns "wake me when my clock reads L" into
        a reference-time event.
        """
        if local_ns <= 0:
            return 0
        if self._seg[1] < local_ns:
            self._advance(-1, local_ns)
        # the cursor's segment starts at or after local_ns on the local
        # clock (or is a table's last row), so the answer lies in the
        # segment before it, at the latest at the cursor's start
        start, local_start, ppm = self._prev
        if local_start >= local_ns:
            return SimClock(self.model).true_time_at_local(local_ns)
        # the earliest offset d into that segment that reads local_ns or more
        target = local_ns - local_start
        d = int(target / (1.0 + ppm / 1_000_000))
        while d + round(d * ppm / 1_000_000) < target:
            d += 1
        while d > 0 and (d - 1) + round((d - 1) * ppm / 1_000_000) >= target:
            d -= 1
        t = start + d
        # the last segment of a model that is not a walk never ends
        if t > REF_NS_MAX:
            raise ParamError(_RANGE_ERROR)
        return t


def preset(name: str, seed: int | None = None) -> ClockModel:
    """Named clock archetypes measured on common dev boards.

    "feather-like": wobbly crystal, random walk around +30 ppm.
    "ttgo-like": stable TCXO-grade part, constant +2 ppm.
    """
    if name == "ideal":
        return Ideal()
    if name == "feather-like":
        return RandomWalk(step_interval_s=60.0, step_std_ppm=4.0, initial_ppm=30.0, seed=seed)
    if name == "ttgo-like":
        return ConstantPpm(2.0)
    raise ParamError(f"unknown clock preset {name!r}")
