"""Drifting-oscillator models: reference time vs device-local time.

A device whose oscillator runs at f0 + df sees its local clock advance by
(1 + ppm*1e-6) per reference second.  Drift is reported with the sign of
(reference - local): a fast device is ahead, so its drift is negative.

Offsets accumulate per rate segment and are rounded once over the full
interval since the segment start, so querying a clock in many small steps
or one big step yields bit-identical local times (the simulator depends
on that).

Each segment is held as its start on both clocks, so the offset at a
segment start is their difference.  A clock keeps a window of segments
in plain lists: its forward cursor's, the one before it (on a slow clock
rounding can repeat a local reading across a segment start, and the
inverse then answers in the earlier segment), and any drawn ahead.
local_time() reads plain attributes inside the cursor's segment, searches
the window from the cursor past its end, and drops what falls behind the
window in batches: O(1) segments a clock, not its history.  The inverse
bisects the window; a query behind it replays the clock from its model,
which draws the same segments.

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
from bisect import bisect_left, bisect_right
from math import cos, isfinite, log, sin, sqrt, tau

from ._record import Frozen
from .errors import ParamError, UsageError
from .units import NS_PER_S

# |ppm| must stay below this for local time to keep moving forward
_PPM_LIMIT = 1_000_000

# latest reference instant whose local reading still fits in int64
REF_NS_MAX = (2**63 - 1) // 2
_RANGE_ERROR = f"clock time past {REF_NS_MAX} ns leaves the int64 nanosecond range"

# segments a clock lets pile up behind its window before dropping them
_BEHIND_MAX = 8


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
        # the window of rate segments; grown lazily for random walks.  Each
        # offset is round(dt * ppm / 1e6) over the whole interval dt since
        # its segment start: one rounding per (segment start, query) pair,
        # so step patterns telescope exactly within a segment
        self._starts = [0]  # segment start, reference ns
        self._local_starts = [0]  # the same instant on the local clock, ns
        self._next_boundary = None
        if isinstance(model, Ideal):
            self._ppms = [0.0]
        elif isinstance(model, ConstantPpm):
            self._ppms = [model.offset_ppm]
        elif isinstance(model, RandomWalk):
            self._ppms = [model.initial_ppm]
            self._rng = random.Random(model.seed)
            self._step_ns = self._next_boundary = round(model.step_interval_s * NS_PER_S)
        else:  # Piecewise
            self._ppms = [model.segments[0][1]]
            for t1, ppm in model.segments[1:]:
                start = round(t1 * NS_PER_S)
                dt = start - self._starts[-1]
                self._local_starts.append(
                    self._local_starts[-1] + dt + round(dt * self._ppms[-1] / 1_000_000)
                )
                self._starts.append(start)
                self._ppms.append(ppm)
        self._cursor = 0  # index in the window of the forward cursor's segment
        self._seek(0)

    def _grow(self, true_time_ns: int, local_ns: int = 0):
        """Draw random-walk segments until all that start at or before
        true_time_ns exist and the last starts at or after local_ns on the
        local clock."""
        boundary = self._next_boundary
        if boundary is None:
            return
        starts, local_starts, ppms = self._starts, self._local_starts, self._ppms
        local_start, ppm = local_starts[-1], ppms[-1]
        step, std = self._step_ns, self.model.step_std_ppm
        # segments start at multiples of step, so each one lasts step; on
        # the local clock the last one lasts this, never 0 ns
        advance = step + round(step * ppm / 1_000_000)
        rng = self._rng
        uniform, z_next = rng.random, rng.gauss_next
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
                self._next_boundary, rng.gauss_next = boundary, z_next
                raise ParamError("random walk left the valid ppm range")
            # only the inverse draws this far: a slow clock can need
            # reference times far past the local time it was asked for
            if boundary > REF_NS_MAX:
                self._next_boundary, rng.gauss_next = boundary, z_next
                raise ParamError(_RANGE_ERROR)
            starts.append(boundary)
            local_starts.append(local_start)
            ppms.append(ppm)
            boundary += step
        self._next_boundary, rng.gauss_next = boundary, z_next

    def _seek(self, true_time_ns: int):
        """Move the forward cursor to the segment holding true_time_ns,
        drawn if need be; true_time_ns is never behind the cursor."""
        if true_time_ns > REF_NS_MAX:
            raise ParamError(_RANGE_ERROR)
        if self._next_boundary is not None and true_time_ns >= self._next_boundary:
            self._grow(true_time_ns)
        starts = self._starts
        # the cursor never moves back, so the search starts at it
        i = bisect_right(starts, true_time_ns, self._cursor) - 1
        # drop what lies behind the segment before the cursor's, which the
        # inverse may still need, once enough has piled up
        if i > _BEHIND_MAX + 1:
            del starts[: i - 1], self._local_starts[: i - 1], self._ppms[: i - 1]
            i = 1
        self._cursor = i
        self._seg_start = starts[i]
        self._seg_local_start = self._local_starts[i]
        self._seg_ppm = self._ppms[i]
        # a query past REF_NS_MAX always seeks, and fails there
        if i + 1 < len(starts):
            self._seg_end = starts[i + 1]
        elif self._next_boundary is not None:
            self._seg_end = min(self._next_boundary, REF_NS_MAX + 1)
        else:
            self._seg_end = REF_NS_MAX + 1

    def local_time(self, true_time_ns: int) -> int:
        if true_time_ns < self._last_query_ns:
            if true_time_ns < 0:
                raise UsageError("reference time precedes the common origin")
            raise UsageError(
                f"non-monotone clock query: {true_time_ns} after {self._last_query_ns}"
            )
        self._last_query_ns = true_time_ns
        # queries never go back, so the cursor only ever moves forward
        if true_time_ns >= self._seg_end:
            self._seek(true_time_ns)
        dt = true_time_ns - self._seg_start
        return self._seg_local_start + dt + round(dt * self._seg_ppm / 1_000_000)

    def true_time_at_local(self, local_ns: int) -> int:
        """Earliest reference time whose local reading is >= local_ns.

        This is how a scheduler turns "wake me when my clock reads L" into
        a reference-time event.
        """
        if local_ns <= 0:
            return 0
        starts, local_starts, ppms = self._starts, self._local_starts, self._ppms
        # the answer lies in the last segment starting before local_ns on
        # the local clock, or at the start of the one after it: make sure
        # that one exists
        if self._next_boundary is not None and local_starts[-1] < local_ns:
            self._grow(-1, local_ns)
        i = bisect_left(local_starts, local_ns) - 1
        if i < 0:  # only a query behind the forward cursor reaches past the window
            return SimClock(self.model).true_time_at_local(local_ns)
        # the earliest offset d into segment i that reads local_ns or more;
        # segment i + 1 starts at such a reading, so d never passes its start
        ppm = ppms[i]
        target = local_ns - local_starts[i]
        d = int(target / (1.0 + ppm / 1_000_000))
        while d + round(d * ppm / 1_000_000) < target:
            d += 1
        while d > 0 and (d - 1) + round((d - 1) * ppm / 1_000_000) >= target:
            d -= 1
        t = starts[i] + d
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
