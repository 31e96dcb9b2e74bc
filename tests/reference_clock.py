"""A reference clock for tests, built apart from SimClock.

It keeps every rate segment from t=0 and finds a reference time's
segment by bisection, and the inverse by bisection over reference time.  Random-walk steps are
random.Random(seed).gauss(0.0, std), drawn as far as a query needs;
Piecewise segments come straight from the model's (time, ppm) pairs,
converted to nanoseconds here.
"""

import random
from bisect import bisect_left, bisect_right

from lorasync import Piecewise, RandomWalk
from lorasync.units import NS_PER_S


class ReferenceClock:
    def __init__(self, model):
        self.starts = [0]
        self.local_starts = [0]
        self._rng = None
        if isinstance(model, RandomWalk):
            self.ppms = [model.initial_ppm]
            self._rng = random.Random(model.seed)
            self._step = round(model.step_interval_s * NS_PER_S)
            self._std = model.step_std_ppm
        else:
            assert isinstance(model, Piecewise)
            self.ppms = [model.segments[0][1]]
            for t, ppm in model.segments[1:]:
                self._append(round(t * NS_PER_S), ppm)

    def _append(self, start, ppm):
        dt = start - self.starts[-1]
        self.local_starts.append(
            self.local_starts[-1] + dt + round(dt * self.ppms[-1] / 1_000_000)
        )
        self.starts.append(start)
        self.ppms.append(ppm)

    def local_time(self, true_time_ns):
        """Local reading at true_time_ns, in any query order."""
        assert true_time_ns >= 0
        while self._rng is not None and self.starts[-1] + self._step <= true_time_ns:
            self._append(self.starts[-1] + self._step,
                         self.ppms[-1] + self._rng.gauss(0.0, self._std))
        i = bisect_right(self.starts, true_time_ns) - 1
        dt = true_time_ns - self.starts[i]
        return self.local_starts[i] + dt + round(dt * self.ppms[i] / 1_000_000)

    def true_time_at_local(self, local_ns):
        """Earliest reference time whose local reading is >= local_ns."""
        lo, hi = 0, 1
        while self.local_time(hi) < local_ns:
            lo, hi = hi, 2 * hi
        while lo < hi:
            mid = (lo + hi) // 2
            if self.local_time(mid) < local_ns:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def segment_at(self, true_time_ns):
        """Index of the segment that holds true_time_ns."""
        self.local_time(true_time_ns)  # draws a walk that far
        return bisect_right(self.starts, true_time_ns) - 1

    def segment_reaching(self, local_ns):
        """Index of the first segment whose local end reaches local_ns > 0."""
        self.true_time_at_local(local_ns)  # draws a walk that far
        return bisect_left(self.local_starts, local_ns, 1) - 1
