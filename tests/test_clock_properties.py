"""Hypothesis properties of the clock and its query rule."""

from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorasync import ParamError, Piecewise, RandomWalk, SimClock, UsageError
from lorasync.clock import REF_NS_MAX
from lorasync.units import NS_PER_S
from reference_clock import ReferenceClock

_PPM = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)
# segment boundaries within the first hour, at whole seconds and at
# millisecond and nanosecond resolution
_BOUNDARY_S = st.one_of(
    st.integers(min_value=1, max_value=3_600).map(float),
    st.integers(min_value=1, max_value=3_600_000).map(lambda ms: ms / 1_000),
    st.integers(min_value=1, max_value=3_600 * NS_PER_S).map(lambda ns: ns / NS_PER_S),
)
_PIECEWISE = st.lists(_PPM, min_size=1, max_size=6).flatmap(
    lambda ppms: st.lists(
        _BOUNDARY_S, min_size=len(ppms) - 1, max_size=len(ppms) - 1, unique=True
    ).map(lambda ts: Piecewise(tuple(zip([0.0] + sorted(ts), ppms))))
)
_CLOCK_MODELS = st.one_of(
    # a constant rate is a one-segment Piecewise
    _PPM.map(lambda ppm: Piecewise(((0.0, ppm),))),
    st.builds(
        RandomWalk,
        step_interval_s=st.sampled_from([1.0, 7.5, 60.0]),
        step_std_ppm=st.floats(min_value=0.0, max_value=50.0),
        initial_ppm=_PPM,
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    ),
    _PIECEWISE,
)


@settings(max_examples=100, deadline=None)
@given(model=_PIECEWISE)
def test_a_piecewise_table_matches_the_reference(model):
    # the table is built once from the segments' seconds; the reference
    # converts them to nanoseconds and accumulates local starts on its own
    ref = ReferenceClock(model)
    starts, ends, local_starts, local_ends, ppms = zip(*model.table)
    assert list(starts) == ref.starts and list(ends) == ref.starts[1:] + [REF_NS_MAX + 1]
    assert list(local_starts) == ref.local_starts
    assert list(local_ends) == ref.local_starts[1:] + [inf]
    assert list(ppms) == ref.ppms


@settings(max_examples=100, deadline=None)
@given(ppm=st.floats(min_value=-999_999.0, max_value=999_999.0), first_ns=st.integers(1, 4))
@example(ppm=-600_000.0, first_ns=1)  # 1 + round(-0.6) = 0
@example(ppm=-500_000.0, first_ns=1)  # 1 + round(-0.5) = 1
def test_a_piecewise_clock_is_built_only_if_each_segment_advances(ppm, first_ns):
    # a first segment of a few nanoseconds at any valid rate: it is
    # rejected exactly when it would add no local time
    segments = ((0.0, ppm), (first_ns / NS_PER_S, 0.0))
    if first_ns + round(first_ns * ppm / 1_000_000) > 0:
        assert Piecewise(segments).table[0][3] > 0
    else:
        with pytest.raises(ParamError, match="must advance local time"):
            Piecewise(segments)


class _Rule:
    """The query rule, read off the reference: the segment a SimClock's
    cursor holds after each query, and whether the rule answers it."""

    def __init__(self, ref):
        self.ref = ref
        self.cursor = 0

    def local_time(self, true_time_ns):
        # answered from the start of the cursor's segment on
        seg = self.ref.segment_at(true_time_ns)
        self.cursor = max(self.cursor, seg)
        return seg == self.cursor

    def true_time_at_local(self, local_ns):
        # answered in the cursor's segment or the one before it
        if local_ns <= 0:
            return True
        self.cursor = max(self.cursor, self.ref.segment_reaching(local_ns))
        return self.cursor == 0 or self.ref.local_starts[self.cursor - 1] < local_ns


def _check(c, rule, method, arg):
    """The clock's answer to one query: the reference's if the rule
    answers it, else UsageError.  Returns whether it answered."""
    answered = getattr(rule, method)(arg)
    if answered:
        assert getattr(c, method)(arg) == getattr(rule.ref, method)(arg)
    else:
        with pytest.raises(UsageError):
            getattr(c, method)(arg)
    return answered


@settings(max_examples=60, deadline=None)
@given(
    model=_CLOCK_MODELS,
    queries=st.lists(st.integers(min_value=0, max_value=2 * 3600 * NS_PER_S), max_size=40),
    order=st.randoms(use_true_random=False),
)
def test_true_time_at_local_is_exact_inverse_in_any_query_order(model, queries, order):
    # ascending first, then a shuffled copy: queries land both ahead of
    # and behind the segments materialized so far.  In any order the
    # inverse answers exactly or raises, as the rule says, and a fresh
    # clock answers every query
    queries = sorted(queries) + order.sample(queries, len(queries))
    c = SimClock(model)
    rule = _Rule(ReferenceClock(model))
    for local in queries:
        _check(c, rule, "true_time_at_local", local)
        assert SimClock(model).true_time_at_local(local) == rule.ref.true_time_at_local(local)


def _next_start(model, t):
    """First rate-segment start at or after t, or None past the last one."""
    if isinstance(model, RandomWalk):
        step = round(model.step_interval_s * NS_PER_S)
        return -(-t // step) * step
    return next((s for s in (round(ts * NS_PER_S) for ts, _ in model.segments) if s >= t), None)


_FORWARD = st.tuples(
    st.sampled_from(["step", "segment start", "inverse"]),
    st.one_of(st.just(0), st.integers(0, 10**9), st.integers(0, 900 * NS_PER_S)),
    st.sampled_from([-1, 0, 1]),
)

# a half-rate clock with 2 ns segments reads the same local time at the
# last nanosecond of each segment as at the start of the next one
_HALF_RATE_2NS = RandomWalk(step_interval_s=2e-9, step_std_ppm=0.0,
                            initial_ppm=-500_000.0, seed=0)


def _check_ops(model, ops, sim_order):
    """Run ops on a SimClock and check every answer against the reference.

    An inverse asks for the last reading plus x.  In the simulator's
    order it asks for no less than its last target either, forward
    queries after it start at its answer, and the rule answers every
    query."""
    c = SimClock(model)
    rule = _Rule(ReferenceClock(model))
    t = reading = target = 0
    for kind, x, nudge in ops:
        if kind == "inverse":
            local = (max(reading, target) if sim_order else reading) + x
            answered = _check(c, rule, "true_time_at_local", local)
            if sim_order:
                t, target = max(t, rule.ref.true_time_at_local(local)), local
        else:
            if kind == "segment start":
                start = _next_start(model, t + x)
                if start is None:
                    continue
                t = max(t, start + nudge)
            else:
                t += x
            answered = _check(c, rule, "local_time", t)
            reading = rule.ref.local_time(t)
        assert answered or not sim_order


@settings(max_examples=100, deadline=None)
@given(model=_CLOCK_MODELS, ops=st.lists(_FORWARD, min_size=10, max_size=40))
@example(model=_HALF_RATE_2NS, ops=[("segment start", 70, 0), ("inverse", 0, 0)])
# the inverse moves the cursor into the segment from 1 s on; the reading
# at 0.5 s + 1 ns then lies in the segment before it, and raises
@example(model=Piecewise(((0.0, 10.0), (1.0, -20.0))),
         ops=[("step", NS_PER_S // 2, 0), ("inverse", NS_PER_S, 0), ("step", 1, 0)])
def test_forward_cursor_matches_bisection(model, ops):
    # local_time walks a cursor forward and keeps two segments; the
    # reference bisects every segment from t=0.  Exact segment starts (and
    # the nanoseconds around them), jumps past everything a random walk
    # has drawn so far, and inverse calls that draw ahead must not tell
    # them apart.  In this order a forward query may fall behind an
    # inverse answer far ahead, and the clock then raises as the rule says
    _check_ops(model, ops, sim_order=False)


@settings(max_examples=100, deadline=None)
@given(model=_CLOCK_MODELS, ops=st.lists(_FORWARD, min_size=10, max_size=40))
# local_time(70) moves the cursor into segment 35; the inverse at its
# local start (35) answers 69, in segment 34, the one before the cursor's
@example(model=_HALF_RATE_2NS, ops=[("segment start", 70, 0), ("inverse", 0, 0)])
def test_simulator_query_order_is_always_answered(model, ops):
    # sim.run asks each inverse for a local time no earlier than the last
    # reading or target, and reads the clock forward from its answer: the
    # cursor's segment and the one before it answer all of that
    _check_ops(model, ops, sim_order=True)
