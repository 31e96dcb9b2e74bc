"""Hypothesis properties of the clock inverse."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorasync import ConstantPpm, Piecewise, RandomWalk, SimClock, clock
from lorasync.units import NS_PER_S
from reference_clock import ReferenceClock

_PPM = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)
_CLOCK_MODELS = st.one_of(
    st.builds(ConstantPpm, _PPM),
    st.builds(
        RandomWalk,
        step_interval_s=st.sampled_from([1.0, 7.5, 60.0]),
        step_std_ppm=st.floats(min_value=0.0, max_value=50.0),
        initial_ppm=_PPM,
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    ),
    st.lists(_PPM, min_size=1, max_size=6).flatmap(
        lambda ppms: st.lists(
            st.integers(min_value=1, max_value=3_600),
            min_size=len(ppms) - 1,
            max_size=len(ppms) - 1,
            unique=True,
        ).map(lambda ts: Piecewise(tuple(zip([0.0] + sorted(map(float, ts)), ppms))))
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    model=_CLOCK_MODELS,
    queries=st.lists(st.integers(min_value=0, max_value=2 * 3600 * NS_PER_S), max_size=40),
    order=st.randoms(use_true_random=False),
)
def test_true_time_at_local_is_exact_inverse_in_any_query_order(model, queries, order):
    # ascending first, then a shuffled copy: queries land both ahead of
    # and behind the segments materialized so far
    queries = sorted(queries) + order.sample(queries, len(queries))
    c = SimClock(model)
    ref = ReferenceClock(model)
    for local in queries:
        t = c.true_time_at_local(local)
        assert ref.local_time(t) >= local
        if t > 0:
            assert ref.local_time(t - 1) < local
        # the answer does not depend on the clock's query history
        assert SimClock(model).true_time_at_local(local) == t


def _next_start(model, t):
    """First rate-segment start at or after t, or None past the last one."""
    if isinstance(model, RandomWalk):
        step = round(model.step_interval_s * NS_PER_S)
        return -(-t // step) * step
    if isinstance(model, Piecewise):
        return next((s for s in (round(ts * NS_PER_S) for ts, _ in model.segments) if s >= t), None)
    return 0 if t == 0 else None


_FORWARD = st.tuples(
    st.sampled_from(["step", "segment start", "inverse"]),
    st.one_of(st.just(0), st.integers(0, 10**9), st.integers(0, 900 * NS_PER_S)),
    st.sampled_from([-1, 0, 1]),
)

# a half-rate clock with 2 ns segments reads the same local time at the
# last nanosecond of each segment as at the start of the next one
_HALF_RATE_2NS = RandomWalk(step_interval_s=2e-9, step_std_ppm=0.0,
                            initial_ppm=-500_000.0, seed=0)


def _no_replay(model):
    raise AssertionError("a query replayed the clock")


def _check_ops(model, ops, sim_order):
    """Run ops on a SimClock and check every answer against the reference.

    An inverse asks for the last reading plus x.  In the simulator's
    order it asks for no less than its last target either, and forward
    queries after it start at its answer."""
    c = SimClock(model)
    ref = ReferenceClock(model)
    t = reading = target = 0
    for kind, x, nudge in ops:
        if kind == "inverse":
            local = (max(reading, target) if sim_order else reading) + x
            answer = c.true_time_at_local(local)
            assert ref.local_time(answer) >= local
            if answer > 0:
                assert ref.local_time(answer - 1) < local
            if sim_order:
                t, target = max(t, answer), local
            continue
        if kind == "segment start":
            start = _next_start(model, t + x)
            if start is None:
                continue
            t = max(t, start + nudge)
        else:
            t += x
        reading = c.local_time(t)
        assert reading == ref.local_time(t)


@settings(max_examples=100, deadline=None)
@given(model=_CLOCK_MODELS, ops=st.lists(_FORWARD, min_size=10, max_size=40))
@example(model=_HALF_RATE_2NS, ops=[("segment start", 70, 0), ("inverse", 0, 0)])
def test_forward_cursor_matches_bisection(model, ops):
    # local_time walks a cursor forward and keeps two segments; the
    # reference bisects every segment from t=0.  Exact segment starts (and
    # the nanoseconds around them), jumps past everything a random walk
    # has drawn so far, and inverse calls that draw ahead must not tell
    # them apart.  In this order a forward query may fall behind an
    # inverse answer far ahead, and the clock then replays its model
    _check_ops(model, ops, sim_order=False)


@settings(max_examples=100, deadline=None)
@given(model=_CLOCK_MODELS, ops=st.lists(_FORWARD, min_size=10, max_size=40))
# local_time(70) moves the cursor into segment 35; the inverse at its
# local start (35) answers 69, in segment 34, the one before the cursor's
@example(model=_HALF_RATE_2NS, ops=[("segment start", 70, 0), ("inverse", 0, 0)])
def test_simulator_query_order_never_replays(model, ops):
    # sim.run asks each inverse for a local time no earlier than the last
    # reading or target, and reads the clock forward from its answer: the
    # cursor's segment and the one before it answer all of that
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clock, "SimClock", _no_replay)
        _check_ops(model, ops, sim_order=True)
