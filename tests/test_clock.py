"""Oscillator models: sign convention, exactness, composition, inverse."""

import random
import tracemalloc
from math import inf

import pytest

from lorasync import (
    ParamError,
    Piecewise,
    RandomWalk,
    SimClock,
    UsageError,
    preset,
)
from lorasync.clock import REF_NS_MAX, _forward
from lorasync.units import NS_PER_MS, NS_PER_S
from reference_clock import ReferenceClock


def test_ideal_clock_is_identity():
    c = SimClock(preset("ideal"))
    for t in (0, 1, 999, 10**12, 10**15):
        assert c.local_time(t) == t
        assert t - c.local_time(t) == 0


def test_fast_clock_has_negative_drift():
    # +33 ppm over 90 minutes: local is ahead by 178.2 ms, so
    # reference - local = -178.2 ms
    c = SimClock(Piecewise(((0.0, 33.0),)))
    t = 5400 * NS_PER_S
    assert t - c.local_time(t) == -round(178.2 * NS_PER_MS)
    assert c.local_time(t) == t + round(178.2 * NS_PER_MS)


def test_slow_clock_has_positive_drift():
    c = SimClock(Piecewise(((0.0, -20.0),)))
    t = 500 * NS_PER_S
    assert t - c.local_time(t) == 10 * NS_PER_MS


def test_integer_ppm_is_exact_linear():
    # with integer ppm and t a multiple of 1e6 ns the offset is exact
    c = SimClock(Piecewise(((0.0, 7.0),)))
    for k in range(1, 50):
        t = k * 10**6
        assert c.local_time(t) == t + 7 * k


def test_offsets_compose_across_queries():
    # many small queries must land where one big query lands
    model = Piecewise(((0.0, 12.7),))
    stepper = SimClock(model)
    jumper = SimClock(model)
    t = 0
    rng = random.Random(5)
    for _ in range(300):
        t += rng.randrange(1, 10**9)
        stepper.local_time(t)
    assert stepper.local_time(t) == jumper.local_time(t)


def test_piecewise_model():
    # +50 ppm for 100 s, then -50 ppm: offsets cancel at 200 s
    c = SimClock(Piecewise(((0.0, 50.0), (100.0, -50.0))))
    t = 100 * NS_PER_S
    assert t - c.local_time(t) == -5 * NS_PER_MS
    t = 200 * NS_PER_S
    assert t - c.local_time(t) == 0


def test_piecewise_validation():
    with pytest.raises(ParamError):
        Piecewise(())
    with pytest.raises(ParamError):
        Piecewise(((1.0, 10.0),))  # must start at 0
    with pytest.raises(ParamError):
        Piecewise(((0.0, 10.0), (5.0, 20.0), (5.0, 30.0)))  # not increasing


def test_random_walk_needs_seed_to_run():
    model = RandomWalk(step_interval_s=60.0, step_std_ppm=4.0, initial_ppm=30.0)
    with pytest.raises(ParamError):
        SimClock(model)


def test_random_walk_reproducible():
    model = RandomWalk(step_interval_s=60.0, step_std_ppm=4.0, initial_ppm=30.0, seed=9)
    a = SimClock(model)
    b = SimClock(model)
    for k in range(1, 200):
        t = k * 37 * NS_PER_S
        assert a.local_time(t) == b.local_time(t)


def test_random_walk_composition_across_boundaries():
    # query pattern must not change where the clock ends up
    model = RandomWalk(step_interval_s=10.0, step_std_ppm=8.0, initial_ppm=0.0, seed=3)
    stepper = SimClock(model)
    jumper = SimClock(model)
    t = 0
    rng = random.Random(11)
    for _ in range(500):
        t += rng.randrange(1, 7 * NS_PER_S)
        stepper.local_time(t)
    assert stepper.local_time(t) == jumper.local_time(t)


def test_random_walk_steps_are_gauss_draws():
    # the walk draws rng.gauss(0.0, std) inline; its steps must stay those
    # draws bit for bit when a query splits a Box-Muller pair.  A step that
    # leaves the ppm range ends the walk: every later query that needs it
    # raises, as a fresh clock does, and what lies before it still answers
    step_ns, std, seed = 60 * NS_PER_S, 150_000.0, 11
    model = RandomWalk(step_interval_s=60.0, step_std_ppm=std, initial_ppm=0.0, seed=seed)
    c = SimClock(model)
    ref = random.Random(seed)
    ppms = [0.0]
    jumps = random.Random(2)
    t = queries = 0
    while True:
        t += jumps.randrange(1, 4) * step_ns
        # the steps rng.gauss gives, up to the first out-of-range one
        while len(ppms) * step_ns <= t:
            ppm = ppms[-1] + ref.gauss(0.0, std)
            if not abs(ppm) < 1_000_000:
                break
            ppms.append(ppm)
        else:
            drawn = Piecewise(tuple((k * 60.0, ppm) for k, ppm in enumerate(ppms)))
            assert c.local_time(t) == SimClock(drawn).local_time(t)
            queries += 1
            continue
        break
    assert queries > 10  # several queries split a pair before the walk fails
    failed_ns = len(ppms) * step_ns
    beyond = ReferenceClock(drawn).local_time(failed_ns) + 1
    for query, arg in ((SimClock.local_time, t), (SimClock.local_time, t + 1),
                       (SimClock.true_time_at_local, beyond)):
        with pytest.raises(ParamError, match="ppm range"):
            query(c, arg)
        with pytest.raises(ParamError, match="ppm range"):
            query(SimClock(model), arg)
    for local in (beyond - 1, beyond - step_ns // 2):
        assert c.true_time_at_local(local) == SimClock(drawn).true_time_at_local(local)


def test_random_walk_answers_an_inverse_before_the_step_that_fails():
    # the second step leaves the valid ppm range; the inverse answers a
    # local time inside the first step without drawing the second
    model = RandomWalk(step_interval_s=1.0, step_std_ppm=600_000.0, initial_ppm=0.0, seed=1)
    ref = ReferenceClock(model)
    first_end = ref.local_time(2 * NS_PER_S)  # where the second step would start
    for local in (NS_PER_S + 1, (NS_PER_S + first_end) // 2, first_end):
        t = SimClock(model).true_time_at_local(local)
        assert ref.local_time(t) >= local > ref.local_time(t - 1)
    with pytest.raises(ParamError, match="ppm range"):
        SimClock(model).true_time_at_local(first_end + 1)


def test_monotone_query_enforced():
    # local_time answers any time from the start of its cursor's segment
    # on, behind an earlier reading too; before that start it raises
    model = Piecewise(((0.0, 10.0), (1.0, -20.0)))
    c = SimClock(model)
    ref = ReferenceClock(model)
    c.local_time(NS_PER_S // 2)
    assert c.local_time(NS_PER_S // 4) == ref.local_time(NS_PER_S // 4)
    with pytest.raises(UsageError):
        c.local_time(-1)
    c.local_time(2 * NS_PER_S)
    assert c.local_time(NS_PER_S) == ref.local_time(NS_PER_S)
    with pytest.raises(UsageError):
        c.local_time(NS_PER_S - 1)


def test_peek_does_not_move_cursor():
    # looking ahead through the inverse moves the cursor no further than
    # its answer's segment: forward queries from the start of that segment
    # read exactly, and only those behind it raise
    for model in (Piecewise(((0.0, 10.0),)), Piecewise(((0.0, 10.0), (2000.0, -5.0))),
                  RandomWalk(10.0, 3.0, 10.0, seed=2)):
        c = SimClock(model)
        ref = ReferenceClock(model)
        t = c.true_time_at_local(10**12)
        start = ref.starts[ref.segment_at(t)]
        assert c.local_time(start) == ref.local_time(start)
        assert c.local_time(t) == ref.local_time(t)
        if start > 0:
            with pytest.raises(UsageError):
                c.local_time(start - 1)
        else:
            assert c.local_time(0) == 0  # the peek held back nothing


def test_true_time_at_local_inverse_property():
    # the inverse answers ascending local times exactly, as sim.run asks them
    rng = random.Random(99)
    models = [
        preset("ideal"),
        Piecewise(((0.0, 33.0),)),
        Piecewise(((0.0, -87.5),)),
        RandomWalk(step_interval_s=5.0, step_std_ppm=12.0, initial_ppm=-40.0, seed=4),
        Piecewise(((0.0, 100.0), (50.0, -200.0), (120.0, 0.5))),
    ]
    for model in models:
        c = SimClock(model)
        ref = ReferenceClock(model)
        for local in sorted(rng.randrange(0, 300 * NS_PER_S) for _ in range(400)):
            t = c.true_time_at_local(local)
            # earliest reference time whose local reading reaches the target
            assert ref.local_time(t) >= local
            if t > 0:
                assert ref.local_time(t - 1) < local


@pytest.mark.parametrize("ppm", [-500000.0, -30.0, 0.5, 30.0, 500000.0, 999999.0])
def test_inverse_is_exact_on_every_target_of_a_constant_rate(ppm):
    # consecutive local targets across the plateaus of slow clocks (two
    # offsets with one reading), the skips of fast ones (a reading no
    # offset has) and, far out, float guesses that miss by several ns
    # either way; at -500000 ppm the map falls back from about 5 * 10**15 ns on
    sweeps = [range(1, 2000), range(16_000, 18_000), range(999_000, 1_001_000),
              range(10**15, 10**15 + 2000)]
    if ppm > -500000:
        sweeps.append(range(4 * 10**18, 4 * 10**18 + 2000))
    c = SimClock(Piecewise(((0.0, ppm),)))
    for sweep in sweeps:
        for target in sweep:
            # one segment from 0: the answer is the offset into it
            d = c.true_time_at_local(target)
            assert _forward(d, ppm) >= target > _forward(d - 1, ppm), (target, d)


def test_inverse_behind_the_window_raises():
    # a clock keeps only the segment of its cursor and the one before it;
    # it answers an inverse there, and raises for one behind them, which
    # a fresh clock answers
    model = RandomWalk(step_interval_s=1.0, step_std_ppm=5.0, initial_ppm=-30.0, seed=8)
    c = SimClock(model)
    ref = ReferenceClock(model)
    c.local_time(3600 * NS_PER_S)  # the cursor's segment starts at 3600 s
    prev_start = ref.local_time(3599 * NS_PER_S)
    for local in (1, NS_PER_S, 1800 * NS_PER_S + 7, prev_start):
        with pytest.raises(UsageError):
            c.true_time_at_local(local)
        t = SimClock(model).true_time_at_local(local)
        assert ref.local_time(t) >= local > ref.local_time(t - 1)
    for local in (prev_start + 1, ref.local_time(3600 * NS_PER_S) + 1):
        t = c.true_time_at_local(local)
        assert ref.local_time(t) >= local > ref.local_time(t - 1)
    assert c.local_time(3600 * NS_PER_S) == ref.local_time(3600 * NS_PER_S)


def _walker_peak(step_s):
    """The tracemalloc peak of one walker queried as sim.run queries it
    over five 600 s periods: the inverse, then the uplink and ACK ends."""
    c = SimClock(RandomWalk(step_interval_s=step_s, step_std_ppm=0.02, initial_ppm=10.0, seed=4))
    tracemalloc.start()
    try:
        for k in range(1, 6):
            t = c.true_time_at_local(k * 600 * NS_PER_S)
            c.local_time(t + 306 * NS_PER_MS)
            c.local_time(t + 1397 * NS_PER_MS)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_clock_memory_does_not_grow_with_steps_per_period():
    # the inverse draws a period's worth of segments, 6000 of them at
    # 0.1 s steps, and the clock keeps two
    _walker_peak(10.0)  # anything set up once per process is in place before measuring
    coarse, fine = _walker_peak(10.0), _walker_peak(0.1)
    assert fine <= coarse + 1024, (coarse, fine)


def test_random_walk_beyond_the_queried_horizon_is_not_drawn():
    # the second step leaves the valid ppm range, but answering a local
    # time at the end of the first step never needs it
    c = SimClock(RandomWalk(step_interval_s=1.0, step_std_ppm=600_000.0, initial_ppm=0.0, seed=1))
    assert c.true_time_at_local(NS_PER_S) == NS_PER_S
    assert c.true_time_at_local(NS_PER_S // 2) == NS_PER_S // 2
    with pytest.raises(ParamError):
        c.local_time(2 * NS_PER_S)


def test_times_past_the_int64_range_raise_param_error():
    # the fastest clock still reads below 2**63 at the last valid instant
    c = SimClock(Piecewise(((0.0, 999_999.0),)))
    top = c.local_time(REF_NS_MAX)
    assert top < 2**63
    with pytest.raises(ParamError):
        c.local_time(REF_NS_MAX + 1)
    # nor may the inverse answer past it, for any model
    assert c.true_time_at_local(top) <= REF_NS_MAX
    with pytest.raises(ParamError):
        c.true_time_at_local(top + 1)
    with pytest.raises(ParamError):
        SimClock(Piecewise(((0.0, -999_999.0),))).true_time_at_local(10**15)
    half_rate_tail = Piecewise(((0.0, 0.0), (1.0, -500_000.0)))
    tail_top = ReferenceClock(half_rate_tail).local_time(REF_NS_MAX)
    assert SimClock(half_rate_tail).true_time_at_local(tail_top) <= REF_NS_MAX
    with pytest.raises(ParamError):
        SimClock(half_rate_tail).true_time_at_local(tail_top + 1)
    with pytest.raises(ParamError):
        SimClock(half_rate_tail).true_time_at_local(REF_NS_MAX)
    # a half-rate walk with 4e18 ns steps: its second segment starts at
    # 4e18 ns and ends past the limit, so a local time beyond 2e18 ns is
    # answered in it, up to the local times it reaches by REF_NS_MAX.
    # That far into a half-rate segment the float forward map saws by
    # 64 ns, so the first local time past them all is the first to raise
    half_rate_walk = RandomWalk(step_interval_s=4e9, step_std_ppm=0.0,
                                initial_ppm=-500_000.0, seed=1)
    walk = SimClock(half_rate_walk)
    assert walk.local_time(REF_NS_MAX) > 0
    assert walk.true_time_at_local(2 * 10**18) == 4 * 10**18
    assert walk.true_time_at_local(2 * 10**18 + 1) == 4 * 10**18 + 1
    walk_ref = ReferenceClock(half_rate_walk)
    assert walk.true_time_at_local(walk_ref.local_time(REF_NS_MAX)) <= REF_NS_MAX
    walk_top = max(walk_ref.local_time(t) for t in range(REF_NS_MAX - 1023, REF_NS_MAX + 1))
    with pytest.raises(ParamError, match="int64"):
        walk.true_time_at_local(walk_top + 1)
    with pytest.raises(ParamError):
        Piecewise(((0.0, 5.0), (1e10, 3.0)))
    with pytest.raises(ParamError):
        RandomWalk(step_interval_s=5e9, step_std_ppm=0.0, initial_ppm=0.0)
    with pytest.raises(ParamError):
        RandomWalk(step_interval_s=float("nan"), step_std_ppm=0.0, initial_ppm=0.0)


@pytest.mark.xfail(
    strict=True, raises=ParamError,
    reason="ROADMAP item 3: the float forward map is not monotone this far into a "
           "half-rate segment, so the inverse raises for a local time read before "
           "REF_NS_MAX; the exact integer map must make this pass",
)
def test_the_inverse_answers_every_local_time_read_by_the_int64_limit():
    # readings in the 1024 ns before REF_NS_MAX climb 64 ns past the one
    # at REF_NS_MAX, and the inverse raises from 33 ns past it on
    walk = RandomWalk(step_interval_s=4e9, step_std_ppm=0.0, initial_ppm=-500_000.0, seed=1)
    clock = SimClock(walk)
    readings = sorted({clock.local_time(t) for t in range(REF_NS_MAX - 1023, REF_NS_MAX + 1)})
    inverse = SimClock(walk)
    for local in readings:
        assert inverse.true_time_at_local(local) <= REF_NS_MAX


def test_every_segment_advances_local_time():
    # a segment that adds 0 ns of local time would let the inverse draw
    # walk steps without end: 1 + round(-0.6) = 0 for 1 ns at -600000 ppm
    with pytest.raises(ParamError, match="advance local time"):
        RandomWalk(step_interval_s=1e-9, step_std_ppm=0.0, initial_ppm=-600_000.0)
    with pytest.raises(ParamError, match="advance local time"):
        RandomWalk(step_interval_s=4e-10, step_std_ppm=1.0, initial_ppm=0.0)  # rounds to 0 ns
    assert SimClock(RandomWalk(1e-9, 0.0, -400_000.0, seed=1)).true_time_at_local(5) == 5
    with pytest.raises(ParamError, match="at 0.0 s must advance local time"):
        Piecewise(((0.0, -600_000.0), (1e-9, 0.0)))
    with pytest.raises(ParamError, match="at 1.0 s must advance local time"):
        Piecewise(((0.0, 0.0), (1.0, 5.0), (1.0 + 1e-10, 3.0)))  # both start at 1 s in ns
    assert SimClock(Piecewise(((0.0, -400_000.0), (1e-9, 0.0)))).true_time_at_local(5) == 5
    # a walk drawn into such a segment raises where it would draw it; at
    # this seed the first step lands at -616884 ppm
    walk = RandomWalk(step_interval_s=1e-9, step_std_ppm=100_000.0,
                      initial_ppm=-499_000.0, seed=5)
    assert 1 + round((walk.initial_ppm + random.Random(5).gauss(0.0, 100_000.0)) / 1e6) == 0
    with pytest.raises(ParamError):
        SimClock(walk).true_time_at_local(2)
    with pytest.raises(ParamError):
        SimClock(walk).local_time(1)


def test_true_time_at_local_ideal_is_identity():
    c = SimClock(preset("ideal"))
    for local in (0, 1, 12345, 10**14):
        assert c.true_time_at_local(local) == local


def test_presets():
    # a constant rate is a one-segment Piecewise, equal to any other built so
    assert preset("ideal") == Piecewise(((0.0, 0.0),))
    assert preset("ttgo-like") == Piecewise(((0.0, 2.0),))
    assert preset("ideal").table == ((0, REF_NS_MAX + 1, 0, inf, 0.0),)
    fl = preset("feather-like", seed=42)
    assert isinstance(fl, RandomWalk)
    assert fl.seed == 42
    assert fl.initial_ppm == 30.0
    with pytest.raises(ParamError):
        preset("cesium-fountain")


@pytest.mark.parametrize("name", ["ideal", "ttgo-like"])
def test_a_preset_that_draws_nothing_rejects_a_seed(name):
    # a seed it would ignore would make two differently seeded runs look distinct
    with pytest.raises(ParamError, match="takes no seed"):
        preset(name, seed=5)
