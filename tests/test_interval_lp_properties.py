"""Property tests for the interval LP's list-schedule start: on random
instances the list schedule is a valid schedule, which ends by its bound
over the full range and over compressed start sets, the LP optimum lies at
or below its cost, and the solve, which starts from it (again from it in
each LP built once more as the solve grows), reaches the optimum of the LP
over the whole start set.  The list schedule also makes the same choices as a reference that
walks the model's variables and keeps each machine's busy windows as
sorted intervals.  The full-range LP at
``lp_horizon`` has the optimum of the LP at the instance's horizon."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from alphasched.bench import random_instance  # noqa: E402
from alphasched.instance import (  # noqa: E402
    FORBIDDEN,
    Instance,
    NonPreemptiveSchedule,
    evaluate_schedule,
    horizon,
    lp_horizon,
)
from alphasched.interval_lp import (  # noqa: E402
    StartTimeSet,
    _variables_at,
    build_interval_lp,
    compress_start_times,
    list_schedule,
    solve_interval_lp,
)

from list_schedule_reference import array_list_schedule  # noqa: E402
from test_interval_lp import solve_by_pair_loop, solve_model, solve_recorded  # noqa: E402


@st.composite
def instances(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n, m = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    forbid = draw(st.floats(0.0, 0.3))
    return random_instance(np.random.default_rng(seed), n, m, forbid_prob=forbid)


def busy_window_list_schedule(inst, model):
    """Reference list schedule: the same rule, with the jobs placed so far
    held per machine as sorted, disjoint busy windows [start, finish)."""
    M = inst.num_machines
    smallest = np.where(inst.allowed_mask(), inst.sizes, np.iinfo(np.int64).max).min(axis=1)
    order = np.argsort(-(inst.weights / smallest), kind="stable")
    bounds = np.searchsorted(model.job * M + model.machine, np.arange(inst.num_jobs * M + 1))
    # The last window is a sentinel that starts after every admissible finish.
    busy_start = [np.array([model.horizon + 1]) for _ in range(M)]
    busy_end = [np.array([model.horizon + 1]) for _ in range(M)]
    chosen = np.empty(inst.num_jobs, dtype=np.int64)
    for j in order:
        best_finish, best = np.inf, -1
        for i in range(M):
            lo, hi = bounds[j * M + i], bounds[j * M + i + 1]
            if lo == hi:
                continue
            s = model.start[lo:hi]
            p = int(inst.sizes[j, i])
            # Start s is free iff the first window ending after s begins at
            # or after s + p.
            free = np.flatnonzero(busy_start[i][np.searchsorted(busy_end[i], s, side="right")] >= s + p)
            if free.size and s[free[0]] + p < best_finish:
                best_finish, best = s[free[0]] + p, lo + free[0]
        if best < 0:
            return None
        i, s = int(model.machine[best]), int(model.start[best])
        at = np.searchsorted(busy_start[i], s)
        busy_start[i] = np.insert(busy_start[i], at, s)
        busy_end[i] = np.insert(busy_end[i], at, best_finish)
        chosen[j] = best
    return chosen


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instances(), st.sampled_from((None, 0.2, 0.5)))
def test_list_schedule_matches_busy_window_reference(inst, eps):
    starts = None if eps is None else compress_start_times(inst, eps)
    model = build_interval_lp(inst, starts)
    schedule, reference = list_schedule(inst, starts), busy_window_list_schedule(inst, model)
    if reference is None:
        assert schedule is None
    else:
        assert schedule is not None
        assert schedule[0].tolist() == model.machine[reference].tolist()
        assert schedule[1].tolist() == model.start[reference].tolist()


@st.composite
def schedule_cases(draw):
    """An instance with forbidden pairs, per-machine releases and zero
    weights, each half the time, and a start set: the full range, a
    compressed one, or random times up to a random horizon below
    ``lp_horizon``, where placement often fails."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    p_max, r_max = draw(st.sampled_from((1, 3, 10, 40))), draw(st.sampled_from((0, 5, 40)))
    sizes = rng.integers(1, p_max + 1, (n, m))
    if draw(st.booleans()):
        forbid = rng.random((n, m)) < 0.4
        forbid[np.arange(n), rng.integers(0, m, n)] = False
        sizes[forbid] = FORBIDDEN
    releases = rng.integers(0, r_max + 1, (n, m) if draw(st.booleans()) else n)
    weights = rng.uniform(0.0, 5.0, n)
    if draw(st.booleans()):
        weights[rng.random(n) < 0.5] = 0.0
    inst = Instance(m, n, sizes, releases, weights)
    kind = draw(st.sampled_from(("full", "compressed", "random")))
    if kind == "full":
        return inst, None
    if kind == "compressed":
        return inst, compress_start_times(inst, draw(st.sampled_from((0.1, 0.5))))
    H = int(rng.integers(1, lp_horizon(inst) + 1))
    times = np.union1d([0], np.flatnonzero(rng.random(H + 1) < 0.5))
    return inst, StartTimeSet(times=times, epsilon=0.5, delta=0.1, horizon=H)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(schedule_cases())
def test_list_schedule_matches_the_array_reference(case):
    """The scalar loop makes the array loop's choices: (machine, start) per
    job, or None on both."""
    inst, starts = case
    schedule, reference = list_schedule(inst, starts), array_list_schedule(inst, starts)
    if reference is None:
        assert schedule is None
    else:
        assert schedule is not None
        assert schedule[0].dtype == schedule[1].dtype == np.int64
        assert schedule[0].tolist() == reference[0].tolist()
        assert schedule[1].tolist() == reference[1].tolist()


# One machine, unit sizes and releases past ceil(1/delta) = 4n at eps 0.5:
# every start is rounded up to a geometric time of the compressed set.
LATE_RELEASES = [
    Instance(1, 40, np.ones((40, 1), dtype=np.int64), np.random.default_rng(4001).integers(161, 401, 40), np.ones(40)),
    Instance(1, 20, np.ones((20, 1), dtype=np.int64), np.full(20, 200), np.arange(1.0, 21.0)),
    Instance(1, 3, np.ones((3, 1), dtype=np.int64), [13, 13, 40], [1.0, 2.0, 3.0]),
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(schedule_cases(), st.floats(0.01, 0.5))
@example((LATE_RELEASES[0], None), 0.5)
@example((LATE_RELEASES[1], None), 0.5)
@example((LATE_RELEASES[2], None), 0.5)
def test_full_range_list_schedule_ends_by_lp_horizon(case, eps):
    """Over the full range the list schedule reads no horizon: every job
    finishes by r_max + sum_j max_i p_ij, at most ``lp_horizon``.  On the
    set of ``compress_start_times(inst, eps)`` it exists, and every job
    finishes by (1 + delta)^n times that, within the set's horizon (the
    proof is in ``list_schedule``)."""
    inst = case[0]
    machine, start = list_schedule(inst)
    evaluate_schedule(inst, NonPreemptiveSchedule(machine, start))
    allowed = inst.allowed_mask()
    r_max = int(inst.release_matrix()[allowed].max())
    bound = r_max + int(np.where(allowed, inst.sizes, 0).max(axis=1).sum())
    finish = int((start + inst.sizes[np.arange(inst.num_jobs), machine]).max())
    assert finish <= bound
    assert finish <= lp_horizon(inst)

    starts = compress_start_times(inst, eps)
    schedule = list_schedule(inst, starts)
    assert schedule is not None
    machine, start = schedule
    evaluate_schedule(inst, NonPreemptiveSchedule(machine, start))
    assert np.isin(start, starts.times).all()
    finish = int((start + inst.sizes[np.arange(inst.num_jobs), machine]).max())
    assert finish <= (1 + starts.delta) ** inst.num_jobs * bound <= starts.horizon


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instances(), st.sampled_from((None, 0.2, 0.5)))
def test_list_schedule_start_is_warm_and_optimal(inst, eps):
    starts = None if eps is None else compress_start_times(inst, eps)
    model = build_interval_lp(inst, starts)
    schedule = list_schedule(inst, starts)
    assert schedule is not None
    chosen = _variables_at(model, starts, *schedule)
    assert model.machine[chosen].tolist() == schedule[0].tolist()
    assert model.start[chosen].tolist() == schedule[1].tolist()
    assert model.job[chosen].tolist() == list(range(inst.num_jobs))
    cost = evaluate_schedule(inst, NonPreemptiveSchedule(*schedule)).objective
    assert model.lp.objective[chosen].sum() == pytest.approx(cost, rel=1e-12)

    # Every solve starts from the list schedule: the first LP's, and each
    # LP built again to a longer horizon when the solve grows.  Its job
    # rows take a start, so a solve given none would raise.
    sol = solve_interval_lp(inst, eps)
    assert sol.objective <= cost * (1 + 1e-12)
    assert sol.objective == pytest.approx(solve_model(inst, model, starts).objective, rel=1e-9)


@st.composite
def release_instances(draw):
    """``instances``, with per-machine releases half the time."""
    inst = draw(instances())
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        releases = rng.integers(0, 9, size=(inst.num_jobs, inst.num_machines))
        inst = Instance(inst.num_machines, inst.num_jobs, inst.sizes, releases, inst.weights)
    return inst


@settings(max_examples=100, deadline=None, derandomize=True)
@given(release_instances())
def test_lp_horizon_keeps_the_optimum_of_the_full_horizon(inst):
    H = horizon(inst)
    every = StartTimeSet(times=np.arange(H), epsilon=0.0, delta=0.0, horizon=H)
    full = build_interval_lp(inst, every)
    tight = build_interval_lp(inst)
    assert tight.horizon == lp_horizon(inst) <= H
    assert solve_model(inst, tight).objective == pytest.approx(solve_model(inst, full, every).objective, rel=1e-12)


def test_solve_matches_a_direct_solve_of_the_whole_range():
    # solve_interval_lp builds the LP up to its list schedule's makespan and
    # builds it again to a longer horizon while a start past that prices
    # below OPT_TOL.  Its answer is the optimum of the whole range, built by
    # the test's own pair loop and solved from the list schedule, and its
    # Lagrangian bound closes.  Some examples grow.
    grown = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(release_instances(), st.sampled_from((None, 0.5)))
    def check(inst, eps):
        sol, calls = solve_recorded(inst, eps)
        grown.append(len(calls) > 1)
        direct = solve_by_pair_loop(inst, None if eps is None else compress_start_times(inst, eps))
        assert sol.objective == pytest.approx(direct.objective, rel=1e-9)
        assert 0.0 <= sol.gap_bound <= 1e-9 * (1.0 + sol.objective)

    check()
    assert any(grown)
