import math
import tracemalloc
from itertools import permutations
from unittest import mock

import numpy as np
import pytest

from alphasched import interval_lp, simplex
from alphasched.bench import random_instance
from alphasched.instance import (
    FORBIDDEN,
    Instance,
    NonPreemptiveSchedule,
    evaluate_schedule,
    horizon,
    lp_horizon,
    normalize_weights,
)
from alphasched.interval_lp import (
    IntervalLpError,
    StartTimeSet,
    _variables_at,
    build_interval_lp,
    compress_start_times,
    list_schedule,
    solution_from_triples,
    solve_interval_lp,
    validate_fractional,
)
from alphasched.oracle import brute_force_nonpreemptive
from alphasched.simplex import LpError, solve_lp


def make(sizes, releases, weights):
    sizes = np.asarray(sizes)
    return Instance(
        num_machines=sizes.shape[1],
        num_jobs=sizes.shape[0],
        sizes=sizes,
        releases=releases,
        weights=weights,
    )


def reference_start_set(n, eps, T):
    """Direct evaluation of the compressed start-time formula."""
    delta = eps / (2 * n)
    s = set(range(math.ceil(1 / delta) + 1))
    k = 0
    while True:
        s.add(math.ceil((1 + delta) ** k / delta))
        if (1 + delta) ** k / delta >= (1 + eps) * T:
            break
        k += 1
    cap = math.ceil((1 + eps) * T)
    return sorted(t for t in s if t <= cap)


def test_compress_matches_formula():
    inst = make([[9]], [0], [1.0])  # T = 9
    st = compress_start_times(inst, 0.5)
    assert st.delta == pytest.approx(0.25)
    expected = reference_start_set(1, 0.5, 9)
    assert st.times.tolist() == expected
    assert st.times.tolist()[:10] == [0, 1, 2, 3, 4, 5, 7, 8, 10, 13]


def test_compress_dense_prefix_is_lossless():
    # horizon below ceil(1/delta): every start time is retained
    inst = make([[2], [2]], [0, 0], [1.0, 1.0])  # T = 4, delta = eps/4
    st = compress_start_times(inst, 0.5)
    T = horizon(inst)
    assert set(range(T + 1)) <= set(st.times.tolist())


def test_compress_monotone_in_eps():
    inst = make([[11], [7]], [3, 0], [1.0, 1.0])
    big = compress_start_times(inst, 0.25)
    small = compress_start_times(inst, 0.5)
    assert big.times.size >= small.times.size


def test_compress_eps_range_checked():
    inst = make([[2]], [0], [1.0])
    for eps in (0.0, -0.1, 0.6, 2.0):
        with pytest.raises(Exception):
            compress_start_times(inst, eps)


def test_build_single_variable():
    inst = make([[3]], [0], [2.0])
    model = build_interval_lp(inst)
    assert model.lp.num_vars == 1
    assert model.machine.tolist() == [0]
    assert model.start.tolist() == [0]
    assert model.lp.objective.tolist() == [6.0]  # w * (s + p)


def test_build_skips_forbidden_pairs():
    inst = make([[3, FORBIDDEN]], [0], [1.0])
    model = build_interval_lp(inst)
    assert (model.machine == 0).all()


def test_build_two_jobs_lp_tight():
    # One machine, p = (2, 2), w1 >= w2: integral optimum 2 w1 + 4 w2, and
    # the LP matches it (checked against order enumeration).
    w1, w2 = 3.0, 1.0
    inst = make([[2], [2]], [0, 0], [w1, w2])
    best = min(
        sum(w * c for w, c in zip([w1, w2], _completions(inst, perm)))
        for perm in permutations(range(2))
    )
    sol = solve_interval_lp(inst)
    assert best == pytest.approx(2 * w1 + 4 * w2)
    assert sol.objective == pytest.approx(best, abs=1e-6)


def _completions(inst, order):
    fin = 0
    out = [0, 0]
    for j in order:
        fin = max(int(inst.releases[j]), fin) + inst.size(j, 0)
        out[j] = fin
    return out


def test_solve_single_job_earliest_start():
    inst = make([[4]], [3], [2.0])
    sol = solve_interval_lp(inst)
    assert sol.objective == pytest.approx(2.0 * (3 + 4))
    assert sol.start.tolist() == [3]


def test_no_admissible_start_is_reported():
    inst = make([[3]], [2], [1.0])
    starts = StartTimeSet(times=np.array([0, 1]), epsilon=0.5, delta=0.25, horizon=5)
    with pytest.raises(IntervalLpError, match="no admissible start"):
        build_interval_lp(inst, starts)


def test_lp_below_oracle_and_cover_holds():
    rng = np.random.default_rng(10)
    for _ in range(8):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        inst = make(
            rng.integers(1, 6, size=(n, m)), rng.integers(0, 8, size=n), rng.uniform(1, 5, n)
        )
        sol = solve_interval_lp(inst)
        validate_fractional(inst, sol)  # includes per-integer-t cover sweep
        opt, _ = brute_force_nonpreemptive(inst)
        assert sol.objective <= opt + 1e-6
        assert abs(sol.x(inst).sum(axis=1) - 1).max() < 1e-6


def test_compressed_solution_full_cover_and_factor():
    rng = np.random.default_rng(21)
    for _ in range(3):
        n, m = 4, 2
        inst = make(
            rng.integers(2, 9, size=(n, m)), rng.integers(0, 10, size=n), rng.uniform(1, 5, n)
        )
        full = solve_interval_lp(inst)
        comp = solve_interval_lp(inst, eps=0.5)
        # claim (ii): compressed solutions satisfy every cover constraint
        validate_fractional(inst, comp)
        # claim (i): at most (1 + eps) over the full optimum
        assert comp.objective <= 1.5 * full.objective + 1e-6
        assert comp.objective >= full.objective - 1e-6


def test_compressed_cover_rows_only_at_retained_times():
    inst = make([[25]], [0], [1.0])
    st = compress_start_times(inst, 0.5)
    model = build_interval_lp(inst, st)
    assert model.cover_times.tolist() == [int(t) + 1 for t in st.times if t + 1 <= st.horizon]
    solve_model(inst, model, st)


def solve_model(inst, model, starts=None):
    """The model's LP over the whole start set, solved from its list
    schedule."""
    res = solve_lp(model.lp, _variables_at(model, starts, *list_schedule(inst, starts)))
    assert res.status == "optimal"
    return res


def _cover_rows_by_loop(inst, model):
    """Cover rows built one variable and one covered time at a time."""
    p = inst.sizes[model.job, model.machine]
    members = {(i, int(t)): [] for i in range(inst.num_machines) for t in model.cover_times}
    for k in range(model.job.size):
        for t in model.cover_times:
            if model.start[k] < t <= model.start[k] + p[k]:
                members[(int(model.machine[k]), int(t))].append(k)
    return [members[(i, int(t))] for i in range(inst.num_machines) for t in model.cover_times]


def test_cover_rows_match_per_variable_loop():
    rng = np.random.default_rng(31)
    for trial in range(12):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        sizes = rng.integers(1, 7, size=(n, m))
        sizes[rng.random((n, m)) < 0.2] = FORBIDDEN
        sizes[np.arange(n), rng.integers(0, m, size=n)] = rng.integers(1, 7, size=n)
        inst = make(sizes, rng.integers(0, 9, size=n), rng.uniform(1, 5, n))
        starts = compress_start_times(inst, 0.5) if trial % 2 else None
        model = build_interval_lp(inst, starts)
        cover = model.lp.rows[inst.num_jobs :]
        expected = _cover_rows_by_loop(inst, model)
        assert len(cover) == len(expected)
        for (idx, val, sense, rhs), want in zip(cover, expected):
            assert idx.tolist() == want
            assert (val == 1.0).all() and sense == "<=" and rhs == 1.0


def build_by_pair_loop(inst, starts=None):
    """The LP as the builder made it before it was vectorized: a Python loop
    over the allowed (job, machine) pairs, each column's rows expanded one
    entry per cover row.  Returns (lp, machine, job, start)."""
    n = inst.num_jobs
    if starts is None:
        H = C = lp_horizon(inst)
    else:
        H, C = starts.horizon, np.count_nonzero(starts.times + 1 <= starts.horizon)
    covers = inst.num_machines * C
    lp = simplex.LinearProgram()
    times = np.arange(H, dtype=np.int64) if starts is None else starts.times
    cover_times = times[times + 1 <= H] + 1
    lp.add_rows(["=="] * n + ["<="] * covers, np.ones(n + covers))
    rel = inst.release_matrix()
    machines, jobs, begins = [], [], []
    for j in range(n):
        for i in range(inst.num_machines):
            if not inst.allowed(j, i):
                continue
            p = inst.size(j, i)
            ss = times[np.searchsorted(times, rel[j, i], side="left") : np.searchsorted(times, H - p, side="right")]
            machines.append(np.full(ss.size, i, dtype=np.int64))
            jobs.append(np.full(ss.size, j, dtype=np.int64))
            begins.append(ss)
    machine, job, start = (np.concatenate(a) for a in (machines, jobs, begins))
    missing = np.setdiff1d(np.arange(n), job)
    if missing.size:
        raise IntervalLpError(f"job {int(missing[0])} has no admissible start time")
    p = inst.sizes[job, machine]
    lo = np.searchsorted(cover_times, start, side="right")
    span = np.searchsorted(cover_times, start + p, side="right") - lo
    ptr = np.concatenate(([0], np.cumsum(1 + span)))
    after_job = np.arange(ptr[-1]) - ptr[:-1].repeat(1 + span) - 1
    rows = (n + machine * C + lo).repeat(1 + span) + after_job
    rows[ptr[:-1]] = job
    lp.add_columns(ptr, rows, np.ones(rows.size), inst.weights[job] * (start + p))
    return lp, machine, job, start


def solve_by_pair_loop(inst, starts=None):
    """``build_by_pair_loop``'s LP solved from the list schedule, whose
    variables are looked up in the loop's own (machine, job, start)."""
    lp, machine, job, start = build_by_pair_loop(inst, starts)
    chosen = [
        np.flatnonzero((job == j) & (machine == i) & (start == s))[0]
        for j, (i, s) in enumerate(zip(*list_schedule(inst, starts)))
    ]
    res = solve_lp(lp, chosen)
    assert res.status == "optimal"
    return res


def test_builder_matches_the_pair_loop():
    rng = np.random.default_rng(47)
    for trial in range(16):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        sizes = rng.integers(1, 9, size=(n, m))
        if trial % 3 == 0:
            sizes[rng.random((n, m)) < 0.3] = FORBIDDEN
            sizes[np.arange(n), rng.integers(0, m, size=n)] = rng.integers(1, 9, size=n)
        releases = rng.integers(0, 12, size=(n, m) if trial % 4 >= 2 else n)
        inst = make(sizes, releases, rng.uniform(1, 5, n))
        starts = compress_start_times(inst, 0.5 if trial % 5 else 0.2) if trial % 2 else None
        model = build_interval_lp(inst, starts)
        lp, machine, job, start = build_by_pair_loop(inst, starts)
        for got, want in ((model.machine, machine), (model.job, job), (model.start, start)):
            assert got.tolist() == want.tolist()
        assert model.lp.objective.tolist() == lp.objective.tolist()
        assert model.lp.num_rows == lp.num_rows and model.lp.num_vars == lp.num_vars
        for (idx, val, sense, rhs), (idx0, val0, sense0, rhs0) in zip(model.lp.rows, lp.rows):
            assert idx.tolist() == idx0.tolist() and val.tolist() == val0.tolist()
            assert (sense, rhs) == (sense0, rhs0)
    # A job none of whose starts fits is refused, by either builder; on
    # machine 1 its release is past the last start that fits.
    inst = make([[3, 4], [2, 2]], [[2, 4], [0, 0]], [1.0, 1.0])
    starts = StartTimeSet(times=np.array([0, 1, 3]), epsilon=0.5, delta=0.25, horizon=5)
    for build in (build_interval_lp, build_by_pair_loop):
        with pytest.raises(IntervalLpError, match="job 0 has no admissible start"):
            build(inst, starts)


@pytest.mark.parametrize("eps", [None, 0.5], ids=["full", "eps-0.5"])
def test_standard_form_columns_are_at_most_two_runs(eps):
    # The simplex prices by runs (consecutive rows, one value); a start-time
    # variable is its job entry plus one run over the cover rows it spans,
    # so pricing costs O(variables + rows) whatever the job sizes.
    for seed, (n, m, p) in enumerate([(6, 2, 40), (8, 3, 12), (5, 2, 6)]):
        inst = random_instance(np.random.default_rng(500 + seed), n, m, p_max=p, r_max=p)
        starts = None if eps is None else compress_start_times(inst, eps)
        lp = build_interval_lp(inst, starts).lp
        model = simplex._Model()
        model.extend(lp)
        runs = np.bincount(model.cols.run_col, minlength=model.cols.total)[model.var_col]
        assert runs.size == lp.num_vars and runs.min() >= 1 and runs.max() <= 2
        assert model.cols.run_ends.shape[1] > 0  # some variable spans several cover rows


def test_solution_from_triples_validates():
    inst = make([[2], [2]], [0, 0], [1.0, 1.0])
    sol = solution_from_triples(inst, [(0, 0, 0, 1.0), (0, 1, 2, 1.0)])
    assert sol.objective == pytest.approx(1 * 2 + 1 * 4)
    with pytest.raises(IntervalLpError, match="overloaded"):
        solution_from_triples(inst, [(0, 0, 0, 1.0), (0, 1, 1, 1.0)])
    with pytest.raises(IntervalLpError, match="assignment mass"):
        solution_from_triples(inst, [(0, 0, 0, 0.5), (0, 1, 2, 1.0)])


def solve_recorded_lps(inst, eps=None):
    """solve_interval_lp, and the (LinearProgram, LpSolution) of each of
    its simplex calls."""
    seen = []

    def spy(lp, start=None):
        seen.append((lp, solve_lp(lp, start)))
        return seen[-1][1]

    with mock.patch.object(interval_lp, "solve_lp", spy):
        sol = solve_interval_lp(inst, eps)
    return sol, seen


def solve_recorded(inst, eps=None):
    """solve_interval_lp, and the LpSolution of each of its simplex calls."""
    sol, seen = solve_recorded_lps(inst, eps)
    return sol, [res for _, res in seen]


def scheduled(inst, starts=None):
    """The list schedule as (machine, start) per job."""
    machine, start = list_schedule(inst, starts)
    return machine.tolist(), start.tolist()


def test_list_schedule_smith_order_back_to_back():
    # w/p: job 0 has 1/2, job 1 has 3/3, so job 1 goes first, at 0, and job
    # 0 follows it without a gap.
    inst = make([[2], [3]], [0, 0], [1.0, 3.0])
    assert scheduled(inst) == ([0, 0], [3, 0])


def test_list_schedule_fills_gaps_and_picks_earliest_finish():
    # Job 0 (w/p = 4) is placed first at its release 4; job 1 fits in the
    # gap before it and finishes at 2.  Job 2 finishes earliest on machine
    # 1, at 6: on machine 0 the gap [2, 4) is one slot too short for p = 3,
    # and the next free start is 5.
    inst = make([[1, 9], [2, 9], [3, 6]], [4, 0, 0], [4.0, 1.0, 0.5])
    machine, start = scheduled(inst)
    assert machine == [0, 0, 1] and start == [4, 0, 0]
    cost = evaluate_schedule(inst, NonPreemptiveSchedule(machine=np.array(machine), start=np.array(start)))
    assert cost.completion.tolist() == [5, 2, 6]


def test_list_schedule_ties_go_to_the_lower_machine():
    inst = make([[2, 2], [2, 2]], [0, 0], [1.0, 1.0])
    assert scheduled(inst) == ([0, 1], [0, 0])


def test_solve_starts_warm_and_matches_cold():
    rng = np.random.default_rng(5)
    inst = make(rng.integers(1, 6, size=(6, 2)), rng.integers(0, 8, size=6), rng.uniform(1, 5, 6))
    for eps in (None, 0.5):
        sol, [_] = solve_recorded(inst, eps)
        starts = None if eps is None else compress_start_times(inst, eps)
        whole = solve_model(inst, build_interval_lp(inst, starts), starts)
        assert sol.objective == pytest.approx(whole.objective, rel=1e-9)


def test_list_schedule_start_perturbs_its_first_stall():
    # Long jobs leave many cover slacks basic at zero in the list schedule's
    # basis.  Waiting 3 m + 50 stalled pivots to perturb took 69 pivots here;
    # perturbing at the first stall takes 17.
    inst = random_instance(np.random.default_rng(124), 5, 2, p_max=40, r_max=40)
    _, [res] = solve_recorded(inst)
    assert res.iterations <= 35
    assert res.stats["perturbations"] >= 1
    scaled = normalize_weights(inst)[0]
    whole = solve_model(scaled, build_interval_lp(scaled))
    assert res.objective == pytest.approx(whole.objective, rel=1e-9)


def test_a_solve_that_grows_is_built_again_and_certifies():
    # One machine; the list schedule runs jobs 2, 1 and 0 back to back and
    # ends at 14, below the full range's 16.  Against the duals of the LP
    # built to 14 a start that finishes later prices below -OPT_TOL, so the
    # LP is built again to that finish and solved from the list schedule.
    inst = make([[6], [4], [4]], [2, 2, 0], [1.06611054, 4.25308096, 4.65102231])
    assert scheduled(inst) == ([0, 0, 0], [8, 4, 0]) and lp_horizon(inst) == 16
    for eps in (None, 0.5):
        starts = None if eps is None else compress_start_times(inst, eps)
        sol, seen = solve_recorded_lps(inst, eps)
        calls = [res for _, res in seen]
        assert len(calls) == 2
        assert seen[0][0] is not seen[1][0]
        assert sol.horizon == (16 if eps is None else starts.horizon)
        assert sol.stats["pivots"] == sum(res.stats["pivots"] for res in calls)
        direct = solve_by_pair_loop(inst, starts)
        assert sol.objective == pytest.approx(direct.objective, rel=1e-12)
        assert 0.0 <= sol.gap_bound <= 1e-12 * sol.objective


def test_a_grown_lp_is_the_builders_lp_to_its_reach():
    # The ladder's (8, 2) s = 1: the list schedule ends at 73, and a start
    # that finishes at 74 prices below -OPT_TOL.  The LP solved last is the
    # one the builder lays down to its horizon, row for row: job rows, then
    # cover rows by machine and then time, with no rows or columns appended
    # to an earlier LP.  Two machines, so appended cover rows would be out
    # of that order.
    inst = random_instance(np.random.default_rng(8001), 8, 2, p_max=40, r_max=40)
    _, seen = solve_recorded_lps(inst)
    got = seen[-1][0]
    horizon = (got.num_rows - 8) // 2
    want = build_interval_lp(normalize_weights(inst)[0], None, horizon).lp
    assert got.objective.tolist() == want.objective.tolist()
    got_rows, want_rows = got.rows, want.rows
    assert len(got_rows) == len(want_rows)
    for (idx, val, sense, rhs), (want_idx, want_val, want_sense, want_rhs) in zip(got_rows, want_rows):
        assert idx.tolist() == want_idx.tolist() and val.tolist() == want_val.tolist()
        assert (sense, rhs) == (want_sense, want_rhs)
    assert seen[0][0].num_rows == 8 + 2 * 73 and horizon >= 74


def test_list_schedule_is_none_on_an_unplaceable_start_set():
    # Starts {0, 2}, horizon 3.  Job 1 (w/p = 1) takes start 0; job 0 (p = 2)
    # then has only start 0 left, which overlaps, so there is no list
    # schedule, though the LP is feasible: job 0 at 0, job 1 at 2.  No set
    # of ``compress_start_times`` is like this (see ``list_schedule``).
    inst = make([[2], [1]], [0, 0], [1.0, 1.0])
    starts = StartTimeSet(times=np.array([0, 2]), epsilon=0.5, delta=0.125, horizon=3)
    assert list_schedule(inst, starts) is None
    model = build_interval_lp(inst, starts)
    res = solve_lp(model.lp, _variables_at(model, starts, np.array([0, 0]), np.array([0, 2])))
    assert res.status == "optimal" and res.objective == 5.0


def oversized():
    # lp_horizon = 360 + 3 x 80 + 80 - 1 = 679: 3 + 20 x 679 = 13,583 rows,
    # a 1.4 GiB basis inverse.  The list schedule ends at 360 + 80 = 440,
    # so the LP built to it has 8,803 rows, a 591 MiB inverse.
    return make(np.full((3, 20), 80), [0, 0, 360], [1.0] * 3)


def far_release():
    # One release at 1e12 puts the horizon past 1e12.
    return make([[2, 3], [1, 4], [3, 3]], [0, 10**12, 5], [1.0, 2.0, 1.5])


def test_size_guard_refuses_before_allocating():
    # The full LP, and the LP built to the list schedule's makespan that
    # solve_interval_lp starts from, are refused from their row counts
    # alone, before any array of their size is built.
    for inst, rows in ((oversized(), 13583), (far_release(), 2000000000029)):
        tracemalloc.start()
        try:
            with pytest.raises(LpError, match=f"too large: {rows} rows"):
                build_interval_lp(inst)
            with pytest.raises(LpError, match="too large"):
                solve_interval_lp(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    # The compressed LP of the 13,583-row instance is small enough.
    assert build_interval_lp(oversized(), compress_start_times(oversized(), 0.5)).lp.num_rows < 4096


def test_compressed_solve_far_release():
    # The compressed LP has a few hundred start times; scheduling its warm
    # start and checking the cover at every integer time must not cost
    # memory or time in proportion to the 1.5e12 horizon.
    inst = far_release()
    sol = solve_interval_lp(inst, 0.5)
    assert sol.horizon > 10**12
    assert sol.start[sol.job == 1].min() >= 10**12
    schedule = 1.0 * 2 + 2.0 * (10**12 + 1) + 1.5 * 8  # cost of a feasible schedule
    assert 2.0 * (10**12 + 1) < sol.objective <= 1.5 * schedule


def test_size_guard_limit_is_inclusive(monkeypatch):
    inst = make([[2], [3]], [0, 0], [1.0, 1.0])  # H = 5: 2 + 5 rows
    monkeypatch.setattr(simplex, "MAX_BASIS_INVERSE_BYTES", 8 * 7 * 7)
    assert build_interval_lp(inst).lp.num_rows == 7
    monkeypatch.setattr(simplex, "MAX_BASIS_INVERSE_BYTES", 8 * 7 * 7 - 1)
    with pytest.raises(LpError, match="too large: 7 rows"):
        build_interval_lp(inst)
