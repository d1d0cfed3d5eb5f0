import math
from itertools import permutations

import numpy as np
import pytest

from alphasched.instance import FORBIDDEN, Instance, horizon
from alphasched.interval_lp import (
    IntervalLpError,
    StartTimeSet,
    build_interval_lp,
    compress_start_times,
    solution_from_triples,
    solve_interval_lp,
    validate_fractional,
)
from alphasched.oracle import brute_force_nonpreemptive
from alphasched.simplex import solve_lp


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
    res = solve_lp(model.lp)
    assert res.status == "optimal"


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


def test_solution_from_triples_validates():
    inst = make([[2], [2]], [0, 0], [1.0, 1.0])
    sol = solution_from_triples(inst, [(0, 0, 0, 1.0), (0, 1, 2, 1.0)])
    assert sol.objective == pytest.approx(1 * 2 + 1 * 4)
    with pytest.raises(IntervalLpError, match="overloaded"):
        solution_from_triples(inst, [(0, 0, 0, 1.0), (0, 1, 1, 1.0)])
    with pytest.raises(IntervalLpError, match="assignment mass"):
        solution_from_triples(inst, [(0, 0, 0, 0.5), (0, 1, 2, 1.0)])


def test_csv_export_round_trips_values():
    inst = make([[2], [2]], [0, 0], [1.0, 1.0])
    sol = solve_interval_lp(inst)
    text = sol.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "machine,job,start,y"
    assert len(lines) == 1 + sol.value.size
