import math
from itertools import permutations

import numpy as np
import pytest

from alphasched.interval_lp import solution_from_triples, validate_fractional
from alphasched.lowerbound import (
    _best_insertion_cost,
    build_lb_instance,
    run_lb_experiment,
)


def integral_component(inst, eps, which):
    """The which-th integral plan of the convex combination: all unit jobs on
    machine ``which``, big job ``which`` on the spare machine."""
    k = int(round(1.0 / eps))
    T = inst.num_jobs - k
    triples = [(k if i == which else i, i, 0, 1.0) for i in range(k)]
    triples += [(which, k + t, t, 1.0) for t in range(T)]
    return solution_from_triples(inst, triples)


def test_build_small_family():
    inst, sol = build_lb_instance(0.5, 8)
    assert inst.num_machines == 3
    assert inst.num_jobs == 2 + 8
    assert (inst.sizes[:2] == 8).all()
    assert inst.weights[0] == pytest.approx(0.5 / math.e)
    assert inst.weights[2] == pytest.approx(math.exp(-1 / 8) / 8)  # first unit job
    assert inst.releases[:2].tolist() == [0, 0]
    assert inst.releases[2:].tolist() == list(range(8))
    validate_fractional(inst, sol)  # load at most 1 everywhere


def test_plan_cost_below_fractional_bound():
    for eps, T in [(0.5, 8), (0.25, 64), (0.1, 1000)]:
        inst, sol = build_lb_instance(eps, T)
        assert sol.objective <= (1 - 1 / math.e) * (T + 1) + 1e-9


def test_plan_is_convex_combination_of_integral_plans():
    eps, T = 0.5, 8
    inst, sol = build_lb_instance(eps, T)
    k = int(round(1 / eps))
    combined: dict = {}
    for i in range(k):
        comp = integral_component(inst, eps, i)
        validate_fractional(inst, comp)
        for m_, j_, s_, v in zip(comp.machine, comp.job, comp.start, comp.value):
            key = (int(m_), int(j_), int(s_))
            combined[key] = combined.get(key, 0.0) + v / k
    plan = {
        (int(m_), int(j_), int(s_)): float(v)
        for m_, j_, s_, v in zip(sol.machine, sol.job, sol.start, sol.value)
    }
    assert set(combined) == set(plan)
    for key, v in plan.items():
        assert combined[key] == pytest.approx(v, abs=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError, match="integer"):
        build_lb_instance(0.3, 100)
    with pytest.raises(ValueError, match="multiple"):
        build_lb_instance(0.5, 9, strict=True)
    inst, _ = build_lb_instance(0.5, 9)  # relaxed accepts, records it
    assert inst.meta.get("relaxed_T")
    inst, _ = build_lb_instance(0.5, 16, strict=True)  # 16 = 2 * 8
    assert not inst.meta.get("relaxed_T")
    for bad in (0, -3):
        with pytest.raises(ValueError, match="need at least one trial"):
            run_lb_experiment(0.5, 8, trials=bad, seed=0)
        with pytest.raises(ValueError, match="T must be positive"):
            run_lb_experiment(0.5, bad, trials=10, seed=0)


def test_insertion_scan_matches_order_enumeration():
    # The tau-insertion family contains a true optimum: check the scan against
    # exhaustive order enumeration of unit jobs plus the big job.
    rng = np.random.default_rng(4)
    T = 8
    w_small_all = np.exp(-np.arange(1, T + 1) / T) / T
    for _ in range(30):
        mask = rng.random(T) < 0.5
        ts = np.flatnonzero(mask) + 1.0
        wv = w_small_all[mask]
        if ts.size > 5:
            continue
        w_big = float(rng.uniform(0.01, 0.2))
        got = _best_insertion_cost(ts, wv, w_big, T)
        jobs = [("s", int(t)) for t in ts] + [("b", 0)]
        best = min(_order_cost(order, w_small_all, w_big, T) for order in permutations(jobs))
        assert got == pytest.approx(best, abs=1e-9)


def _order_cost(order, w_small_all, w_big, T):
    fin = 0.0
    cost = 0.0
    for kind, t in order:
        if kind == "s":
            release, size, w = t - 1, 1, w_small_all[t - 1]
        else:
            release, size, w = 0, T, w_big
        fin = max(release, fin) + size
        cost += w * fin
    return cost


def test_interval_lp_cost_below_bound_on_family():
    # Solving the LP on the small family stays below the prescribed plan
    # (a feasible point) and hence below (1 - 1/e)(T + 1).
    from alphasched.interval_lp import solve_interval_lp

    inst, plan = build_lb_instance(0.5, 8)
    sol = solve_interval_lp(inst)
    assert sol.objective <= plan.objective + 1e-6
    assert sol.objective <= (1 - 1 / math.e) * 9 + 1e-6


def test_experiment_desk_scale_points():
    res = run_lb_experiment(0.5, 40, trials=1000, seed=3)
    assert res.ratio_full > 1.1
    assert res.mean_main_cost > 0
    assert res.fractional_bound == pytest.approx((1 - 1 / math.e) * 41)
    res2 = run_lb_experiment(0.5, 40, trials=1000, seed=3)
    assert res2.ratio_main == res.ratio_main  # deterministic under the seed


def test_experiment_ratio_grows_with_horizon():
    rs = [run_lb_experiment(0.1, T, trials=120, seed=9) for T in (500, 1000, 2000)]
    for a, b in zip(rs, rs[1:]):
        assert b.ratio_main >= a.ratio_main - 2 * (a.ratio_sem + b.ratio_sem)
    assert rs[-1].ratio_main > 1.35
