import math

import numpy as np
import pytest

from alphasched.chain_lp import ChainSolution, solve_chain_lp
from alphasched.chains import Chain
from alphasched.distributions import OffsetDistribution
from alphasched.instance import Instance, evaluate_schedule
from alphasched.preemptive import (
    default_offset_distribution,
    estimate_ratio_preemptive,
    round_preemptive_once,
    simulate_preemptive_rounding,
)

CLIPPED = default_offset_distribution()


def make(sizes, releases, weights):
    sizes = np.asarray(sizes)
    return Instance(
        num_machines=sizes.shape[1],
        num_jobs=sizes.shape[0],
        sizes=sizes,
        releases=releases,
        weights=weights,
    )


def manual_solution(inst, chain_z, objective=None):
    chains = [(c, z) for c, z in chain_z]
    if objective is None:
        objective = sum(inst.weights[c.job] * c.completion * z for c, z in chains)
    return ChainSolution(
        chains=chains,
        objective=float(objective),
        eta=np.zeros(inst.num_jobs),
        xi={},
        horizon=int(max(c.completion for c, _ in chains)),
    )


def test_chain_eval_examples():
    a = Chain(machine=0, job=0, slots=(1, 3))
    assert a.at(1.5) == pytest.approx(2.5)  # slot 2 half done
    assert a.at(2.0) == pytest.approx(3.0)  # completion
    assert a.inverse(2.0) == pytest.approx(1.0)  # one unit done by time 2
    assert a.inverse(0.5) == pytest.approx(0.5)
    assert a.inverse(10.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        a.at(0.0)
    with pytest.raises(ValueError):
        a.at(2.5)


def test_chain_eval_inverse_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = int(rng.integers(1, 6))
        slots = tuple(sorted(rng.choice(np.arange(1, 20), size=p, replace=False).tolist()))
        a = Chain(machine=0, job=0, slots=slots)
        v = float(rng.uniform(1e-9, p))
        assert a.inverse(a.at(v)) == pytest.approx(v, abs=1e-9)


def test_single_chain_costs():
    # One job on chain (1, 2): the analysis cost is tau + 2 and the emitted
    # schedule starts at ceil(tau).
    inst = make([[2]], [0], [1.0])
    sol = manual_solution(inst, [(Chain(machine=0, job=0, slots=(1, 2)), 1.0)])
    frac, integral, (machine, tau) = simulate_preemptive_rounding(
        inst, sol, CLIPPED, np.random.default_rng(4), 2000
    )
    assert np.allclose(frac[:, 0], tau[:, 0] + 2.0)
    assert np.allclose(integral[:, 0], np.ceil(tau[:, 0]) + 2.0)
    assert (tau > 0).all() and (tau < 2).all()


def test_empty_machine_completion_is_ceil_tau_plus_p():
    inst = make([[3, 3]], [0], [1.0])
    sol = manual_solution(inst, [(Chain(machine=1, job=0, slots=(2, 4, 9)), 1.0)])
    frac, integral, (machine, tau) = simulate_preemptive_rounding(
        inst, sol, CLIPPED, np.random.default_rng(5), 500
    )
    assert np.allclose(integral[:, 0], np.ceil(tau[:, 0]) + 3.0)


def test_two_forced_chains_two_case_expectation():
    # Jobs on chains (1,) and (2,) of a unit machine: tau_0 in (0,1),
    # tau_1 in (1,2), so job 0 always precedes job 1.
    inst = make([[1], [1]], [0, 0], [2.0, 1.0])
    sol = manual_solution(
        inst,
        [(Chain(machine=0, job=0, slots=(1,)), 1.0), (Chain(machine=0, job=1, slots=(2,)), 1.0)],
    )
    frac, integral, (machine, tau) = simulate_preemptive_rounding(
        inst, sol, CLIPPED, np.random.default_rng(6), 4000
    )
    assert (tau[:, 0] < tau[:, 1]).all()
    # analysis completions: C0 = tau0 + 1, C1 = max(tau1, C0) + 1
    c0 = tau[:, 0] + 1
    c1 = np.maximum(tau[:, 1], c0) + 1
    assert np.allclose(frac[:, 0], c0) and np.allclose(frac[:, 1], c1)


def test_tau_expectation_bound_and_interval_equality():
    rng = np.random.default_rng(7)
    inst = make([[4]], [0], [1.0])
    # scattered chain: strict inequality; consecutive chain: equality
    for slots, expect_equal in [((2, 5, 6, 11), False), ((3, 4, 5, 6), True)]:
        chain = Chain(machine=0, job=0, slots=slots)
        sol = manual_solution(inst, [(chain, 1.0)])
        _, _, (machine, tau) = simulate_preemptive_rounding(
            inst, sol, CLIPPED, np.random.default_rng(8), 200_000
        )
        bound = chain.at(4) - 4 / 2
        sem = tau[:, 0].std(ddof=1) / math.sqrt(tau.shape[0])
        assert tau[:, 0].mean() <= bound + 3 * sem
        if expect_equal:
            assert tau[:, 0].mean() == pytest.approx(bound, abs=4 * sem)
        else:
            assert tau[:, 0].mean() < bound - 0.2


def test_emitted_schedule_is_valid_and_release_safe():
    rng = np.random.default_rng(9)
    for seed in range(8):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        inst = make(
            rng.integers(1, 5, size=(n, m)), rng.integers(0, 6, size=n), rng.uniform(1, 5, n)
        )
        sol = solve_chain_lp(inst)
        sched, frac_obj, int_obj, tau = round_preemptive_once(
            inst, sol, rng=np.random.default_rng(seed)
        )
        cost = evaluate_schedule(inst, sched)  # raises on any violation
        assert cost.objective == pytest.approx(int_obj)
        assert frac_obj <= int_obj + 1e-9
        rel = inst.release_matrix()
        assert (tau > rel[np.arange(n), sched.machine]).all()


def test_ratio_bounds_clipped_and_uniform():
    rng = np.random.default_rng(10)
    inst = make(rng.integers(1, 6, size=(5, 2)), rng.integers(0, 8, size=5), rng.uniform(1, 5, 5))
    sol = solve_chain_lp(inst)
    est = estimate_ratio_preemptive(inst, sol, trials=20_000, seed=11)
    assert est.mean_ratio <= 1.99971 + 3 * est.std_error
    est_u = estimate_ratio_preemptive(
        inst, sol, trials=20_000, seed=11, dist=OffsetDistribution.uniform()
    )
    assert est_u.mean_ratio <= 2.0 + 3 * est_u.std_error


def test_single_job_ratio_near_one():
    inst = make([[3]], [0], [1.0])
    sol = solve_chain_lp(inst)
    est = estimate_ratio_preemptive(inst, sol, trials=5000, seed=1)
    # C = tau + ... <= C_A + p/2 in expectation; ratio stays near 1
    assert est.mean_ratio <= 1.0 + (3 / 2) / sol.objective + 3 * est.std_error


def test_mass_renormalization():
    # chain mass above 1 is renormalized proportionally for sampling
    inst = make([[1]], [0], [1.0])
    sol = manual_solution(
        inst,
        [(Chain(machine=0, job=0, slots=(1,)), 0.8), (Chain(machine=0, job=0, slots=(2,)), 0.4)],
        objective=1.0,
    )
    _, _, (machine, tau) = simulate_preemptive_rounding(
        inst, sol, CLIPPED, np.random.default_rng(3), 60_000
    )
    share_first = (tau[:, 0] < 1).mean()
    assert share_first == pytest.approx(0.8 / 1.2, abs=0.01)


@pytest.mark.parametrize("trials", [0, -2])
def test_trial_counts_below_one_are_refused(trials):
    inst = make([[2]], [0], [1.0])
    sol = manual_solution(inst, [(Chain(machine=0, job=0, slots=(1, 2)), 1.0)])
    for full in (True, False):
        with pytest.raises(ValueError, match="need at least one trial"):
            simulate_preemptive_rounding(inst, sol, CLIPPED, np.random.default_rng(0), trials, full=full)
    with pytest.raises(ValueError, match="need at least one trial"):
        estimate_ratio_preemptive(inst, sol, trials, 0)
