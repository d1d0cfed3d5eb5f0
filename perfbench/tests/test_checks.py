"""The benchmark's checks pass on the library's outputs and trip on planted
defects.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import alphasched as A  # noqa: E402
import reference as ref  # noqa: E402
from alphasched.bench import random_instance  # noqa: E402

NP_FILE = sorted((HERE / "corpus" / "np-round").glob("*.inst.json"))[0]


def small_doc(seed=5, n=3, m=2, p_max=4):
    inst = random_instance(np.random.default_rng(seed), n, m, p_max=p_max, r_max=3)
    doc = {"machines": m, "jobs": [
        {"release": int(inst.releases[j]), "weight": float(inst.weights[j]),
         "sizes": [int(p) for p in inst.sizes[j]]} for j in range(n)]}
    return inst, ref.read_instance_doc(doc)


@pytest.fixture(scope="module")
def np_case():
    inst = A.load_instance(NP_FILE)
    return inst, ref.read_instance(NP_FILE), A.solve_interval_lp(inst)


@pytest.fixture(scope="module")
def chain_case():
    inst, data = small_doc()
    return inst, data, A.solve_chain_lp(inst)


def test_loaded_instance_matches_file(np_case):
    inst, data, _ = np_case
    assert ref.check_loaded(data, inst) == []
    moved = dataclasses.replace(inst, weights=inst.weights * 1.5)
    assert ref.check_loaded(data, moved)


def test_lp_objective_agrees_and_planted_wrong_objective_trips(np_case):
    inst, data, sol = np_case
    value = ref.solve_reference_lp(data)
    assert ref.check_agree(sol.objective, value, "LP") == []
    assert ref.check_fractional(data, sol) == []
    wrong = dataclasses.replace(sol, objective=sol.objective * 1.001)
    assert ref.check_agree(wrong.objective, value, "LP")
    assert ref.check_fractional(data, wrong)


def test_fractional_validator_trips_on_overload_and_early_start(np_case):
    inst, data, sol = np_case
    heavy = dataclasses.replace(sol, value=sol.value * 1.5)
    assert any("cover" in v or "mass" in v for v in ref.check_fractional(data, heavy))
    early = dataclasses.replace(sol, start=sol.start - data.release[sol.job, sol.machine] - 1)
    assert "support starts before release" in ref.check_fractional(data, early)


def test_round_once_schedule_passes_and_overlap_trips(np_case):
    inst, data, sol = np_case
    sched, _, _ = A.round_once(inst, sol, A.OffsetDistribution.uniform(), np.random.default_rng(3))
    assert ref.check_schedule(data, sched.machine, sched.start) == []
    machine = np.zeros(data.n, dtype=np.int64)
    start = np.full(data.n, int(data.release.max()))  # every job at once on machine 0
    assert any("overlap" in v for v in ref.check_schedule(data, machine, start))
    early = sched.start.copy()
    early[0] = data.release[0, sched.machine[0]] - 1
    assert ref.check_schedule(data, sched.machine, early) == ["start before release"]


def test_trial_checks_pass_and_trip(np_case):
    inst, data, sol = np_case
    dist = A.OffsetDistribution.truncated_quadratic()
    est = A.estimate_ratio(inst, sol, dist, 2000, 11)
    conv, _, (machine, *_) = A.simulate_rounding(inst, sol, dist, np.random.default_rng(11), 2000)
    objectives = conv @ data.weight
    assert ref.check_trials(data, machine, conv) == []
    assert ref.check_ratio_trials(objectives, sol.objective, objectives / sol.objective,
                                  est.mean_ratio, est.std_error, 1.8786, "q") == []
    overlap = conv.copy()
    overlap[:, :] = overlap.max(axis=1, keepdims=True)  # all jobs finish together
    assert ref.check_trials(data, machine, overlap)
    below = objectives.copy()
    below[7] = 0.5 * sol.objective
    assert ref.check_ratio_trials(below, sol.objective, objectives / sol.objective,
                                  est.mean_ratio, est.std_error, 1.8786, "q")
    assert ref.check_ratio_trials(objectives, sol.objective, objectives / sol.objective,
                                  est.mean_ratio * 1.01, est.std_error, 1.8786, "q")
    assert ref.check_ratio_trials(objectives, sol.objective, objectives / sol.objective,
                                  est.mean_ratio, est.std_error, 1.0, "q")


def test_closed_form_cdf_matches_library():
    dist = A.OffsetDistribution.truncated_quadratic()
    cdf = ref.closed_form_cdf(dist.breakpoints, dist.coeffs)
    x = np.linspace(0.0, 1.0, 1001)
    assert np.allclose(cdf(x), dist.cdf(x) / dist.raw_mass, atol=1e-12)


@pytest.mark.parametrize("name", ["quadratic", "uniform", "clipped"])
def test_sampler_passes_ks(name):
    dist = {
        "quadratic": A.OffsetDistribution.truncated_quadratic(),
        "uniform": A.OffsetDistribution.uniform(),
        "clipped": A.default_offset_distribution(),
    }[name]
    draws = dist.sample(np.random.default_rng(20160608), 200_000)
    assert ref.check_sampler(dist, draws) == []


def test_uniform_sampler_against_quadratic_cdf_trips_ks():
    quadratic = A.OffsetDistribution.truncated_quadratic()
    draws = A.OffsetDistribution.uniform().sample(np.random.default_rng(20160608), 200_000)
    violations = ref.check_sampler(quadratic, draws)
    assert violations and "KS" in violations[0]


def test_chain_checks_pass(chain_case):
    inst, data, sol = chain_case
    assert ref.check_chain_solution(data, sol) == []
    assert ref.check_lagrangian(data, sol) == []
    assert ref.check_at_most(sol.objective, ref.solve_reference_lp(data), "chain vs interval") == []
    comp = A.solve_chain_lp_compressed(inst, 0.5)
    assert ref.check_chain_solution(data, comp) == []


def test_overloaded_chain_solution_trips(chain_case):
    inst, data, sol = chain_case
    chain, z = sol.chains[0]
    other = A.Chain(machine=chain.machine, job=(chain.job + 1) % data.n, slots=chain.slots)
    overloaded = dataclasses.replace(sol, chains=sol.chains + [(other, 1.0)])
    violations = ref.check_chain_solution(data, overloaded)
    assert any("load" in v for v in violations)
    short = dataclasses.replace(sol, chains=[(c, 0.5 * z) for c, z in sol.chains])
    assert any("mass" in v for v in ref.check_chain_solution(data, short))


def test_lagrangian_bound_trips_on_understated_objective(chain_case):
    inst, data, sol = chain_case
    bound = ref.lagrangian_bound(data, sol.xi, sol.horizon)
    low = dataclasses.replace(sol, objective=bound * 0.99)
    assert ref.check_lagrangian(data, low)


def test_lagrangian_bound_equals_objective_at_zero_duals():
    # With xi = 0 every job takes its cheapest earliest completion: the bound
    # is sum_j w_j * min_i (r_ij + p_ij).
    inst, data = small_doc(seed=8)
    expect = sum(data.weight[j] * min(data.release[j] + data.sizes[j]) for j in range(data.n))
    assert ref.lagrangian_bound(data, {}, data.horizon) == pytest.approx(expect)
