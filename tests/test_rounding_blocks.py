"""Monte Carlo rounding in trial blocks: the same arrays and the same use
of the random stream as one unblocked batch, at and around the block
edges, and a bounded memory peak for the estimators."""

import tracemalloc

import numpy as np
import pytest
from test_rounding_golden import DISTS, GOLDEN, INST, golden_chain_solution, golden_interval_solution

from alphasched.bench import random_instance
from alphasched.chain_lp import solve_chain_lp
from alphasched.chains import chain_eval_many
from alphasched.interval_lp import solve_interval_lp
from alphasched.preemptive import (
    _ChainSampler,
    default_offset_distribution,
    estimate_ratio_preemptive,
    simulate_preemptive_rounding,
)
from alphasched.rounding import _block_trials, _Sampler, _sequence, estimate_ratio, simulate_rounding


# -- the library before blocking, kept as the reference -----------------------


def reference_categorical(rng, cdfs, trials):
    """One ``rng.random(trials)`` call per job, in job order."""
    k = np.empty((trials, len(cdfs)), dtype=np.int64)
    for j, cdf in enumerate(cdfs):
        k[:, j] = np.searchsorted(cdf, rng.random(trials), side="right")
    return np.minimum(k, [cdf.size - 1 for cdf in cdfs], out=k)


def reference_simulate_rounding(inst, sol, dist, rng, trials):
    """``simulate_rounding`` with every (trials, n) array at once."""
    sampler = _Sampler(inst, sol)
    k = reference_categorical(rng, sampler.cdfs, trials) + sampler.offset
    machine, start = sampler.machines[k], sampler.starts[k]
    n = inst.num_jobs
    theta = dist.sample(rng, (trials, n))
    rel_all = inst.release_matrix()
    size = inst.sizes[np.arange(n)[None, :], machine].astype(float)
    release = rel_all[np.arange(n)[None, :], machine].astype(float)
    tau = start + theta * size
    completion_conv, completion_pseudo = _sequence(machine, tau, size, release, np.maximum(tau, release))
    return completion_conv, completion_pseudo, (machine, start, theta, tau)


def reference_simulate_preemptive_rounding(inst, sol, dist, rng, trials):
    """``simulate_preemptive_rounding`` with every (trials, n) array at once."""
    sampler = _ChainSampler(inst, sol)
    chain_idx = reference_categorical(rng, sampler.cdfs, trials)
    k = chain_idx + sampler.offset
    machine, size = sampler.machines[k], sampler.sizes[k].astype(np.int64)
    n = inst.num_jobs
    theta = dist.sample(rng, (trials, n))
    tau = np.empty((trials, n))
    for j in range(n):
        work = theta[:, j] * size[:, j]
        tau[:, j] = chain_eval_many(sampler.slot_matrices[j], chain_idx[:, j], work)
    completion_frac, completion_int = _sequence(machine, tau, size.astype(float), tau, np.ceil(tau))
    return completion_frac, completion_int, (machine, tau)


def test_golden_trial_counts_are_not_block_multiples():
    block = _block_trials(INST.num_jobs)
    for case in GOLDEN["estimate_ratio"] + GOLDEN["estimate_ratio_preemptive"]:
        assert case["trials"] % block != 0 and case["trials"] > block


# -- block edges against the unblocked reference -------------------------------


def block_edge_trials(n):
    block = _block_trials(n)
    return [1, block - 1, block, block + 1, 5 * block // 2]


def assert_same_arrays(got, want):
    got_flat = [got[0], got[1], *got[2]]
    want_flat = [want[0], want[1], *want[2]]
    assert len(got_flat) == len(want_flat)
    for a, b in zip(got_flat, want_flat):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def instances():
    """The golden fixture (8 jobs) and a solved 5-job instance with a
    different block length."""
    other = random_instance(np.random.default_rng(17), 5, 3)
    return [
        (INST, golden_interval_solution(), golden_chain_solution()),
        (other, solve_interval_lp(other), solve_chain_lp(other)),
    ]


@pytest.mark.parametrize("dist", ["quadratic", "uniform"])
def test_simulate_rounding_blocks_match_unblocked(instances, dist):
    for inst, sol, _ in instances:
        for trials in block_edge_trials(inst.num_jobs):
            rng, ref_rng = np.random.default_rng(trials), np.random.default_rng(trials)
            got = simulate_rounding(inst, sol, DISTS[dist], rng, trials)
            want = reference_simulate_rounding(inst, sol, DISTS[dist], ref_rng, trials)
            assert_same_arrays(got, want)
            assert rng.random() == ref_rng.random()


def test_simulate_preemptive_rounding_blocks_match_unblocked(instances):
    dist = default_offset_distribution()
    for inst, _, sol in instances:
        for trials in block_edge_trials(inst.num_jobs):
            rng, ref_rng = np.random.default_rng(trials), np.random.default_rng(trials)
            got = simulate_preemptive_rounding(inst, sol, dist, rng, trials)
            want = reference_simulate_preemptive_rounding(inst, sol, dist, ref_rng, trials)
            assert_same_arrays(got, want)
            assert rng.random() == ref_rng.random()


# -- memory -----------------------------------------------------------------------


def traced_peak(fn) -> int:
    fn()  # caches and lazily built tables stay out of the measurement
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimators_hold_few_full_size_arrays():
    """At 50,000 trials each estimator holds the arrays it reports from
    (the converted completions; the fractional and integral ones), the
    categorical uniforms, and less than one more full-size array of block
    temporaries and statistics: at most 4 arrays of trials x jobs floats,
    and 3 for ``estimate_ratio``, so that one more full-size temporary
    exceeds either budget."""
    trials = 50_000
    array = trials * INST.num_jobs * 8
    isol, csol = golden_interval_solution(), golden_chain_solution()
    for dist in DISTS.values():
        peak = traced_peak(lambda: estimate_ratio(INST, isol, dist, trials, 1))
        assert peak <= 3 * array, peak / array
    peak = traced_peak(lambda: estimate_ratio_preemptive(INST, csol, trials, 1))
    assert peak <= 4 * array, peak / array
