"""Monte Carlo rounding in trial blocks: the same arrays and the same use
of the random stream as one unblocked batch, at and around the block
edges, support picks by comparison against a search, the idle diagnostic
against its own per-job loop, the estimators' one rounding pass, and a
bounded memory peak for the estimators and the offset sampler."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_rounding import sequence_reference
from test_rounding_golden import DISTS, GOLDEN, INST, golden_chain_solution, golden_interval_solution

from alphasched.bench import random_instance
from alphasched.chain_lp import solve_chain_lp
from alphasched.chains import chain_eval_many
from alphasched.distributions import from_spec
from alphasched.interval_lp import solve_interval_lp
from alphasched import preemptive, rounding
from alphasched.preemptive import (
    _ChainSampler,
    default_offset_distribution,
    estimate_ratio_preemptive,
    simulate_preemptive_rounding,
)
from alphasched.rounding import (
    _block_trials,
    _draw_categorical,
    _Sampler,
    busy_densities,
    estimate_ratio,
    idle_diagnostic,
    simulate_rounding,
)


# -- the library before blocking, kept as the reference -----------------------


def reference_categorical(rng, cdfs, trials):
    """One ``rng.random(trials)`` call per job, in job order."""
    k = np.empty((trials, len(cdfs)), dtype=np.int64)
    for j, cdf in enumerate(cdfs):
        k[:, j] = np.searchsorted(cdf, rng.random(trials), side="right")
    return np.minimum(k, [cdf.size - 1 for cdf in cdfs], out=k)


def first_entries(cdfs):
    """Job j's first flat support entry: the sizes of the supports before it."""
    return np.cumsum([0] + [cdf.size for cdf in cdfs[:-1]])


def reference_simulate_rounding(inst, sol, dist, rng, trials):
    """``simulate_rounding`` with every (trials, n) array at once, each
    trial sequenced on its own (``sequence_reference``)."""
    sampler = _Sampler(inst, sol)
    k = reference_categorical(rng, sampler.cdfs, trials) + first_entries(sampler.cdfs)
    machine, start = sampler.machines[k], sampler.starts[k]
    n = inst.num_jobs
    theta = dist.sample(rng, (trials, n))
    rel_all = inst.release_matrix()
    size = inst.sizes[np.arange(n)[None, :], machine].astype(float)
    release = rel_all[np.arange(n)[None, :], machine].astype(float)
    tau = start + theta * size
    completion_conv = sequence_reference(machine, tau, size, release)
    completion_pseudo = sequence_reference(machine, tau, size, np.maximum(tau, release))
    return completion_conv, completion_pseudo, (machine, start, theta, tau)


def reference_slot_matrices(inst, sol):
    """Per job, its support chains' slots as rows, padded to its longest."""
    matrices = []
    for group in sol.support_by_job(inst.num_jobs):
        matrix = np.zeros((len(group), max(len(c.slots) for c, _ in group)), dtype=np.int64)
        for k, (c, _) in enumerate(group):
            matrix[k, : len(c.slots)] = c.slots
        matrices.append(matrix)
    return matrices


def reference_simulate_preemptive_rounding(inst, sol, dist, rng, trials):
    """``simulate_preemptive_rounding`` with every (trials, n) array at once,
    one ``chain_eval_many`` call per job and each trial sequenced on its
    own (``sequence_reference``)."""
    sampler = _ChainSampler(inst, sol)
    slot_matrices = reference_slot_matrices(inst, sol)
    chain_idx = reference_categorical(rng, sampler.cdfs, trials)
    k = chain_idx + first_entries(sampler.cdfs)
    machine, size = sampler.machines[k], sampler.sizes[k]
    n = inst.num_jobs
    theta = dist.sample(rng, (trials, n))
    tau = np.empty((trials, n))
    for j in range(n):
        work = theta[:, j] * size[:, j]
        tau[:, j] = chain_eval_many(slot_matrices[j], chain_idx[:, j], work)
    completion_frac = sequence_reference(machine, tau, size, tau)
    completion_int = sequence_reference(machine, tau, size, np.ceil(tau))
    return completion_frac, completion_int, (machine, tau)


def reference_idle_hat(inst, sol, dist, job, machine, tau, trials, seed, grid_points=64):
    """``idle_diagnostic``'s idle frequencies from its former loop over the
    jobs in tau order, with every (trials, n) array at once."""
    grid = tau * (np.arange(1, grid_points + 1) / grid_points)
    rng = np.random.default_rng(seed)
    sampler = _Sampler(inst, sol)
    k = reference_categorical(rng, sampler.cdfs, trials) + first_entries(sampler.cdfs)
    mach, start, size = sampler.machines[k], sampler.starts[k], sampler.sizes[k]
    theta = dist.sample(rng, k.shape)
    tau_all = start + theta * size
    mach[:, job] = machine
    tau_all[:, job] = tau
    size[:, job] = inst.size(job, machine)
    idle = np.ones((trials, grid.size), dtype=bool)
    trial = np.arange(trials)
    order = np.argsort(tau_all, axis=1, kind="stable")
    prev_fin = np.zeros(trials)
    for i in range(inst.num_jobs):
        jk = order[:, i]
        on_mach = mach[trial, jk] == machine
        t0 = np.maximum(tau_all[trial, jk], np.where(on_mach, prev_fin, 0.0))
        fin = t0 + size[trial, jk]
        covered = on_mach[:, None] & (jk != job)[:, None] & (t0[:, None] < grid) & (grid <= fin[:, None])
        idle &= ~covered
        prev_fin = np.where(on_mach, fin, prev_fin)
    return idle.mean(axis=0)


def test_golden_trial_counts_are_not_block_multiples():
    block = _block_trials(INST.num_jobs)
    for case in GOLDEN["estimate_ratio"] + GOLDEN["estimate_ratio_preemptive"]:
        assert case["trials"] % block != 0 and case["trials"] > block


# -- support picks by comparison against the search ---------------------------


@st.composite
def cumulative_masses(draw):
    """1-64 non-decreasing entries, zero masses (repeated entries) included,
    normalized and then scaled so that the last entry lies at, just below
    or just above 1, as an unnormalized ``cumsum`` can."""
    mass = st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]) | st.floats(0.0, 1.0)
    masses = draw(st.lists(mass, min_size=1, max_size=64))
    if not any(masses):
        masses[-1] = 1.0
    cdf = np.cumsum(masses) / sum(masses)
    return cdf * draw(st.sampled_from([1.0, 1.0 - 2.0**-53, 1.0 - 1e-12, 0.999, 1.0 + 2.0**-52, 1.001]))


class QueuedUniforms:
    """Stands in for a Generator: ``random(n)`` returns the next n values."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=float), 0

    def random(self, n):
        self.used += n
        return self.values[self.used - n : self.used].copy()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(cumulative_masses(), min_size=1, max_size=4), st.integers(1, 2000), st.integers(0, 2**32 - 1))
def test_draw_categorical_counts_like_search(cdfs, trials, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _draw_categorical(rng, cdfs, trials)
    want = reference_categorical(ref_rng, cdfs, trials) + first_entries(cdfs)
    assert got.dtype == np.min_scalar_type(sum(cdf.size for cdf in cdfs) - 1)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # Uniforms on and next to every entry, where a strict comparison would
    # differ from the search.
    edges = []
    for cdf in cdfs:
        near = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)])
        edges.append(np.resize(near[near < 1.0], trials))
    got = _draw_categorical(QueuedUniforms(np.concatenate(edges)), cdfs, trials)
    want = reference_categorical(QueuedUniforms(np.concatenate(edges)), cdfs, trials) + first_entries(cdfs)
    assert np.array_equal(got, want)


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


def test_idle_diagnostic_matches_per_job_loop(instances):
    for inst, sol, _ in instances:
        block = _block_trials(inst.num_jobs)
        tau = 0.6 * sol.horizon
        for machine in range(inst.num_machines):
            for trials in (1, block - 1, block + 1, 3000):
                diag = idle_diagnostic(inst, sol, DISTS["quadratic"], 0, machine, tau, trials, seed=trials)
                want = reference_idle_hat(inst, sol, DISTS["quadratic"], 0, machine, tau, trials, trials)
                g, h = busy_densities(inst, sol, DISTS["quadratic"], 0, machine, diag.grid)
                assert np.array_equal(diag.idle_hat, want)
                assert np.array_equal(diag.idle_sigma, np.sqrt(want * (1.0 - want) / trials))
                assert np.array_equal(diag.g, g) and np.array_equal(diag.h, h)
                assert diag.trials == trials


# -- block length ---------------------------------------------------------------


BLOCK_SIZES = (64, 4096, 1 << 20)  # 1 trial per block up to every trial in one


@st.composite
def solved_instances(draw):
    """Up to 10 jobs on up to 3 machines, some pairs forbidden, with their
    interval LP solution."""
    seed = draw(st.integers(0, 2**32 - 1))
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 3))
    inst = random_instance(np.random.default_rng(seed), n, m, forbid_prob=draw(st.floats(0.0, 0.3)))
    return inst, solve_interval_lp(inst)


def at_block_sizes(fn):
    """``fn()`` once per block size in ``BLOCK_SIZES``."""
    results = []
    for size in BLOCK_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rounding, "BLOCK_BYTES", size)
            results.append(fn())
    return results


@settings(max_examples=25, deadline=None, derandomize=True)
@given(solved_instances(), st.sampled_from(sorted(DISTS)), st.integers(1, 600), st.integers(0, 2**32 - 1))
def test_seeded_results_do_not_depend_on_the_block_length(solved, dist, trials, seed):
    """Keys are machine * span + pseudo-release with one span per solution,
    so even near-ties sort alike whatever the block length."""
    inst, sol = solved
    dist = DISTS[dist]
    estimates = at_block_sizes(lambda: estimate_ratio(inst, sol, dist, trials, seed))
    fulls = at_block_sizes(lambda: simulate_rounding(inst, sol, dist, np.random.default_rng(seed), trials))
    for est in estimates[1:]:
        for field in ("mean_ratio", "std_error", "mean_objective"):
            assert float(getattr(est, field)).hex() == float(getattr(estimates[0], field)).hex()
        assert np.array_equal(est.per_job_mean_completion, estimates[0].per_job_mean_completion)
        assert np.array_equal(est.per_job_sem_completion, estimates[0].per_job_sem_completion)
    for full in fulls[1:]:
        assert_same_arrays(full, fulls[0])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(solved_instances(), st.sampled_from(sorted(DISTS)), st.integers(1, 1500), st.integers(0, 2**32 - 1))
def test_converted_completions_agree_with_and_without_full(solved, dist, trials, seed):
    inst, sol = solved
    conv, _, _ = simulate_rounding(inst, sol, DISTS[dist], np.random.default_rng(seed), trials, full=False)
    want, _, _ = simulate_rounding(inst, sol, DISTS[dist], np.random.default_rng(seed), trials)
    assert conv.dtype == want.dtype and np.array_equal(conv, want)


def test_preemptive_results_do_not_depend_on_the_block_length(instances):
    dist = default_offset_distribution()
    for inst, _, sol in instances:
        fulls = at_block_sizes(lambda: simulate_preemptive_rounding(inst, sol, dist, np.random.default_rng(5), 700))
        for full in fulls[1:]:
            assert_same_arrays(full, fulls[0])
        # The objectives alone, down to one trial per block at 64 bytes.
        reduced = at_block_sizes(
            lambda: simulate_preemptive_rounding(inst, sol, dist, np.random.default_rng(5), 700, full=False)
        )
        for got in reduced[1:]:
            for a, b in zip(got[:2], reduced[0][:2]):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b)


# -- one rounding pass ------------------------------------------------------------


def test_estimators_round_through_public_functions(monkeypatch):
    """The estimators look ``simulate_*`` up as module globals (so a
    wrapper installed on the module sees every trial) and keep only the
    completions they report."""
    calls = []

    def spy(fn):
        def wrapper(*args, **kwargs):
            calls.append((fn.__name__, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(rounding, "simulate_rounding", spy(simulate_rounding))
    monkeypatch.setattr(preemptive, "simulate_preemptive_rounding", spy(simulate_preemptive_rounding))
    est = estimate_ratio(INST, golden_interval_solution(), DISTS["uniform"], 50, 1)
    pre = estimate_ratio_preemptive(INST, golden_chain_solution(), 50, 1)
    assert calls == [("simulate_rounding", {"full": False}), ("simulate_preemptive_rounding", {"full": False})]
    assert est.trials == pre.trials == 50


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


def test_estimate_ratio_peak_below_two_arrays():
    """The converted completions it reports from, plus less than one more
    trials x jobs array: the support indices are drawn job by job and kept
    in bytes, and the deviations are taken in place."""
    trials = 50_000
    array = trials * INST.num_jobs * 8
    isol = golden_interval_solution()
    for dist in DISTS.values():
        peak = traced_peak(lambda: estimate_ratio(INST, isol, dist, trials, 1))
        assert peak < 2 * array, peak / array


def test_estimate_ratio_preemptive_peak_below_one_and_a_half_arrays(instances):
    """Each block is reduced to its trials' two objectives, so no trials x
    jobs float array is held at all."""
    inst, _, csol = instances[1]
    trials = 100_000
    array = trials * inst.num_jobs * 8
    peak = traced_peak(lambda: estimate_ratio_preemptive(inst, csol, trials, 1))
    assert peak < 1.5 * array, peak / array


@pytest.mark.parametrize("spec, budget", [("quadratic", 7), ("uniform", 2), ("clipped:0.25", 2)])
def test_sampler_peak_on_a_block(spec, budget):
    """Offsets for a (1638, 5) block: the one-piece laws hold their uniforms,
    scaled and inverted in place, and the quadratic law the uniforms, the
    Newton bracket, iterate, residual and density, and three byte masks
    (6.4 arrays of the block's float64 size), none of them allocated per
    Newton step."""
    dist = from_spec(spec)
    array = 1638 * 5 * 8
    peak = traced_peak(lambda: dist.sample(np.random.default_rng(1), (1638, 5)))
    assert peak <= budget * array, peak / array
