import math

import numpy as np
import pytest

from alphasched.distributions import OffsetDistribution
from alphasched.instance import Instance, evaluate_schedule
from alphasched.interval_lp import solution_from_triples, solve_interval_lp
from alphasched.rounding import (
    _sequence,
    _sequence_trials,
    busy_densities,
    estimate_ratio,
    idle_diagnostic,
    round_once,
    simulate_rounding,
)

QUAD = OffsetDistribution.truncated_quadratic()
UNIF = OffsetDistribution.uniform()


def make(sizes, releases, weights):
    sizes = np.asarray(sizes)
    return Instance(
        num_machines=sizes.shape[1],
        num_jobs=sizes.shape[0],
        sizes=sizes,
        releases=releases,
        weights=weights,
    )


def sequence_reference(machine, key, size, release):
    """Per trial and machine: run the jobs in (key, job index) order, each
    starting at max(release, predecessor completion)."""
    trials, n = machine.shape
    completion = np.empty((trials, n))
    for r in range(trials):
        for m in set(machine[r].tolist()):
            prev = -math.inf
            for j in sorted((j for j in range(n) if machine[r, j] == m), key=lambda j: (key[r, j], j)):
                prev = max(release[r, j], prev) + size[r, j]
                completion[r, j] = prev
    return completion


def sequence_flat(machine, key, size, *releases, out=None):
    """The kernel on per-trial arrays, keyed by machine * span + key with
    span above the keys' range."""
    span = float(np.ptp(key) + 1.0)
    finishes = [release + size for release in releases]
    return _sequence_trials(machine * span + (key - key.min()), machine, size, *finishes, out=out)


def test_sequence_kernel_matches_per_trial_reference():
    rng = np.random.default_rng(17)
    for trials, n, m in [(1, 1, 1), (40, 6, 3), (25, 9, 2), (30, 5, 4), (20, 7, 1)]:
        machine = rng.integers(0, m, (trials, n))
        key = rng.integers(-2, 6, (trials, n)) / 2.0  # few values: many ties
        size = rng.integers(1, 5, (trials, n)).astype(float)
        release = rng.integers(0, 4, (trials, n)).astype(float)
        releases = (release, np.maximum(key, release), np.ceil(key + rng.random((trials, n))))
        got = sequence_flat(machine, key, size, *releases)
        assert len(got) == len(releases)
        for completion, rel in zip(got, releases):
            assert np.array_equal(completion, sequence_reference(machine, key, size, rel))


def test_sequence_kernel_reads_entry_tables():
    # Trials share a support of 12 entries (machine, size, release); each
    # trial picks one entry per job, repeats across trials included.
    rng = np.random.default_rng(29)
    machines, sizes = rng.integers(0, 3, 12), rng.integers(1, 5, 12).astype(float)
    releases = rng.integers(0, 4, 12).astype(float)
    entries = rng.integers(0, 12, (50, 6))
    key = rng.integers(0, 6, (50, 6)) / 2.0
    (got,) = _sequence(machines[entries] * 10.0 + key, entries, machines, sizes, releases + sizes)
    want = sequence_reference(machines[entries], key, sizes[entries], releases[entries])
    assert np.array_equal(got, want)


def test_sequence_writes_into_non_contiguous_out():
    # A flat view of an array that is not C-contiguous is a copy, so writing
    # through it would lose the completions.
    rng = np.random.default_rng(23)
    machine = rng.integers(0, 3, (30, 7))
    key = rng.integers(0, 8, (30, 7)) / 2.0
    size = rng.integers(1, 5, (30, 7)).astype(float)
    release = rng.integers(0, 4, (30, 7)).astype(float)
    out = (np.empty((7, 30)).T, np.empty((30, 14))[:, ::2])
    got = sequence_flat(machine, key, size, release, release + key, out=out)
    assert got is out and not any(o.flags.c_contiguous for o in out)
    for completion, rel in zip(out, (release, release + key)):
        assert np.array_equal(completion, sequence_reference(machine, key, size, rel))


def test_single_job_deterministic():
    inst = make([[3]], [0], [1.0])
    sol = solve_interval_lp(inst)
    for seed in range(5):
        sched, draw, (conv, pseudo) = round_once(inst, sol, QUAD, np.random.default_rng(seed))
        assert sched.start.tolist() == [0]
        assert conv == 3.0
        assert draw.tau[0] == pytest.approx(draw.theta[0] * 3.0)
    est = estimate_ratio(inst, sol, QUAD, trials=200, seed=0)
    assert est.mean_ratio == 1.0
    assert est.std_error == 0.0


def test_two_unit_jobs_tau_order():
    # Both jobs put all mass at start 0 (legal input for rounding even
    # though it violates the cover rows): the tau winner completes at 1,
    # the loser at 2, each order with probability 1/2 by symmetry.
    from alphasched.interval_lp import FractionalIntervalSolution

    inst = make([[1], [1]], [0, 0], [3.0, 1.0])
    sol = FractionalIntervalSolution(
        machine=np.array([0, 0]),
        job=np.array([0, 1]),
        start=np.array([0, 0]),
        value=np.array([1.0, 1.0]),
        objective=3.0 * 1 + 1.0 * 1,
        horizon=2,
    )
    trials = 40_000
    conv, _, _ = simulate_rounding(inst, sol, UNIF, np.random.default_rng(1), trials)
    objective = conv @ inst.weights
    assert set(np.round(objective, 9)) <= {5.0, 7.0}  # 3*1+1*2 or 3*2+1*1
    p_first = (objective == 5.0).mean()
    assert abs(p_first - 0.5) <= 3 * math.sqrt(0.25 / trials)


def test_assignment_marginals_match_y():
    inst = make([[2, 3], [1, 2]], [0, 0], [1.0, 1.0])
    sol = solve_interval_lp(inst)
    trials = 100_000
    _, _, (machine, start, _, _) = simulate_rounding(
        inst, sol, UNIF, np.random.default_rng(3), trials
    )
    for m_, j_, s_, y in zip(sol.machine, sol.job, sol.start, sol.value):
        hits = ((machine[:, j_] == m_) & (start[:, j_] == s_)).mean()
        sem = math.sqrt(max(y * (1 - y), 1e-12) / trials)
        assert abs(hits - y) <= 4 * sem + 1e-9


def test_converted_never_worse_than_pseudo():
    rng = np.random.default_rng(9)
    inst = make(rng.integers(1, 6, size=(5, 2)), rng.integers(0, 7, size=5), rng.uniform(1, 4, 5))
    sol = solve_interval_lp(inst)
    conv, pseudo, _ = simulate_rounding(inst, sol, QUAD, np.random.default_rng(0), 5000)
    assert (conv <= pseudo + 1e-9).all()


def test_round_once_schedule_validates():
    rng = np.random.default_rng(14)
    for seed in range(10):
        inst = make(
            rng.integers(1, 6, size=(4, 2)), rng.integers(0, 6, size=4), rng.uniform(1, 4, 4)
        )
        sol = solve_interval_lp(inst)
        sched, _, (conv_obj, _) = round_once(inst, sol, QUAD, np.random.default_rng(seed))
        cost = evaluate_schedule(inst, sched)
        assert cost.objective == pytest.approx(conv_obj)


def test_mean_ratio_within_guarantees():
    rng = np.random.default_rng(99)
    inst = make(rng.integers(1, 7, size=(6, 2)), rng.integers(0, 9, size=6), rng.uniform(1, 5, 6))
    sol = solve_interval_lp(inst)
    eq = estimate_ratio(inst, sol, QUAD, trials=20_000, seed=5)
    assert eq.mean_ratio <= 1.8786 + 3 * eq.std_error
    eu = estimate_ratio(inst, sol, UNIF, trials=20_000, seed=5)
    assert eu.mean_ratio <= 2.0 + 3 * eu.std_error


def test_per_job_expected_completion_bound():
    alpha = QUAD.stats().alpha
    rng = np.random.default_rng(23)
    inst = make(rng.integers(1, 6, size=(5, 2)), rng.integers(0, 8, size=5), rng.uniform(1, 5, 5))
    sol = solve_interval_lp(inst)
    est = estimate_ratio(inst, sol, QUAD, trials=30_000, seed=8)
    bound = alpha * est.per_job_lp_cost + 3 * est.per_job_sem_completion
    assert (est.per_job_mean_completion <= bound + 1e-9).all()


def test_g_integral_matches_expected_earlier_volume():
    # int_0^tau g(t) dt equals the expected size of other jobs with smaller
    # tau landing on the machine.  One contended machine keeps the LP
    # solution genuinely fractional.
    rng = np.random.default_rng(31)
    inst = make(rng.integers(2, 6, size=(5, 1)), rng.integers(0, 4, size=5), rng.uniform(1, 3, 5))
    sol = solve_interval_lp(inst)
    job, machine, tau = 0, 0, 6.7
    fine = np.linspace(1e-9, tau, 80_001)
    g, _ = busy_densities(inst, sol, QUAD, job, machine, fine)
    integral = float(np.trapezoid(g, fine))

    trials = 60_000
    _, _, (mach, start, theta, taus) = simulate_rounding(
        inst, sol, QUAD, np.random.default_rng(2), trials
    )
    others = [j for j in range(inst.num_jobs) if j != job]
    sizes = inst.sizes[others, machine]
    sel = (mach[:, others] == machine) & (taus[:, others] < tau)
    volume = (sel * sizes).sum(axis=1)
    sem = volume.std(ddof=1) / math.sqrt(trials)
    assert volume.std() > 0  # the check must exercise real randomness
    # 3 sigma for the Monte Carlo side plus the quadrature discretization
    assert abs(volume.mean() - integral) <= 3 * sem + 2e-3


def test_idle_diagnostic_bounds():
    rng = np.random.default_rng(41)
    inst = make(rng.integers(1, 6, size=(5, 2)), rng.integers(0, 6, size=5), np.ones(5))
    sol = solve_interval_lp(inst)
    diag = idle_diagnostic(inst, sol, QUAD, job=0, machine=0, tau=9.0, trials=30_000, seed=3)
    assert (diag.h <= 1.0 + 1e-9).all()
    assert (diag.idle_hat <= np.exp(-diag.h) + 3 * diag.idle_sigma + 1e-12).all()


def test_idle_diagnostic_empty_machine():
    inst = make([[3, 3]], [0], [1.0])
    sol = solution_from_triples(inst, [(0, 0, 0, 1.0)])
    # At tau 0.3 the conditioned job's start, read back as completion -
    # size = 3.3 - 3, rounds below tau; its own processing still never
    # counts as busy.
    for tau in (3.0, 0.3):
        diag = idle_diagnostic(inst, sol, QUAD, job=0, machine=1, tau=tau, trials=500, seed=0)
        assert (diag.g == 0).all() and (diag.h == 0).all()
        assert (diag.idle_hat == 1.0).all()  # e^0 = 1


def test_idle_diagnostic_busy_interval_excludes_its_start():
    # Offsets below 1e-17 leave job 1's start at exactly 2.0, a grid point;
    # its busy interval is (2, 5], so t = 2 is idle.
    dist = OffsetDistribution([0.0, 1e-17, 1.0], [[1e17], [0.0]])
    inst = make([[1], [3]], [5, 0], [1.0, 1.0])
    sol = solution_from_triples(inst, [(0, 0, 5, 1.0), (0, 1, 2, 1.0)])
    diag = idle_diagnostic(inst, sol, dist, job=0, machine=0, tau=8.0, trials=200, seed=0, grid_points=8)
    assert diag.grid.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    assert diag.idle_hat.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]


def _uniform_limitation_gadget(eps_inv: int, r: int, p: int):
    """One unit job spread across eps_inv machines against big jobs parked at
    0; the classic witness that uniform offsets lose a factor near 2."""
    m = eps_inv + 1
    n = 1 + eps_inv
    sizes = np.full((n, m), -1, dtype=np.int64)
    sizes[0, :eps_inv] = 1
    for k in range(eps_inv):
        sizes[1 + k, k] = p
        sizes[1 + k, eps_inv] = p
    releases = np.array([r] + [0] * eps_inv)
    weights = np.array([1.0] + [1e-9] * eps_inv)
    inst = Instance(num_machines=m, num_jobs=n, sizes=sizes, releases=releases, weights=weights)
    eps = 1.0 / eps_inv
    triples = [(k, 0, r, eps) for k in range(eps_inv)]
    for k in range(eps_inv):
        triples.append((k, 1 + k, 0, 1 - eps))
        triples.append((eps_inv, 1 + k, 0, eps))
    return inst, solution_from_triples(inst, triples)


def test_uniform_offsets_push_small_job_toward_2r():
    # Expected start of the unit job under uniform offsets:
    # (1 - eps)(r + 1/2) + (1 - (1 - eps)(r + 1/2)/p) * r, which approaches
    # 2r as eps -> 0 and p -> infinity.
    eps_inv, r, p = 10, 10, 1000
    inst, sol = _uniform_limitation_gadget(eps_inv, r, p)
    eps = 1.0 / eps_inv
    pr_big_first = (r + 0.5) / p
    exact = (1 - eps) * pr_big_first * p + (1 - (1 - eps) * pr_big_first) * r

    trials = 40_000
    conv, _, (mach, _, _, taus) = simulate_rounding(
        inst, sol, UNIF, np.random.default_rng(17), trials
    )
    starts = conv[:, 0] - 1.0
    sem = starts.std(ddof=1) / math.sqrt(trials)
    assert abs(starts.mean() - exact) <= 3 * sem
    assert exact > 1.85 * r  # the gadget really does approach 2r


def test_invalid_fractional_solution_refused():
    inst = make([[2]], [0], [1.0])
    sol = solve_interval_lp(inst)
    bad = type(sol)(
        machine=sol.machine,
        job=sol.job,
        start=sol.start,
        value=sol.value * 0.5,
        objective=sol.objective,
        horizon=sol.horizon,
    )
    with pytest.raises(Exception, match="assignment mass"):
        estimate_ratio(inst, bad, QUAD, trials=10, seed=0)


@pytest.mark.parametrize("trials", [0, -2])
def test_trial_counts_below_one_are_refused(trials):
    inst = make([[2, 3], [1, 4]], [0, 1], [1.0, 2.0])
    sol = solve_interval_lp(inst)
    calls = [
        lambda: simulate_rounding(inst, sol, QUAD, np.random.default_rng(0), trials),
        lambda: simulate_rounding(inst, sol, QUAD, np.random.default_rng(0), trials, full=False),
        lambda: estimate_ratio(inst, sol, QUAD, trials, 0),
        lambda: idle_diagnostic(inst, sol, QUAD, job=0, machine=0, tau=2.0, trials=trials),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="need at least one trial"):
            call()
