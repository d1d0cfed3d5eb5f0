"""Randomized rounding of interval LP solutions into non-preemptive schedules.

Per job, a (machine, start) pair is drawn from its fractional mass and an
offset theta from the chosen distribution; the pseudo-release is
tau = start + theta * size.  Each machine then runs its jobs in increasing
tau order.  Two schedules are tracked per trial:

  * the pseudo schedule (job starts at max(tau, predecessor completion)),
    the object the expectation bounds are proven for, and
  * the converted schedule (job starts at max(release, predecessor
    completion)), integral and never worse realization by realization.

The converted schedule is what the rounding returns; the pseudo cost is kept
as analysis metadata.  Trials are vectorized over a (trials, jobs) layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import OffsetDistribution
from .instance import Instance, NonPreemptiveSchedule
from .interval_lp import FractionalIntervalSolution, validate_fractional


@dataclass(frozen=True)
class RoundingDraw:
    machine: np.ndarray
    start: np.ndarray
    theta: np.ndarray
    tau: np.ndarray


@dataclass(frozen=True)
class RatioEstimate:
    mean_ratio: float
    std_error: float
    lp_objective: float
    per_job_mean_completion: np.ndarray
    per_job_sem_completion: np.ndarray
    per_job_lp_cost: np.ndarray
    mean_objective: float
    trials: int


@dataclass(frozen=True)
class IdleDiagnostic:
    grid: np.ndarray
    g: np.ndarray
    h: np.ndarray
    idle_hat: np.ndarray
    idle_sigma: np.ndarray
    trials: int


def _draw_categorical(rng: np.random.Generator, cdfs: list, trials: int) -> np.ndarray:
    """Per job, ``trials`` indices into its support drawn from its
    cumulative masses ``cdfs[j]``: one ``rng.random(trials)`` call per job,
    in job order, searched from the right and clipped to the support.
    Column j of the (trials, n) result is job j's."""
    k = np.empty((trials, len(cdfs)), dtype=np.int64)
    for j, cdf in enumerate(cdfs):
        k[:, j] = np.searchsorted(cdf, rng.random(trials), side="right")
    return np.minimum(k, [cdf.size - 1 for cdf in cdfs], out=k)


class _Sampler:
    """Categorical (machine, start) sampler per job from the y support."""

    def __init__(self, inst: Instance, sol: FractionalIntervalSolution):
        # Rounding needs per-job mass 1 and structural sanity; it does not
        # require the cover rows to hold.
        validate_fractional(inst, sol, check_cover=False)
        support = sol.support_by_job(inst)
        self.cdfs = []
        for _, _, probs in support:
            cdf = np.cumsum(probs)
            self.cdfs.append(cdf / cdf[-1])
        # Job j's support is entries offset[j]: of the flat arrays.
        self.offset = np.cumsum([0] + [cdf.size for cdf in self.cdfs[:-1]])
        self.machines = np.concatenate([machines for machines, _, _ in support]).astype(np.int64)
        self.starts = np.concatenate([starts for _, starts, _ in support]).astype(np.int64)

    def draw(self, rng: np.random.Generator, trials: int):
        k = _draw_categorical(rng, self.cdfs, trials) + self.offset
        return self.machines[k], self.starts[k]


def _sequence(machine, key, size, *releases):
    """Per machine, order jobs by key (ties by job index) and chain starts
    as max(release, predecessor completion), once per release array.  All
    arrays are (trials, n); the order is sorted and gathered once, and one
    (trials, n) float array of completion times is returned per release."""
    trials, n = machine.shape
    span = float(key.max(initial=0.0) - min(0.0, float(key.min(initial=0.0))) + 1.0)
    order = np.argsort(machine * span + key, axis=1, kind="stable")
    # Flat positions of the jobs in sorted order, laid out (n, trials) so
    # that each step of the recurrence below reads contiguous rows.
    pos = np.ascontiguousarray((order + np.arange(0, trials * n, n)[:, None]).T)
    mach_sorted = np.take(machine, pos)
    size_sorted = np.take(size, pos)
    follows = mach_sorted[1:] == mach_sorted[:-1]
    out = []
    for release in releases:
        fin = np.take(release, pos)
        fin[0] += size_sorted[0]
        for k in range(1, n):
            np.maximum(fin[k], fin[k - 1], out=fin[k], where=follows[k - 1])
            fin[k] += size_sorted[k]
        completion = np.empty((trials, n))
        completion.ravel()[pos] = fin
        out.append(completion)
    return out


def simulate_rounding(
    inst: Instance,
    sol: FractionalIntervalSolution,
    dist: OffsetDistribution,
    rng: np.random.Generator,
    trials: int,
):
    """Vectorized trials; returns (converted C, pseudo C, draw arrays)."""
    sampler = _Sampler(inst, sol)
    machine, start = sampler.draw(rng, trials)
    n = inst.num_jobs
    theta = dist.sample(rng, (trials, n))
    rel_all = inst.release_matrix()
    size = inst.sizes[np.arange(n)[None, :], machine].astype(float)
    release = rel_all[np.arange(n)[None, :], machine].astype(float)
    tau = start + theta * size
    completion_conv, completion_pseudo = _sequence(machine, tau, size, release, np.maximum(tau, release))
    return completion_conv, completion_pseudo, (machine, start, theta, tau)


def round_once(
    inst: Instance,
    sol: FractionalIntervalSolution,
    dist: OffsetDistribution,
    rng: np.random.Generator,
):
    """One rounding trial; returns the converted schedule, the draw, and
    (converted objective, pseudo objective)."""
    conv, pseudo, (machine, start, theta, tau) = simulate_rounding(inst, sol, dist, rng, 1)
    starts = (conv[0] - inst.sizes[np.arange(inst.num_jobs), machine[0]]).astype(np.int64)
    sched = NonPreemptiveSchedule(machine=machine[0], start=starts)
    draw = RoundingDraw(machine=machine[0], start=start[0], theta=theta[0], tau=tau[0])
    w = inst.weights
    return sched, draw, (float(conv[0] @ w), float(pseudo[0] @ w))


def estimate_ratio(
    inst: Instance,
    sol: FractionalIntervalSolution,
    dist: OffsetDistribution,
    trials: int,
    seed: int,
) -> RatioEstimate:
    """Monte Carlo mean of (converted objective) / (LP objective)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    conv, _, _ = simulate_rounding(inst, sol, dist, rng, trials)
    objectives = conv @ inst.weights
    ratios = objectives / sol.objective
    mean = float(ratios.mean())
    sem = float(ratios.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    per_job_sem = (
        conv.std(axis=0, ddof=1) / np.sqrt(trials) if trials > 1 else np.zeros(inst.num_jobs)
    )
    return RatioEstimate(
        mean_ratio=mean,
        std_error=sem,
        lp_objective=sol.objective,
        per_job_mean_completion=conv.mean(axis=0),
        per_job_sem_completion=per_job_sem,
        per_job_lp_cost=sol.job_lp_cost(inst),
        mean_objective=float(objectives.mean()),
        trials=trials,
    )


def busy_densities(
    inst: Instance,
    sol: FractionalIntervalSolution,
    dist: OffsetDistribution,
    job: int,
    machine: int,
    grid: np.ndarray,
):
    """g(t) and h(t) on the grid: mass-weighted offset density / CDF of the
    other jobs' support entries that would cover time t on the machine.

    Uses the normalized density (the law draws actually follow), so h is a
    true probability total and never exceeds the cover mass of 1.
    """
    mask = (sol.machine == machine) & (sol.job != job)
    starts = sol.start[mask].astype(float)
    ys = sol.value[mask]
    ps = inst.sizes[sol.job[mask], machine].astype(float)
    g = np.zeros_like(grid)
    h = np.zeros_like(grid)
    if starts.size:
        t = grid[None, :]
        s = starts[:, None]
        p = ps[:, None]
        covers = (s < t) & (t <= s + p)
        frac = np.clip((t - s) / p, 0.0, 1.0)
        fvals = dist.pdf(frac.ravel()).reshape(frac.shape) / dist.raw_mass
        hvals = dist.cdf(frac.ravel()).reshape(frac.shape) / dist.raw_mass
        g = (ys[:, None] * fvals * covers).sum(axis=0)
        h = (ys[:, None] * hvals * covers).sum(axis=0)
    return g, h


def idle_diagnostic(
    inst: Instance,
    sol: FractionalIntervalSolution,
    dist: OffsetDistribution,
    job: int,
    machine: int,
    tau: float,
    trials: int,
    seed: int = 0,
    grid_points: int = 64,
) -> IdleDiagnostic:
    """Empirical idle probability on (0, tau] conditioned on the job landing
    on the machine with pseudo-release tau, against g/h.

    Conditioning is exact: the other jobs' draws are independent of the
    fixed job's, so they are sampled unconditionally and the fixed job's
    (machine, tau) is forced.  Idleness is measured on the pseudo schedule.
    """
    if not 0.0 < tau <= sol.horizon:
        raise ValueError("tau must lie in (0, horizon]")
    grid = tau * (np.arange(1, grid_points + 1) / grid_points)
    g, h = busy_densities(inst, sol, dist, job, machine, grid)

    sampler = _Sampler(inst, sol)
    rng = np.random.default_rng(seed)
    mach, start = sampler.draw(rng, trials)
    n = inst.num_jobs
    theta = dist.sample(rng, (trials, n))
    size = inst.sizes[np.arange(n)[None, :], mach].astype(float)
    tau_all = start + theta * size
    # Force the conditioned job; its own processing cannot touch (0, tau].
    mach[:, job] = machine
    tau_all[:, job] = tau
    size[:, job] = inst.size(job, machine)

    idle = np.ones((trials, grid.size), dtype=bool)
    order = np.argsort(tau_all, axis=1, kind="stable")
    prev_fin = np.zeros(trials)
    for k in range(n):
        jk = order[:, k]
        rows = np.arange(trials)
        on_mach = mach[rows, jk] == machine
        t0 = np.maximum(tau_all[rows, jk], np.where(on_mach, prev_fin, 0.0))
        fin = t0 + size[rows, jk]
        covered = on_mach[:, None] & (jk != job)[:, None] & (t0[:, None] < grid) & (grid <= fin[:, None])
        idle &= ~covered
        prev_fin = np.where(on_mach, fin, prev_fin)
    idle_hat = idle.mean(axis=0)
    sigma = np.sqrt(idle_hat * (1.0 - idle_hat) / trials)
    return IdleDiagnostic(grid=grid, g=g, h=h, idle_hat=idle_hat, idle_sigma=sigma, trials=trials)
