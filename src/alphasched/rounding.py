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
as analysis metadata.

``simulate_rounding`` is the one rounding pass: ``round_once``, the
estimator and the CLI all call it.  With ``full=False`` it keeps only the
converted completions, which is all ``estimate_ratio`` reports.

Trials run in blocks (``_run_trials``, shared with the chain LP rounding of
``preemptive`` and with ``idle_diagnostic``): each block's (block trials,
jobs) arrays take 32 KiB, so they stay in cache and the allocator reuses
them instead of page-faulting fresh ones in.  Only the support entries are
drawn for every trial up front, job by job, in the smallest unsigned dtype
that holds them.  The random stream is that of one unblocked batch, and a
seeded result does not depend on the block length: what sequencing needs
per support entry (``_Sampler``), the sort key's base and scale included,
is built once per solution, so no key depends on the block it falls in.
Every machine's jobs are sequenced by ``_sequence``, one kernel for every
caller.
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


# Trials run in blocks whose (trials x jobs) float64 arrays take this many
# bytes: a block's temporaries stay in cache, and the allocator reuses them
# from block to block instead of page-faulting fresh ones in on every call.
# The quadratic sampler peaks at about 2 such arrays (tracemalloc: the
# generator's and one more) and the sequencing at about 4, with one finish
# table or two.  16 and 64 KiB blocks were slower: a pass of the np-round
# corpus's 40 estimates (5,000 trials each, best of 7) took a median 0.085
# and 0.077 s against 0.071 s at 32 KiB, which won 7 of 8 alternating
# rounds against each; at 64 KiB every pass page-faulted 5,372 times, at
# 32 KiB none (2-core machine, one BLAS thread).
BLOCK_BYTES = 32 * 1024


def _block_trials(n: int) -> int:
    """Trials per block for ``n`` jobs."""
    return max(1, BLOCK_BYTES // (8 * max(n, 1)))


def _draw_categorical(rng: np.random.Generator, cdfs: list, trials: int) -> np.ndarray:
    """Per job j, ``trials`` flat support entries drawn from its cumulative
    masses ``cdfs[j]`` by one ``rng.random(trials)`` call, in job order.
    Job j's entries are numbered after those of the jobs before it, in the
    order of its cdf.  A draw u picks the number of entries of
    ``cdfs[j][:-1]`` at or below it, counted by comparison: the index a
    right-sided search of the whole cdf finds, clipped to the support.
    Column j of the (trials, n) result is job j's, in the smallest unsigned
    dtype that holds every entry."""
    dtype = np.min_scalar_type(sum(cdf.size for cdf in cdfs) - 1)
    k = np.empty((trials, len(cdfs)), dtype)
    count = np.empty(trials, dtype)
    first = 0
    for j, cdf in enumerate(cdfs):
        u = rng.random(trials)
        count.fill(first)
        for c in cdf[:-1]:
            count += u >= c
        k[:, j] = count
        first += cdf.size
    return k


def _run_trials(
    rng: np.random.Generator, cdfs: list, dist: OffsetDistribution, trials: int, step, arrays=()
) -> list:
    """The Monte Carlo loop of both rounding paths.

    Every job's support entries are drawn first (``_draw_categorical``), the
    same stream as one ``rng.random((n, trials))`` call.  The trials then
    run in blocks of ``_block_trials(n)``; each block draws its (block, n)
    offsets with ``dist.sample``, so the blocks consume the offset stream in
    trial order, as one (trials, n) draw would.  Returns one array of shape
    (trials, *shape) per (dtype, shape) entry of ``arrays``; ``step(e,
    theta, *outs)`` gets a block's int64 flat support entries, its offsets
    (its own to overwrite) and its rows of those arrays, which it fills."""
    if trials < 1:
        raise ValueError("need at least one trial")
    outs = [np.empty((trials, *shape), dtype) for dtype, shape in arrays]
    entries = _draw_categorical(rng, cdfs, trials)
    block = _block_trials(len(cdfs))
    for lo in range(0, trials, block):
        rows = slice(lo, min(lo + block, trials))
        e = entries[rows].astype(np.int64)
        step(e, dist.sample(rng, e.shape), *(out[rows] for out in outs))
    return outs


def _ratio_stats(objectives: np.ndarray, lp_objective: float):
    """Mean and standard error of the trials' objective / LP objective."""
    ratios = objectives / lp_objective
    sem = float(ratios.std(ddof=1) / np.sqrt(ratios.size)) if ratios.size > 1 else 0.0
    return float(ratios.mean()), sem


class _Sampler:
    """Categorical (machine, start) sampler per job from the y support, and
    per support entry what sequencing needs, built once per solution.

    Job j's support is a run of flat entries, in the solution's order, and
    ``cdfs[j]`` its cumulative masses.  Per entry: its machine, start, size
    and release on that machine, the finish offset release + size, and the
    sort base machine * span + start.  ``span`` exceeds every start + size,
    so the key base + theta * size of a pseudo-release puts each machine's
    entries after those of every lower machine."""

    def __init__(self, inst: Instance, sol: FractionalIntervalSolution):
        # Rounding needs per-job mass 1 and structural sanity; it does not
        # require the cover rows to hold.
        validate_fractional(inst, sol, check_cover=False)
        order = np.argsort(sol.job, kind="stable")
        ends = np.cumsum(np.bincount(sol.job, minlength=inst.num_jobs))
        self.cdfs = [cdf / cdf[-1] for cdf in map(np.cumsum, np.split(sol.value[order], ends[:-1]))]
        jobs, self.machines = sol.job[order], sol.machine[order].astype(np.int64)
        self.starts = sol.start[order].astype(np.int64)
        self.sizes = inst.sizes[jobs, self.machines].astype(float)
        self.releases = inst.release_matrix()[jobs, self.machines].astype(float)
        self.finish = self.releases + self.sizes
        self.span = float((self.starts + self.sizes).max(initial=0.0) + 1.0)
        self.base = self.machines * self.span + self.starts


def _sequence(key, entries, machines, sizes, *finishes, out=None):
    """Per machine, order jobs by key (ties by job index) and chain each
    job's finish as max(release, predecessor completion) + size, once per
    finish table.

    ``key`` and ``entries`` are (trials, n); ``entries`` index the 1-D
    tables ``machines``, ``sizes`` and each of ``finishes`` (release +
    size), None standing for each job's own flat position.  The key must
    keep machines apart, each machine's keys below the next one's (machine
    * span + pseudo-release).  The order is sorted and its entries gathered
    once, and one (trials, n) float array of completion times is returned
    per finish table, written into the arrays of ``out`` when given."""
    trials, n = key.shape
    # Flat positions of the jobs in sorted order, laid out (n, trials) so
    # that each step of the recurrence below reads contiguous rows.
    pos = np.argsort(key, axis=1, kind="stable")
    pos += np.arange(0, trials * n, n)[:, None]
    pos = np.ascontiguousarray(pos.T)
    sorted_entries = pos if entries is None else np.take(entries, pos)
    # Job k completes at max(r + p, C + gated), C its predecessor's, gated p
    # where it follows that job on its machine and -inf where it starts the
    # machine: bit for bit max(r, C) + p or r + p, as rounding is monotone.
    gated = np.take(sizes, sorted_entries[1:])
    machine = np.take(machines, sorted_entries)
    gated[machine[1:] != machine[:-1]] = -np.inf
    del machine
    chained = np.empty(trials)
    if out is None:
        out = [np.empty((trials, n)) for _ in finishes]
    for finish, completion in zip(finishes, out):
        fin = np.take(finish, sorted_entries)
        for k in range(1, n):
            np.add(fin[k - 1], gated[k - 1], out=chained)
            np.maximum(fin[k], chained, out=fin[k])
        # A flat view where there is one: faster than np.put or .flat.
        (completion.reshape(-1) if completion.flags.c_contiguous else completion.flat)[pos] = fin
    return out


def _sequence_trials(key, machine, size, *finishes, out=None):
    """``_sequence`` of per-trial (trials, n) arrays, passed flattened as
    the entry tables: each job's entry is its own flat position."""
    return _sequence(key, None, *(t.reshape(-1) for t in (machine, size, *finishes)), out=out)


def simulate_rounding(
    inst: Instance,
    sol: FractionalIntervalSolution,
    dist: OffsetDistribution,
    rng: np.random.Generator,
    trials: int,
    full: bool = True,
):
    """Vectorized trials; returns (converted C, pseudo C, draw arrays).

    The draws are (machine, start, theta, tau).  With ``full=False`` only
    the converted completions are kept, and None stands for the rest."""
    sampler = _Sampler(inst, sol)

    def step(e, theta, conv, pseudo=None, *draws):
        size = sampler.sizes[e]
        if not full:
            # The key in place of the offsets: base + theta * size.
            np.multiply(theta, size, out=theta)
            theta += sampler.base[e]
            _sequence(theta, e, sampler.machines, sampler.sizes, sampler.finish, out=(conv,))
            return
        work = theta * size
        machine, start, release = sampler.machines[e], sampler.starts[e], sampler.releases[e]
        tau = start + work
        pseudo_finish = np.maximum(tau, release) + size
        key = sampler.base[e] + work
        _sequence_trials(key, machine, size, sampler.finish[e], pseudo_finish, out=(conv, pseudo))
        for kept, block in zip(draws, (machine, start, theta, tau)):
            kept[...] = block

    dtypes = (float, float, np.int64, np.int64, float, float) if full else (float,)
    arrays = [(dtype, (inst.num_jobs,)) for dtype in dtypes]
    conv, *rest = _run_trials(rng, sampler.cdfs, dist, trials, step, arrays)
    return (conv, rest[0], tuple(rest[1:])) if full else (conv, None, None)


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
    conv, _, _ = simulate_rounding(inst, sol, dist, np.random.default_rng(seed), trials, full=False)
    objectives = conv @ inst.weights
    mean, sem = _ratio_stats(objectives, sol.objective)
    # conv.mean(axis=0) and conv.std(axis=0, ddof=1) to the bit, with the
    # deviations taken in place on the array this function owns.  The
    # converted completions are integers, so while a job's column sums to
    # less than 2**53 every partial sum is exact, and the one product gives
    # the mean in any summation order.  The deviations' sum keeps its order.
    per_job_mean = (np.ones(trials) @ conv) / trials
    per_job_sem = np.zeros(inst.num_jobs)
    if trials > 1:
        conv -= per_job_mean
        np.square(conv, out=conv)
        per_job_sem = np.sqrt(np.add.reduce(conv, axis=0) / (trials - 1)) / np.sqrt(trials)
    return RatioEstimate(
        mean_ratio=mean,
        std_error=sem,
        lp_objective=sol.objective,
        per_job_mean_completion=per_job_mean,
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
    idle = np.zeros(grid.size, dtype=np.int64)

    # The forced tau may lie past every support entry's start + size.
    span = max(sampler.span, tau + 1.0)

    def step(e, theta):
        mach, size = sampler.machines[e], sampler.sizes[e]
        tau_all = sampler.starts[e] + theta * size
        # Force the conditioned job; its own processing cannot touch (0, tau].
        mach[:, job], tau_all[:, job], size[:, job] = machine, tau, inst.size(job, machine)
        # The pseudo schedule: every job released at its tau.
        (fin,) = _sequence_trials(mach * span + tau_all, mach, size, tau_all + size)
        others = mach == machine
        others[:, job] = False  # completion - size may round below tau
        busy = others[:, :, None] & ((fin - size)[:, :, None] < grid) & (grid <= fin[:, :, None])
        idle[...] += e.shape[0] - busy.any(axis=1).sum(axis=0)

    _run_trials(np.random.default_rng(seed), sampler.cdfs, dist, trials, step)
    idle_hat = idle / trials
    sigma = np.sqrt(idle_hat * (1.0 - idle_hat) / trials)
    return IdleDiagnostic(grid=grid, g=g, h=h, idle_hat=idle_hat, idle_sigma=sigma, trials=trials)
