"""Rounding chain LP solutions into non-preemptive schedules.

Each job samples one of its chains with probability z (renormalized when a
job's chain mass exceeds 1), draws theta from a clipped-uniform distribution
(default clip 1/5100), and takes pseudo-release tau = A(theta * p).  Machines
run their jobs in increasing tau order with every start held at or after tau;
that fractional-start schedule is the object the ratio bound is proven for
and is the cost used by the estimator.  The emitted schedule additionally
rounds each start up to the next integer and re-packs in the same order,
which never violates a release (tau always exceeds it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_lp import ChainLpError, ChainSolution
from .chains import chain_eval_many
from .distributions import OffsetDistribution
from .instance import Instance, NonPreemptiveSchedule
from .rounding import _run_trials, _sequence

DEFAULT_CLIP = 1.0 / 5100.0


def default_offset_distribution() -> OffsetDistribution:
    return OffsetDistribution.clipped_uniform(DEFAULT_CLIP)


@dataclass(frozen=True)
class PreemptiveRatioEstimate:
    mean_ratio: float
    std_error: float
    lp_objective: float
    mean_objective: float
    mean_integral_objective: float
    trials: int


class _ChainSampler:
    """Per-job categorical over solution chains, padded for vector lookups."""

    def __init__(self, inst: Instance, sol: ChainSolution):
        self.cdfs, self.slot_matrices, machines, sizes = [], [], [], []
        for j, group in enumerate(sol.support_by_job(inst.num_jobs)):
            if not group:
                raise ChainLpError(f"job {j} has no chain in the solution")
            mass = sum(z for _, z in group)
            if mass < 1.0 - 1e-6:
                raise ChainLpError(f"job {j} chain mass {mass:.8f} below 1")
            self.cdfs.append(np.cumsum(np.array([z for _, z in group]) / mass))
            machines.extend(c.machine for c, _ in group)
            sizes.extend(len(c.slots) for c, _ in group)
            slot_matrix = np.zeros((len(group), max(len(c.slots) for c, _ in group)), dtype=np.int64)
            for k, (c, _) in enumerate(group):
                slot_matrix[k, : len(c.slots)] = c.slots
            self.slot_matrices.append(slot_matrix)
        # Job j's chains are entries offset[j]: of the flat arrays.
        self.offset = np.cumsum([0] + [cdf.size for cdf in self.cdfs[:-1]])
        self.machines = np.array(machines, dtype=np.int64)
        self.sizes = np.array(sizes, dtype=float)


def _preemptive_trials(inst, sol, dist, rng, trials, full):
    """Fractional-start and integral completions of ``trials`` trials, then
    the draws (machine, tau) when ``full``, None otherwise."""
    sampler = _ChainSampler(inst, sol)
    shape = (trials, inst.num_jobs)
    frac, integral = np.empty(shape), np.empty(shape)
    draws = (np.empty(shape, np.int64), np.empty(shape)) if full else None

    def step(rows, chain_idx, theta):
        k = chain_idx + sampler.offset
        machine, size = sampler.machines[k], sampler.sizes[k]
        tau = np.empty(theta.shape)
        for j, slot_matrix in enumerate(sampler.slot_matrices):
            tau[:, j] = chain_eval_many(slot_matrix, chain_idx[:, j], theta[:, j] * size[:, j])
        _sequence(machine, tau, size, tau, np.ceil(tau), out=(frac[rows], integral[rows]))
        if full:
            draws[0][rows], draws[1][rows] = machine, tau

    _run_trials(rng, sampler.cdfs, dist, trials, step)
    return frac, integral, draws


def simulate_preemptive_rounding(
    inst: Instance,
    sol: ChainSolution,
    dist: OffsetDistribution,
    rng: np.random.Generator,
    trials: int,
):
    """Returns (fractional-start completions, integral completions, tau)."""
    return _preemptive_trials(inst, sol, dist, rng, trials, full=True)


def round_preemptive_once(
    inst: Instance,
    sol: ChainSolution,
    dist: OffsetDistribution | None = None,
    rng: np.random.Generator | None = None,
):
    """One trial; returns the integral schedule plus (fractional objective,
    integral objective, tau draws)."""
    dist = dist or default_offset_distribution()
    rng = rng if rng is not None else np.random.default_rng()
    frac, integral, (machine, tau) = simulate_preemptive_rounding(inst, sol, dist, rng, 1)
    sizes = inst.sizes[np.arange(inst.num_jobs), machine[0]]
    starts = np.rint(integral[0] - sizes).astype(np.int64)
    sched = NonPreemptiveSchedule(machine=machine[0], start=starts)
    w = inst.weights
    return sched, float(frac[0] @ w), float(integral[0] @ w), tau[0]


def estimate_ratio_preemptive(
    inst: Instance,
    sol: ChainSolution,
    trials: int,
    seed: int,
    dist: OffsetDistribution | None = None,
) -> PreemptiveRatioEstimate:
    """Monte Carlo mean of (fractional-start objective) / (chain LP value)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    dist = dist or default_offset_distribution()
    rng = np.random.default_rng(seed)
    frac, integral, _ = _preemptive_trials(inst, sol, dist, rng, trials, full=False)
    w = inst.weights
    objectives = frac @ w
    ratios = objectives / sol.objective
    sem = float(ratios.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return PreemptiveRatioEstimate(
        mean_ratio=float(ratios.mean()),
        std_error=sem,
        lp_objective=sol.objective,
        mean_objective=float(objectives.mean()),
        mean_integral_objective=float((integral @ w).mean()),
        trials=trials,
    )
