"""Rounding chain LP solutions into non-preemptive schedules.

Each job samples one of its chains with probability z (renormalized when a
job's chain mass exceeds 1), draws theta from a clipped-uniform distribution
(default clip 1/5100), and takes pseudo-release tau = A(theta * p).  Machines
run their jobs in increasing tau order with every start held at or after tau;
that fractional-start schedule is the object the ratio bound is proven for
and is the cost used by the estimator.  The emitted schedule additionally
rounds each start up to the next integer and re-packs in the same order,
which never violates a release (tau always exceeds it).

``simulate_preemptive_rounding`` is the one rounding pass: the replay, the
estimator and the CLI all call it.  With ``full=False`` it keeps only the
trials' fractional-start and integral objectives, which is all
``estimate_ratio_preemptive`` and the CLI report.  Trials run in blocks
through ``rounding._run_trials``, and the machines are sequenced by
``rounding._sequence``, its per-trial arrays passed as entry tables.

Per block, v = theta * p is formed in place of the block's offsets, and
``chains.chain_eval_many`` reads each A(v) by one take on the flat slot
table of the solution's chains.  Without ``full``, the block's fractional
and integral completions are sequenced into one stacked (2, block, n)
buffer, and ``_objectives`` reduces both in one pass over the jobs into
one (2, block) buffer; both buffers are made once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_lp import ChainLpError, ChainSolution
from .chains import chain_eval_many
from .distributions import OffsetDistribution
from .instance import Instance, NonPreemptiveSchedule
from .rounding import _block_trials, _ratio_stats, _run_trials, _sequence_trials

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
    """Per-job categorical over solution chains.  Job j's chains are a run
    of flat entries of ``machines``, ``sizes`` and the rows of ``slots``,
    which holds every chain's slots padded to the longest chain, and
    ``cdfs[j]`` their cumulative masses.  ``span`` exceeds every slot, so
    machine * span + tau puts each machine's pseudo-releases after those
    of every lower machine."""

    def __init__(self, inst: Instance, sol: ChainSolution):
        self.cdfs, chains = [], []
        for j, group in enumerate(sol.support_by_job(inst.num_jobs)):
            if not group:
                raise ChainLpError(f"job {j} has no chain in the solution")
            mass = sum(z for _, z in group)
            if mass < 1.0 - 1e-6:
                raise ChainLpError(f"job {j} chain mass {mass:.8f} below 1")
            self.cdfs.append(np.cumsum(np.array([z for _, z in group]) / mass))
            chains.extend(c for c, _ in group)
        self.machines = np.array([c.machine for c in chains], dtype=np.int64)
        self.sizes = np.array([c.length for c in chains], dtype=float)
        self.slots = np.zeros((len(chains), max(c.length for c in chains)), dtype=np.int64)
        for k, c in enumerate(chains):
            self.slots[k, : c.length] = c.slots
        self.span = float(self.slots.max() + 1)


def _objectives(completions: np.ndarray, weights: np.ndarray, out=None) -> np.ndarray:
    """Weighted objectives of (..., trials, n) completions, such as the
    stacked (2, trials, n) fractional and integral tables, reduced in one
    pass over the jobs: each trial is summed left to right.  Unlike a
    matrix product, whose summation order may change with the number of
    rows, each trial's value then does not depend on the trials that share
    its block."""
    out = np.multiply(completions[..., 0], weights[0], out=out)
    for k in range(1, completions.shape[-1]):
        out += completions[..., k] * weights[k]
    return out


def simulate_preemptive_rounding(
    inst: Instance,
    sol: ChainSolution,
    dist: OffsetDistribution,
    rng: np.random.Generator,
    trials: int,
    full: bool = True,
):
    """Returns (fractional-start completions, integral completions, draws).

    The draws are (machine, tau).  With ``full=False`` each block is reduced
    to its trials' weighted objectives: the result is (fractional-start
    objectives, integral objectives, None), one value per trial."""
    sampler = _ChainSampler(inst, sol)
    if not full:
        # Every block's two completion tables, and their objectives, go to
        # the same two buffers.
        block = _block_trials(inst.num_jobs)
        tables, objectives = np.empty((2, block, inst.num_jobs)), np.empty((2, block))

    def step(e, theta, frac, integral, *draws):
        machine, size = sampler.machines[e], sampler.sizes[e]
        # v = theta * p, formed in place of the offsets, which the block owns.
        tau = chain_eval_many(sampler.slots, e, np.multiply(theta, size, out=theta))
        args = (machine * sampler.span + tau, machine, size, tau + size, np.ceil(tau) + size)
        if full:
            _sequence_trials(*args, out=(frac, integral))
            for kept, drawn in zip(draws, (machine, tau)):
                kept[...] = drawn
            return
        rows = e.shape[0]
        _sequence_trials(*args, out=tables[:, :rows])
        frac[...], integral[...] = _objectives(tables[:, :rows], inst.weights, out=objectives[:, :rows])

    shape = (inst.num_jobs,) if full else ()
    dtypes = (float, float, np.int64, float) if full else (float, float)
    arrays = [(dtype, shape) for dtype in dtypes]
    frac, integral, *draws = _run_trials(rng, sampler.cdfs, dist, trials, step, arrays)
    return frac, integral, tuple(draws) if full else None


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
    objective, integral_objective = _objectives(np.stack((frac, integral)), inst.weights)[:, 0]
    return sched, float(objective), float(integral_objective), tau[0]


def estimate_ratio_preemptive(
    inst: Instance,
    sol: ChainSolution,
    trials: int,
    seed: int,
    dist: OffsetDistribution | None = None,
) -> PreemptiveRatioEstimate:
    """Monte Carlo mean of (fractional-start objective) / (chain LP value)."""
    dist = dist or default_offset_distribution()
    rng = np.random.default_rng(seed)
    objectives, integral, _ = simulate_preemptive_rounding(inst, sol, dist, rng, trials, full=False)
    mean, sem = _ratio_stats(objectives, sol.objective)
    return PreemptiveRatioEstimate(
        mean_ratio=mean,
        std_error=sem,
        lp_objective=sol.objective,
        mean_objective=float(objectives.mean()),
        mean_integral_objective=float(integral.mean()),
        trials=trials,
    )
