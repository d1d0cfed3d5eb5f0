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


def _objectives(completion: np.ndarray, weights: np.ndarray, out=None) -> np.ndarray:
    """Weighted objectives of (trials, n) completions, summed over the jobs
    left to right for each trial: unlike a matrix product, whose summation
    order may change with the number of rows, each trial's value does not
    depend on the trials that share its block."""
    out = np.multiply(completion[:, 0], weights[0], out=out)
    for k in range(1, completion.shape[1]):
        out += completion[:, k] * weights[k]
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
    # Without full, every block's completions go to the same two arrays.
    work = None if full else np.empty((2, _block_trials(inst.num_jobs), inst.num_jobs))

    def step(e, theta, frac, integral, *draws):
        machine, size = sampler.machines[e], sampler.sizes[e]
        tau = chain_eval_many(sampler.slots, e, theta * size)
        args = (machine * sampler.span + tau, machine, size, tau + size, np.ceil(tau) + size)
        if not full:
            completions = work[:, : e.shape[0]]
            _sequence_trials(*args, out=completions)
            for completion, objective in zip(completions, (frac, integral)):
                _objectives(completion, inst.weights, out=objective)
            return
        _sequence_trials(*args, out=(frac, integral))
        for kept, block in zip(draws, (machine, tau)):
            kept[...] = block

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
    w = inst.weights
    return sched, float(_objectives(frac, w)[0]), float(_objectives(integral, w)[0]), tau[0]


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
