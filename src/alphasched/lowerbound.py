"""The hard family for independent rounding, and its benchmark experiment.

The family has 1/eps + 1 identical machines, 1/eps big jobs of size T
(release 0, weight eps/e) and T unit jobs where job t releases at t - 1 with
weight exp(-t/T)/T.  Its prescribed fractional plan runs big job i on
machine i with mass 1 - eps and on the spare machine with mass eps, and
spreads every unit job across machines 1..1/eps with mass eps each.  The
plan is a convex combination of 1/eps integral schedules, each costing at
most (1 - 1/e)(T + 1).

Rounding jobs to machines independently by the plan's marginals and then
scheduling each machine optimally still costs noticeably more; the ratio
against (1 - 1/e)(T + 1) grows toward e/(e - 1) as T grows and eps shrinks.
The per-machine optimum after assignment keeps unit jobs in release order
(their weights decrease) and inserts the big job at the best position,
found by a linear scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .interval_lp import solution_from_triples


@dataclass(frozen=True)
class LowerBoundResult:
    epsilon: float
    horizon: int
    trials: int
    mean_main_cost: float
    sem_main_cost: float
    mean_full_cost: float
    fractional_bound: float  # (1 - 1/e) * (T + 1)
    ratio_main: float
    ratio_full: float
    ratio_sem: float


def _machines_and_horizon(eps: float, T: int) -> tuple[int, int]:
    """(1/eps, T) as integers; raises ValueError unless eps lies in (0, 1]
    with 1/eps an integer and T is positive."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    k = 1.0 / eps
    if abs(k - round(k)) > 1e-9:
        raise ValueError(f"1/eps must be an integer, got 1/{eps} = {k}")
    if int(T) < 1:
        raise ValueError("T must be positive")
    return int(round(k)), int(T)


def build_lb_instance(eps: float, T: int, strict: bool = False):
    """(Instance, prescribed FractionalIntervalSolution) for the family.

    1/eps must be an integer; with ``strict`` T must also be a multiple of
    1/eps^3 (otherwise the relaxation is recorded in the instance meta).
    """
    k, T = _machines_and_horizon(eps, T)
    step = k**3
    exact_multiple = T % step == 0
    if strict and not exact_multiple:
        raise ValueError(f"T = {T} is not a multiple of 1/eps^3 = {step}")

    m = k + 1
    n = k + T
    sizes = np.empty((n, m), dtype=np.int64)
    sizes[:k, :] = T
    sizes[k:, :] = 1
    releases = np.concatenate([np.zeros(k, dtype=np.int64), np.arange(T, dtype=np.int64)])
    weights = np.concatenate(
        [np.full(k, eps / math.e), np.exp(-np.arange(1, T + 1) / T) / T]
    )
    inst = Instance(
        num_machines=m,
        num_jobs=n,
        sizes=sizes,
        releases=releases,
        weights=weights,
        name=f"lb-eps{eps:g}-T{T}",
        meta={} if exact_multiple else {"relaxed_T": True},
    )

    triples = []
    for i in range(k):
        triples.append((i, i, 0, 1.0 - eps))
        triples.append((k, i, 0, eps))
    for t in range(T):
        for i in range(k):
            triples.append((i, k + t, t, eps))
    sol = solution_from_triples(inst, triples)
    return inst, sol


def _best_insertion_cost(ts: np.ndarray, wv: np.ndarray, big_weight: float, T: int) -> float:
    """Cheapest schedule of unit jobs at releases ``ts`` (ascending) plus one
    size-T job: unit jobs stay in release order, the big job is inserted at
    the position minimizing the objective."""
    L = ts.size
    if L == 0:
        return big_weight * T
    sw = np.concatenate(([0.0], np.cumsum(wv)))  # prefix weight sums
    swt = np.concatenate(([0.0], np.cumsum(wv * ts)))
    sidx = np.concatenate(([0.0], np.cumsum(wv * np.arange(1, L + 1))))
    total_w, total_idx = sw[-1], sidx[-1]
    k = np.arange(L + 1)
    base = np.concatenate(([0], ts))[k] + T  # big completion per position
    prefix = swt[k]
    big = big_weight * base
    # suffix unit jobs complete consecutively after the big job
    suffix = (total_w - sw[k]) * base + (total_idx - sidx[k]) - k * (total_w - sw[k])
    return float((prefix + big + suffix).min())


def run_lb_experiment(eps: float, T: int, trials: int, seed: int) -> LowerBoundResult:
    """Independent rounding of the prescribed plan, each machine scheduled by
    the best big-job insertion; ratio against (1 - 1/e)(T + 1).

    The headline ratio counts machines 1..1/eps only; the full ratio adds
    the spare machine's cost.
    """
    k, T = _machines_and_horizon(eps, T)
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    w_big = eps / math.e
    t_idx = np.arange(1, T + 1)
    w_small = np.exp(-t_idx / T) / T

    main = np.empty(trials)
    extra = np.empty(trials)
    for trial in range(trials):
        big_own = rng.random(k) < 1.0 - eps
        small_machine = rng.integers(0, k, size=T)
        total = 0.0
        for i in range(k):
            mask = small_machine == i
            ts = t_idx[mask].astype(float)
            wv = w_small[mask]
            if big_own[i]:
                total += _best_insertion_cost(ts, wv, w_big, T)
            else:
                total += float((wv * ts).sum())
        main[trial] = total
        n_spare = int((~big_own).sum())
        extra[trial] = w_big * T * n_spare * (n_spare + 1) / 2.0

    bound = (1.0 - 1.0 / math.e) * (T + 1)
    mean_main = float(main.mean())
    sem_main = float(main.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return LowerBoundResult(
        epsilon=eps,
        horizon=T,
        trials=trials,
        mean_main_cost=mean_main,
        sem_main_cost=sem_main,
        mean_full_cost=float((main + extra).mean()),
        fractional_bound=bound,
        ratio_main=mean_main / bound,
        ratio_full=float((main + extra).mean()) / bound,
        ratio_sem=sem_main / bound,
    )
