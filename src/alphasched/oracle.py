"""Exact optima for tiny instances by exhaustive search.

Assignments of jobs to machines are covered by a subset partition DP; for a
fixed machine and job set the single-machine problem is solved exactly:

  * non-preemptive: enumerate processing orders; for a fixed order, packing
    each job at max(release, predecessor completion) is optimal.
  * preemptive (no migration): enumerate priority orders; running, at every
    moment, the released unfinished job of highest priority is optimal for
    that order, and every schedule's completion order appears among the
    priority orders, so the minimum over orders is the exact optimum.

Both are guarded; these oracles exist to certify desk-scale claims, not to
scale.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial

import numpy as np

from .chains import Chain
from .instance import Instance, NonPreemptiveSchedule, PreemptiveSchedule

DEFAULT_GUARD = 10_000_000


class GuardExceeded(RuntimeError):
    """Instance too large for exhaustive search."""


def _guard(inst: Instance, guard: int, factor: int, kind: str, unit: str) -> None:
    """Raise GuardExceeded when m^n n! times ``factor`` exceeds ``guard``."""
    work = inst.num_machines**inst.num_jobs * factorial(inst.num_jobs) * factor
    if work > guard:
        raise GuardExceeded(f"{kind} oracle guard: {work:.3g} {unit} > {guard:.3g}")


def _best_order_nonpreemptive(inst: Instance, machine: int, jobs: tuple):
    """(cost, starts dict) for the best processing order of ``jobs``."""
    rel = inst.release_matrix()
    best = (np.inf, None)
    for perm in permutations(jobs):
        fin = 0
        cost = 0.0
        starts = {}
        for j in perm:
            s = max(int(rel[j, machine]), fin)
            fin = s + inst.size(j, machine)
            starts[j] = s
            cost += inst.weights[j] * fin
        if cost < best[0] - 1e-12:
            best = (cost, starts)
    return best


def _priority_greedy(inst: Instance, machine: int, priority: tuple):
    """Preemptive single-machine schedule: at any time run the released
    unfinished job earliest in ``priority``.  Returns (cost, intervals)."""
    rel = inst.release_matrix()
    remaining = {j: inst.size(j, machine) for j in priority}
    releases = sorted({int(rel[j, machine]) for j in priority})
    intervals: dict[int, list] = {j: [] for j in priority}
    cost = 0.0
    t = 0
    done = 0
    while done < len(priority):
        runnable = [j for j in priority if remaining[j] > 0 and rel[j, machine] <= t]
        if not runnable:
            t = min(r for r in releases if r > t)
            continue
        j = runnable[0]
        next_rel = min((r for r in releases if r > t), default=None)
        chunk = remaining[j] if next_rel is None else min(remaining[j], next_rel - t)
        intervals[j].append((t, t + chunk))
        remaining[j] -= chunk
        t += chunk
        if remaining[j] == 0:
            cost += inst.weights[j] * t
            done += 1
    return cost, intervals


def _best_order_preemptive(inst: Instance, machine: int, jobs: tuple):
    best = (np.inf, None)
    for perm in permutations(jobs):
        cost, intervals = _priority_greedy(inst, machine, perm)
        if cost < best[0] - 1e-12:
            best = (cost, intervals)
    return best


def _partition_dp(inst: Instance, subset_cost):
    """min over job partitions across machines of the summed subset costs;
    returns (objective, chosen subset per machine)."""
    n, m = inst.num_jobs, inst.num_machines
    full = (1 << n) - 1
    allowed = inst.allowed_mask()
    machine_ok = [int(sum(1 << j for j in range(n) if allowed[j, i])) for i in range(m)]

    prev = {0: 0.0}
    choice_tables = []
    for i in range(m):
        cur: dict[int, float] = {}
        choices: dict[int, int] = {}
        for mask, base in prev.items():
            rest = full & ~mask
            sub = rest & machine_ok[i]
            # All submasks of sub, including 0.
            s = sub
            while True:
                cost = subset_cost(i, s)
                if cost is not None:
                    total = base + cost
                    key = mask | s
                    if total < cur.get(key, np.inf) - 1e-12:
                        cur[key] = total
                        choices[key] = (mask, s)
                if s == 0:
                    break
                s = (s - 1) & sub
        prev = cur
        choice_tables.append(choices)
    if full not in prev:
        raise GuardExceeded("no feasible assignment found")  # cannot happen: valid instances
    assignment = [0] * m
    mask = full
    for i in reversed(range(m)):
        came_from, sub = choice_tables[i][mask]
        assignment[i] = sub
        mask = came_from
    return prev[full], assignment


def _bits(mask: int, n: int) -> tuple:
    return tuple(j for j in range(n) if mask >> j & 1)


def _search(inst: Instance, best_order):
    """Optimal objective over job partitions, with each machine's subset
    solved by ``best_order(inst, machine, jobs) -> (cost, plan)``; returns
    (objective, [(machine, plan)] for the machines that get jobs)."""
    n = inst.num_jobs
    memo: dict = {}

    def subset_cost(i: int, mask: int):
        key = (i, mask)
        if key not in memo:
            memo[key] = best_order(inst, i, _bits(mask, n))
        return memo[key][0] if mask else 0.0

    objective, assignment = _partition_dp(inst, subset_cost)
    return float(objective), [(i, memo[(i, mask)][1]) for i, mask in enumerate(assignment) if mask]


def brute_force_nonpreemptive(inst: Instance, guard: int = DEFAULT_GUARD):
    """(optimal objective, optimal NonPreemptiveSchedule)."""
    _guard(inst, guard, 1, "non-preemptive", "orderings")
    objective, plans = _search(inst, _best_order_nonpreemptive)
    machine = np.zeros(inst.num_jobs, dtype=np.int64)
    start = np.zeros(inst.num_jobs, dtype=np.int64)
    for i, starts in plans:
        for j, s in starts.items():
            machine[j] = i
            start[j] = s
    return objective, NonPreemptiveSchedule(machine=machine, start=start)


def brute_force_preemptive(inst: Instance, guard: int = DEFAULT_GUARD):
    """(optimal objective, optimal PreemptiveSchedule), migration disallowed."""
    _guard(inst, guard, inst.num_jobs, "preemptive", "search states")
    objective, plans = _search(inst, _best_order_preemptive)
    machine = np.zeros(inst.num_jobs, dtype=np.int64)
    chains: list = [None] * inst.num_jobs
    for i, intervals in plans:
        for j, ivs in intervals.items():
            machine[j] = i
            slots = []
            for lo, hi in ivs:
                slots.extend(range(lo + 1, hi + 1))
            chains[j] = Chain(machine=i, job=j, slots=tuple(sorted(slots)))
    return objective, PreemptiveSchedule(machine=machine, chains=tuple(c.slots for c in chains))
