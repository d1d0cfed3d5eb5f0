"""Exact optima for small instances by subset dynamic programming.

Each machine i gets one table over the job subsets S, which gives the best
single-machine cost of every S (Held & Karp, J. SIAM 10, 1962; Lawler &
Moore, Mgmt. Sci. 16, 1969).  The horizon T_i = max r_ij + sum p_ij over the
jobs allowed on i bounds every completion of a left-shifted schedule.

  * non-preemptive: g(S, t), the least cost of S with every job done by t,
    is min(g(S, t-1), min over j in S with t - p_ij >= r_ij of
    g(S-j, t-p_ij) + w_j t).
  * preemptive (no migration): some priority order is optimal (run, at every
    moment, the released unfinished job that comes first in an optimal
    schedule's completion order).  The busy slots of a job set are the same
    under every work-conserving order, so the job last in priority, j, fills
    the first p_ij idle slots after r_ij of S-j's busy set, whatever the
    order within S-j, and f(S) = min over j in S of f(S-j) + w_j C_j(S-j).

A min-plus pass per machine over every pair (S, U ⊆ S) then splits the jobs
among the machines.  The guard counts the cells, 2^n per time slot of each
machine's horizon plus the 3^n subset pairs, and refuses before any table is
allocated; these oracles certify desk-scale claims, they do not scale.
"""

from __future__ import annotations

import numpy as np

from .instance import Instance, NonPreemptiveSchedule, PreemptiveSchedule

DEFAULT_GUARD = 10_000_000


class GuardExceeded(RuntimeError):
    """Instance too large for the exact oracles."""


def _machines(inst: Instance, guard: int):
    """[(horizon, [(job, size, release, weight) allowed on it])] per machine,
    after the guard."""
    n, rel = inst.num_jobs, inst.release_matrix()
    out = []
    for i in range(inst.num_machines):
        jobs = [(j, int(inst.sizes[j, i]), int(rel[j, i]), float(inst.weights[j]))
                for j in range(n) if inst.allowed(j, i)]
        out.append((max((r for _, _, r, _ in jobs), default=0) + sum(p for _, p, _, _ in jobs), jobs))
    cells = 2**n * sum(horizon + 1 for horizon, _ in out) + 3**n
    if cells > guard:
        raise GuardExceeded(f"oracle guard: {cells:.3g} DP cells > {guard:.3g}")
    return out


def _half(a: np.ndarray, j: int, bit: int) -> np.ndarray:
    """View of the entries of ``a`` (last axis over subsets) whose subset
    has job j (bit 1) or lacks it (bit 0)."""
    return a.reshape(*a.shape[:-1], -1, 2, 1 << j)[..., bit, :]


def _partition(n: int, costs: list):
    """min over partitions of the jobs into one subset per machine of the
    summed ``costs[i][subset]``; returns (objective, subset per machine)."""
    sup = sub = np.zeros(1, dtype=np.int32)
    for j in range(n):
        sup = np.concatenate((sup, sup | 1 << j, sup | 1 << j))
        sub = np.concatenate((sub, sub, sub | 1 << j))
    best = [np.full(1 << n, np.inf)]
    best[0][0] = 0.0
    for cost in costs:
        best.append(np.full(1 << n, np.inf))
        np.minimum.at(best[-1], sup, best[-2][sup ^ sub] + cost[sub])
    subsets, s = [], (1 << n) - 1
    for i in reversed(range(len(costs))):
        here = sub[sup == s]
        u = int(here[np.flatnonzero(best[i][s ^ here] + costs[i][here] == best[i + 1][s])[0]])
        subsets.append(u)
        s ^= u
    return float(best[-1][-1]), subsets[::-1]


def brute_force_nonpreemptive(inst: Instance, guard: int = DEFAULT_GUARD):
    """(optimal objective, optimal NonPreemptiveSchedule)."""
    n = inst.num_jobs
    machines = _machines(inst, guard)
    tables = []
    for horizon, jobs in machines:
        g = np.full((horizon + 1, 1 << n), np.inf)
        g[:, 0] = 0.0
        # Rows t0 .. t0 + p_min - 1 only read rows before t0: each job's
        # candidates fill the chunk at once, then a running minimum from
        # row t0 - 1 on gives g.
        step = min((p for _, p, _, _ in jobs), default=1)
        times = np.arange(horizon + 1.0)[:, None, None]
        for t0 in range(1, horizon + 1, step):
            t1 = min(t0 + step, horizon + 1)
            chunk = g[t0:t1]
            for j, p, r, w in jobs:
                lo = max(t0, r + p)  # the first t with t - p >= r
                if lo < t1:
                    done = _half(g[lo:t1], j, 1)
                    np.minimum(done, _half(g[lo - p : t1 - p], j, 0) + w * times[lo:t1], out=done)
            np.minimum(chunk[0], g[t0 - 1], out=chunk[0])
            if t1 - t0 > 1:
                np.minimum.accumulate(chunk, axis=0, out=chunk)
        tables.append(g)
    objective, subsets = _partition(n, [g[-1] for g in tables])
    machine = np.zeros(n, dtype=np.int64)
    start = np.zeros(n, dtype=np.int64)
    for i, ((t, jobs), g, s) in enumerate(zip(machines, tables, subsets)):
        while s:  # the job finishing last ends at the first t that costs g(s, horizon)
            t = int(np.argmax(g[: t + 1, s] == g[t, s]))  # g(s, .) never rises
            j, p = next((j, p) for j, p, r, w in jobs
                        if s >> j & 1 and t - p >= r and g[t - p, s ^ 1 << j] + w * t == g[t, s])
            machine[j], start[j] = i, t - p
            s, t = s ^ 1 << j, t - p
    return objective, NonPreemptiveSchedule(machine=machine, start=start)


def brute_force_preemptive(inst: Instance, guard: int = DEFAULT_GUARD):
    """(optimal objective, optimal PreemptiveSchedule), migration disallowed."""
    n = inst.num_jobs
    machines = _machines(inst, guard)
    size = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        _half(size, j, 1)[...] += 1
    layers = [np.flatnonzero(size == k) for k in range(1, n + 1)]  # the sets by size

    def fill(busy, p, r):
        """(completion, slots) of a job run after the sets whose busy slots
        (slot t at column t - 1) are the rows of ``busy``."""
        idle = ~busy[:, r:]
        count = np.cumsum(idle, axis=1)
        slots = np.zeros_like(busy)
        slots[:, r:] = idle & (count <= p)
        return r + 1 + np.argmax(count >= p, axis=1), slots

    busy_tables, costs = [], []
    for horizon, jobs in machines:
        busy = np.zeros((1 << n, horizon), dtype=bool)
        for j, p, r, _ in jobs:  # a set's busy slots are those of its lower jobs and its top job's
            lower = busy[: 1 << j]
            busy[1 << j : 2 << j] = lower | fill(lower, p, r)[1]
        f = np.full(1 << n, np.inf)
        f[0] = 0.0
        added = [(j, w * fill(busy, p, r)[0]) for j, p, r, w in jobs]  # cost of j after each set
        for layer in layers:
            for j, cost in added:
                with_j = layer[layer >> j & 1 == 1]
                rest = with_j ^ 1 << j
                f[with_j] = np.minimum(f[with_j], f[rest] + cost[rest])
        busy_tables.append((busy, added))
        costs.append(f)
    objective, subsets = _partition(n, costs)
    machine = np.zeros(n, dtype=np.int64)
    chains: list = [()] * n
    for i, ((busy, added), f, s) in enumerate(zip(busy_tables, costs, subsets)):
        while s:  # peel off the job last in priority
            j = next(j for j, cost in added if s >> j & 1 and f[s ^ 1 << j] + cost[s ^ 1 << j] == f[s])
            machine[j] = i
            chains[j] = tuple(int(t) + 1 for t in np.flatnonzero(busy[s] & ~busy[s ^ 1 << j]))
            s ^= 1 << j
    return objective, PreemptiveSchedule(machine=machine, chains=chains)
