"""Test-only references for the chain pricer: every chain of a job, the
batched pricer applied to one job, and the per-machine pricer with its
per-chain materialization loop that the array-wide one replaced, which also
works out each job's cheapest chain on its own."""

import math
from bisect import bisect_left, bisect_right
from itertools import combinations

import numpy as np

from alphasched.chain_lp import PRICE_CELLS, PRICE_TOL, price_chain_multi
from alphasched.chains import Chain


def enumerate_chains(release: int, size: int, horizon: int):
    """All slot tuples for a job of the given size (test-scale oracle)."""
    return combinations(range(release + 1, horizon + 1), size)


def price_machine(machine, xi_row, jobs, eta, weights, sizes, releases, horizon, ends=None):
    """``price_chain_multi`` for the given jobs, all on one machine with
    block duals ``xi_row``; the blocks end at ``ends``, the last of which is
    ``horizon``, or are unit blocks up to ``horizon``."""
    xi = np.zeros((machine + 1, np.size(xi_row)))
    xi[machine] = xi_row
    ends = np.arange(1, horizon + 1) if ends is None else ends
    return price_chain_multi(xi, [machine] * len(jobs), jobs, eta, weights, sizes, releases, ends)


def price_chain(
    machine: int,
    job: int,
    xi_row: np.ndarray,
    eta_j: float,
    weight: float,
    size: int,
    release: int,
    horizon: int,
) -> tuple[Chain | None, float]:
    """Cheapest chain by reduced cost w * C + sum(xi over slots) - eta: the
    cheapest of the chains ``price_chain_multi`` finds for one job, the
    earliest on a tie (the earliest global minimum is always a valley).
    Returns (chain, reduced cost) when it prices below -1e-7, else (None,
    best cost)."""
    found, best, _ = price_machine(machine, xi_row, [job], [eta_j], [weight], [size], [release], horizon)
    if not found:
        return None, float(best[0])
    return min(found, key=lambda entry: entry[1])[0], float(best[0])


def earliest_per_block(machine, job, slots, release, ends) -> Chain:
    """The chain with the same slot count per block as ``slots`` (a list,
    ascending) that takes each block's earliest slots after the release;
    ``ends`` is the list of block right ends."""
    packed, a = [], 0
    while a < len(slots):
        k = bisect_left(ends, slots[a])
        b = bisect_right(slots, ends[k], a)  # slots[a:b] lie in block k
        first = max(ends[k - 1] if k else 0, release) + 1
        packed.extend(range(first, first + b - a))
        a = b
    return Chain(machine=machine, job=job, slots=packed)


def price_machine_loop(machine, xi_row, jobs, eta, weights, sizes, releases, horizon, ends=None):
    """The per-machine pricer that ``price_chain_multi`` replaced: the same
    sums in the same order, then a loop over each job's block ends that
    builds a chain at every valley of its cost (below -1e-7, strictly below
    the previous end's, at most the next end's) from a window argsort.
    Returns (found, best, counts) for the jobs in the given order:
    ``counts[j]`` is the slot count per block of job j's cheapest chain, the
    one at the earliest end of least cost, from the same window argsort;
    zero when no chain of the job fits by the horizon."""
    H = int(horizon)
    C = np.arange(1, H + 1) if ends is None else np.asarray(ends, dtype=np.int64)
    K = C.size
    xi = np.asarray(xi_row, dtype=float)[:K]
    if K < H:
        xi = np.repeat(xi, np.diff(C, prepend=0))
    jobs = np.asarray(jobs, dtype=np.int64)
    eta = np.asarray(eta, dtype=float)
    w = np.asarray(weights, dtype=float)
    p = np.asarray(sizes, dtype=np.int64)
    r = np.asarray(releases, dtype=np.int64)
    zeros = np.concatenate(([0], np.cumsum(xi == 0.0)))
    pos = np.flatnonzero(xi > 0.0)
    pos = pos[np.argsort(xi[pos], kind="stable")]
    t, v = pos + 1, xi[pos]
    before_c = t[:, None] < C
    rank_c = np.cumsum(before_c, axis=0, dtype=np.int32)
    cost = np.empty((jobs.size, K))
    step = max(1, PRICE_CELLS // max(1, t.size * K))
    for j0 in range(0, jobs.size, step):
        g = slice(j0, j0 + step)
        after_r = t[:, None] > r[g]
        need = ((p[g] - 1)[:, None] - (zeros[C - 1] - zeros[np.minimum(r[g], H)][:, None])).astype(np.int32)
        take = after_r[:, :, None] & before_c[:, None, :]
        take &= rank_c[:, None, :] <= need + np.cumsum(~after_r, axis=0, dtype=np.int32)[:, :, None]
        cheapest = (v @ take.reshape(t.size, need.size)).reshape(need.shape)
        cost[g] = w[g, None] * C + cheapest + xi[C - 1] - eta[g, None]
    first = r + p
    cost[C < first[:, None]] = np.inf
    best = cost.min(axis=1, initial=np.inf)

    def cheapest(j, c):
        rj, pj = int(r[j]), int(p[j])
        return (np.sort(np.argsort(xi[rj : c - 1], kind="stable")[: pj - 1]) + rj + 1).tolist() + [c]

    found, block_ends = [], C.tolist()
    counts = np.zeros((jobs.size, K), dtype=np.int64)
    for j in range(jobs.size):
        row = cost[j].tolist()
        for k, c in enumerate(block_ends):
            prev = row[k - 1] if k else math.inf
            after = row[k + 1] if k + 1 < K else math.inf
            if not (row[k] < -PRICE_TOL and row[k] < prev and row[k] <= after):
                continue
            slots = cheapest(j, c)
            if K < H:
                chain = earliest_per_block(machine, int(jobs[j]), slots, int(r[j]), block_ends)
            else:
                chain = Chain(machine=machine, job=int(jobs[j]), slots=slots)
            found.append((chain, row[k]))
        if min(row) < math.inf:
            for t in cheapest(j, block_ends[row.index(min(row))]):
                counts[j, bisect_left(block_ends, t)] += 1
    return found, best, counts
