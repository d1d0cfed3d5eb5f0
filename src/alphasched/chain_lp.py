"""Configuration LP over chains, solved by column generation.

The timeline is a partition of (0, H] into blocks (ends[k-1], ends[k]]: the
exact LP has unit blocks (``ends`` = 1..H), and for horizons too long to
index slot by slot a compressed timeline has blocks of geometrically growing
length.  The master has one variable per generated chain, a covering row per
job (total chain mass at least 1) and a capacity row per occupied (machine,
block) whose right-hand side is the block's length.  A chain uses each block
for as many slots as it has there and is charged w_j times the right end of
its last block.  The master is one live LP across rounds: a round appends
its new rows and columns, and the solve resumes from the previous round's
optimum.

One driver serves every timeline, and one exact pricer: each slot carries
its block's dual, and the cheapest chain completing in block k takes a slot
there plus the p - 1 slots with the smallest duals in (r_j, ends[k] - 1].
Slot duals are non-negative and mostly zero, so those p - 1 are the window's
zeros first and then its smallest positive duals; every job of a machine is
priced at every block end at once.  A chain enters the master in one form,
the earliest slots after the release in each of its blocks, so two chains
with the same slot count per block are one column.

Column generation stops on one certificate: the Lagrangian pricing bound
sum_j mu_j - sum_{i,k} len_k xi_{i,k}, from the stability center (the
smoothed duals behind the best bound so far), once it proves the master
objective within 1e-6 relative of the true optimum.  The solution carries
those duals.  Pricing runs against duals smoothed toward that center, to damp
the oscillation degenerate masters produce, and then against the raw master
duals if the smoothed ones give no new chain; when neither does and the gap
is still open, the solve stops with ``ChainLpError``.  A round that would
open capacity rows past the simplex's basis-inverse budget is refused by
``LinearProgram`` with ``LpError``.  The driver solves on the weights times
the power of two that brings the largest into [1, 2), and scales the answer
back: that is exact in floating point, and the absolute pricing and simplex
tolerances then act alike at every scale of the weights.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain as concat

import numpy as np

from .chains import Chain, earliest_chain
from .instance import Instance, horizon as instance_horizon, normalize_weights
from .simplex import Basis, LinearProgram, solve_lp

PRICE_TOL = 1e-7
MASS_TOL = 1e-6


class ChainLpError(RuntimeError):
    """Master infeasibility, an open gap that pricing adds no chain to
    close, or no convergence in ``MAX_ROUNDS``."""


@dataclass
class ChainSolution:
    chains: list  # [(Chain, z)]
    objective: float
    eta: np.ndarray  # dual per job
    xi: dict  # (machine, block right end) -> dual, zero entries omitted; a slot is its own end in exact mode
    horizon: int
    compressed: bool = False
    blocks: np.ndarray | None = None  # block endpoints when compressed
    iterations: int = 0  # rounds
    gap_bound: float = 0.0  # certified distance to the true LP optimum
    stats: dict = field(default_factory=dict)  # master solves' simplex counters, summed, and rounds

    def support_by_job(self, num_jobs: int):
        groups = [[] for _ in range(num_jobs)]
        for chain, z in self.chains:
            groups[chain.job].append((chain, z))
        return groups


def _earliest_per_block(machine, job, slots, release, ends) -> Chain:
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


PRICE_CELLS = 1 << 22  # (positive dual, job, C) mask cells per batch of jobs; bounds memory


def price_chain_multi(
    machine: int,
    xi_row: np.ndarray,
    jobs,
    eta,
    weights,
    sizes,
    releases,
    horizon: int,
    buckets: int = 4,
    ends=None,
) -> tuple[list, np.ndarray]:
    """Price every given job on one machine against its block duals.

    ``ends`` are the blocks' right ends, strictly increasing up to the
    horizon, 1..horizon (unit blocks) by default.  xi_row[k] >= 0 is the
    dual of block k and every slot of the block carries it; ``eta``,
    ``weights``, ``sizes`` and ``releases`` are per job.  Job j's cheapest
    chain completing in block k, at C = ends[k], costs w_j C + xi_C - eta_j
    plus the p_j - 1 smallest slot duals in the window (r_j, C - 1]: the
    window's zeros, then as many of its smallest positive duals as are still
    needed.  The positive duals are sorted once, and a (positive dual, job,
    C) mask of the window members whose rank among the window's positive
    duals is within that need sums them for every job and C at once.

    Returns (found, best): ``found`` lists (chain, reduced cost) for the best
    completion in each of ``buckets`` equal ranges of block ends that prices
    below -1e-7, job by job (diverse columns speed up column generation),
    ties to rounding going to the earliest end, each chain taking the
    earliest slots after the release in each of its blocks; ``best[k]`` is
    the minimum reduced cost of the k-th job, inf when no chain of it fits
    by the horizon.
    """
    H = int(horizon)
    C = np.arange(1, H + 1) if ends is None else np.asarray(ends, dtype=np.int64)
    K = C.size
    xi = np.asarray(xi_row, dtype=float)[:K]
    if (xi < 0.0).any():
        raise ValueError("slot duals must be non-negative")
    if K < H:
        xi = np.repeat(xi, np.diff(C, prepend=0))
    jobs = np.asarray(jobs, dtype=np.int64)
    eta = np.asarray(eta, dtype=float)
    w = np.asarray(weights, dtype=float)
    p = np.asarray(sizes, dtype=np.int64)
    r = np.asarray(releases, dtype=np.int64)
    zeros = np.concatenate(([0], np.cumsum(xi == 0.0)))  # zero duals in slots 1..t
    pos = np.flatnonzero(xi > 0.0)
    pos = pos[np.argsort(xi[pos], kind="stable")]
    t, v = pos + 1, xi[pos]  # positive duals in increasing order, with their slots
    # For C > r_j, a positive dual's rank in job j's window is its rank among
    # those before C less the number of those up to r_j ranked before it.
    before_c = t[:, None] < C
    rank_c = np.cumsum(before_c, axis=0, dtype=np.int32)  # int32 halves the mask's memory traffic
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

    # Bucket b of job j holds the block ends k >= k0_j (the first end C with
    # room for the job) with (k - k0_j) * buckets // span_j == b.
    k0 = np.searchsorted(C, first, side="left")
    fits = np.flatnonzero(k0 < K)
    span = (K - k0[fits])[:, None]
    lo = -(-np.arange(buckets) * span // buckets)  # offset of each bucket's first end
    hi = np.concatenate((lo[:, 1:], span), axis=1)
    filled = lo < hi
    begin = fits[:, None] * K + k0[fits, None] + lo
    bucket_min = np.full(lo.shape, np.inf)
    if filled.any():
        bucket_min[filled] = np.minimum.reduceat(cost.ravel(), begin[filled])
    found, block_ends = [], C.tolist()
    for a, b in zip(*np.nonzero(bucket_min < -PRICE_TOL)):
        j = fits[a]
        k = int(k0[j]) + int(lo[a, b])
        seg = cost[j, k : int(k0[j]) + int(hi[a, b])]
        c = int(C[k + int(np.argmax(seg <= bucket_min[a, b] + 1e-12 * (1.0 + abs(bucket_min[a, b]))))])
        # The cheapest chain completing at c: the p - 1 smallest duals in
        # the window, then the final slot.
        rj, pj = int(r[j]), int(p[j])
        slots = (np.sort(np.argsort(xi[rj : c - 1], kind="stable")[: pj - 1]) + rj + 1).tolist() + [c]
        if K < H:  # unit blocks hold a chain's slots in that form already
            chain = _earliest_per_block(machine, int(jobs[j]), slots, rj, block_ends)
        else:
            chain = Chain(machine=machine, job=int(jobs[j]), slots=slots)
        found.append((chain, float(bucket_min[a, b])))
    return found, best


def _greedy_disjoint_chains(inst: Instance, ends: np.ndarray) -> list[Chain]:
    """A feasible integral chain per job: fastest machine, earliest free
    slots, each then taking its blocks' earliest slots after its release.
    Guarantees the initial master is feasible."""
    ends = ends.tolist()
    horizon = ends[-1]
    rel = inst.release_matrix()
    free = [np.ones(horizon + 1, dtype=bool) for _ in range(inst.num_machines)]
    chains = []
    order = sorted(range(inst.num_jobs), key=lambda j: (rel[j].min(), j))
    for j in order:
        sizes = np.where(inst.allowed_mask()[j], inst.sizes[j], np.iinfo(np.int64).max)
        i = int(np.argmin(sizes))
        p = inst.size(j, i)
        slots = []
        t = int(rel[j, i]) + 1
        while len(slots) < p:
            if t > horizon:
                raise ChainLpError(f"no room for job {j} by horizon {horizon}")
            if free[i][t]:
                free[i][t] = False
                slots.append(t)
            t += 1
        chains.append(_earliest_per_block(i, j, slots, int(rel[j, i]), ends))
    return chains


class _Master:
    """Restricted master: one live LP for a whole column-generation run.

    Rows are the job covering rows, then one capacity row per (machine,
    block), in the order columns first use them.  A column's coefficient in
    a capacity row is its slot count in that block, and the row's
    right-hand side is the block's length.  A round appends its new capacity
    rows, empty, and then its new columns to the LP, so the next
    ``solve_lp`` resumes from the previous optimum with the new rows' slacks
    basic.  A purge rebuilds the LP from the kept columns and warm-starts it
    from the previous basis, matched by column index and row key.
    """

    def __init__(self, inst: Instance, ends: np.ndarray):
        self.inst = inst
        self.ends = np.asarray(ends, dtype=np.int64)
        self.lengths = np.diff(self.ends, prepend=0).astype(float)
        self._reset()

    def _reset(self) -> None:
        n = self.inst.num_jobs
        self.columns: list[Chain] = []
        self.lp = LinearProgram(num_vars=0)
        self.lp.add_rows(np.zeros(n + 1, dtype=np.int64), [], [], [">="] * n, np.ones(n))
        # Row key of job j is j, of (machine i, block k) num_jobs + i * K + k;
        # ``keys`` holds each LP row's key and ``row`` each key's LP row.
        self.keys = np.arange(n)
        self.row = np.full(n + self.inst.num_machines * self.ends.size, -1, dtype=np.int64)
        self.row[:n] = self.keys
        self.basis = None  # optimal basis of the last solve
        self.hint = None  # (basic columns, keys of rows with nonbasic slack) after a purge

    def add(self, chains: list[Chain]) -> None:
        """Append columns, and first the capacity rows they open."""
        if not chains:
            return
        n, K = self.inst.num_jobs, self.ends.size
        job = np.array([c.job for c in chains], dtype=np.int64)
        machine = np.array([c.machine for c in chains], dtype=np.int64)
        lengths = np.array([c.length for c in chains], dtype=np.int64)
        owner = np.repeat(np.arange(len(chains)), lengths)
        slots = np.fromiter(concat.from_iterable(c.slots for c in chains), np.int64, owner.size)
        block = np.searchsorted(self.ends, slots, side="left")
        # One capacity entry per (chain, block): a chain's blocks ascend.
        key = n + machine[owner] * K + block
        first = np.flatnonzero((np.diff(key, prepend=-1) != 0) | (np.diff(owner, prepend=-1) != 0))
        count = np.diff(first, append=key.size)
        key = key[first]
        opened = np.unique(key[self.row[key] < 0])
        if opened.size:
            self.row[opened] = self.lp.add_rows(
                np.zeros(opened.size + 1, dtype=np.int64), [], [], ["<="] * opened.size,
                self.lengths[(opened - n) % K],
            )
            self.keys = np.concatenate((self.keys, opened))
        # Column k lists its job row, then its capacity rows by block.
        ptr = np.concatenate(([0], np.cumsum(1 + np.bincount(owner[first], minlength=len(chains)))))
        on_job = np.zeros(ptr[-1], dtype=bool)
        on_job[ptr[:-1]] = True
        rows = np.empty(ptr[-1], dtype=np.int64)
        coef = np.ones(ptr[-1])
        rows[on_job] = job
        rows[~on_job] = self.row[key]
        coef[~on_job] = count
        last = np.cumsum(lengths) - 1
        self.lp.add_columns(ptr, rows, coef, self.inst.weights[job] * self.ends[block[last]])
        self.columns.extend(chains)

    def purge(self, keep: np.ndarray) -> None:
        """Rebuild the LP from the columns in the mask ``keep``, which holds
        every basic one; rows left without entries go.  The next solve
        starts from the last basis."""
        index = np.cumsum(keep) - 1
        slack = np.zeros(self.keys.size, dtype=bool)
        slack[self.basis.slack_rows] = True
        hint = (index[self.basis.columns], self.keys[~slack])
        kept = [c for c, k in zip(self.columns, keep) if k]
        self._reset()
        self.add(kept)
        self.hint = hint

    def solve(self):
        """Solve the master; returns (solution, eta, xi) with eta the job
        duals clipped at zero and xi[i, k] the negated dual of the capacity
        row of (machine i, block k), zero where there is none or where it is
        at most 1e-12 (the non-negative form pricing takes)."""
        n, K = self.inst.num_jobs, self.ends.size
        keys, warm = self.keys, None
        if self.hint is not None:
            basic, tight = self.hint
            warm = Basis(columns=basic, slack_rows=np.flatnonzero(~np.isin(keys, tight)))
            self.hint = None
        res = solve_lp(self.lp, warm)
        if res.status != "optimal":
            raise ChainLpError(f"restricted master is {res.status}")
        self.basis = res.basis
        cap = keys >= n
        eta = np.zeros(n)
        eta[keys[~cap]] = np.maximum(res.duals[~cap], 0.0)
        xi = np.zeros((self.inst.num_machines, K))
        dual = -res.duals[cap]
        xi[(keys[cap] - n) // K, (keys[cap] - n) % K] = np.where(dual > 1e-12, dual, 0.0)
        return res, eta, xi


def _price_all(inst: Instance, ximat: np.ndarray, eta: np.ndarray, ends: np.ndarray, seen: set):
    """Price every (machine, job) pair against the given block duals, one
    ``price_chain_multi`` call per machine.

    Returns (new chains, ordered by job, then machine, then bucket; per-job
    cheapest chain cost mu_j).  The mu values certify a Lagrangian lower
    bound sum_j mu_j - sum_{i,k} len_k xi_{i,k} on the LP optimum.
    """
    rel = inst.release_matrix()
    allowed = inst.allowed_mask()
    H = int(ends[-1])
    found = []
    mu = np.full(inst.num_jobs, np.inf)
    for i in range(inst.num_machines):
        jobs = np.flatnonzero(allowed[:, i])
        chains, best = price_chain_multi(
            i, ximat[i], jobs, eta[jobs], inst.weights[jobs], inst.sizes[jobs, i], rel[jobs, i], H, ends=ends
        )
        mu[jobs] = np.minimum(mu[jobs], best + eta[jobs])
        found.extend(chain for chain, _ in chains)
    found.sort(key=lambda chain: chain.job)
    new_cols = [chain for chain in found if chain not in seen]
    seen.update(new_cols)
    return new_cols, mu


SMOOTHING = 0.8  # weight on the dual stability center while pricing
GAP_REL_TOL = 1e-6
PURGE_ABOVE = 900  # master size (columns) that triggers a purge of stale ones
MAX_ROUNDS = 2000


def _generate(inst: Instance, ends: np.ndarray, compressed: bool = False) -> ChainSolution:
    """Column generation to optimality of the chain LP over the blocks with
    right ends ``ends``.

    Each round solves the master, from the previous round's optimal basis,
    and prices every chain against duals smoothed toward the stability
    center, then, if that yields no new chain, against the raw master duals.
    A pricing pass whose Lagrangian bound sum_j mu_j - sum len_k xi beats the
    best so far moves the center to its duals.  The run stops when the
    master objective is within 1e-6 relative of the best bound, and raises
    ``ChainLpError`` when the raw pass adds no chain while the gap is open.

    The returned duals are the stability center's: its xi, and eta_j the
    cheapest chain cost of job j under it.  So every chain prices
    non-negative, and sum(eta) - sum(len xi) is at least
    ``objective - gap_bound``.
    """
    inst, shift = normalize_weights(inst)
    rel = inst.release_matrix()
    base = _greedy_disjoint_chains(inst, ends)
    columns = list(base)
    if inst.num_jobs * inst.num_machines <= 200:
        for j in range(inst.num_jobs):
            for i in range(inst.num_machines):
                if inst.allowed(j, i):
                    columns.append(earliest_chain(i, j, int(rel[j, i]), inst.size(j, i)))
    # A repeated column would make a warm-start basis that names it singular;
    # the base chains stay first.
    columns = list(dict.fromkeys(columns))
    master = _Master(inst, ends)
    master.add(columns)
    lengths = master.lengths
    seen = set(columns)
    born = np.zeros(len(columns), dtype=np.int64)

    best_lb = -np.inf
    center_eta = center_xi = center_mu = None
    stats = Counter()
    for iterations in range(1, MAX_ROUNDS + 1):
        res, eta, xi = master.solve()
        stats.update(res.stats)
        if center_eta is None:
            center_eta, center_xi = eta, xi

        for alpha in (SMOOTHING, 0.0):
            eta_s = alpha * center_eta + (1 - alpha) * eta
            xi_s = alpha * center_xi + (1 - alpha) * xi
            new_cols, mu = _price_all(inst, xi_s, eta_s, ends, seen)
            lb = float(mu.sum() - (xi_s * lengths).sum())
            if lb > best_lb:
                best_lb = lb
                center_eta, center_xi, center_mu = eta_s, xi_s, mu
            gap_bound = max(res.objective - best_lb, 0.0)
            closed = gap_bound <= GAP_REL_TOL * (1.0 + abs(res.objective))
            if closed or new_cols:
                break
        else:
            gap = np.ldexp(gap_bound, -shift)
            raise ChainLpError(f"gap certificate {gap:.2e} still open, and pricing found no new chain")
        if closed:
            break

        if len(master.columns) > PURGE_ABOVE:
            # Purge stale zero columns; the feasibility base and the basis
            # that warm-starts the next master always stay.
            keep = (res.x > 1e-9) | (born >= iterations - 3)
            keep[: len(base)] = True
            keep[res.basis.columns] = True
            seen.difference_update(c for c, k in zip(master.columns, keep) if not k)
            master.purge(keep)
            born = born[keep]
        master.add(new_cols)
        born = np.concatenate((born, np.full(len(new_cols), iterations)))
    else:
        raise ChainLpError(f"column generation did not converge in {MAX_ROUNDS} rounds")

    support = [(c, float(z)) for c, z in zip(master.columns, res.x) if z > 1e-9]
    eta, xi = np.ldexp(center_mu, -shift), np.ldexp(center_xi, -shift)
    sol = ChainSolution(
        chains=support,
        objective=float(np.ldexp(res.objective, -shift)),
        eta=eta,
        xi={(int(i), int(ends[b])): float(xi[i, b]) for i, b in zip(*np.nonzero(xi > 0.0))},
        horizon=int(ends[-1]),
        compressed=compressed,
        blocks=ends if compressed else None,
        iterations=iterations,
        gap_bound=float(np.ldexp(gap_bound, -shift)),
        stats=dict(stats, rounds=iterations),
    )
    validate_chain_solution(inst, sol)
    return sol


def solve_chain_lp(inst: Instance) -> ChainSolution:
    """The exact chain LP: column generation over unit blocks, one per slot
    up to the instance horizon."""
    return _generate(inst, np.arange(1, instance_horizon(inst) + 1))


def solve_chain_lp_compressed(inst: Instance, eps: float) -> ChainSolution:
    """The chain LP over the block-compressed timeline of
    ``build_compressed_timeline``.

    Chain cost charges the right endpoint of the chain's final block, so the
    objective lies within a (1 + eps) factor of the exact chain LP.
    ``gap_bound`` and the returned duals are certified as in the exact mode,
    with the Lagrangian bound sum_j mu_j - sum_{i,k} len_k xi_{i,k}.
    """
    return _generate(inst, build_compressed_timeline(inst, eps).ends, compressed=True)


def validate_chain_solution(inst: Instance, sol: ChainSolution) -> None:
    """Chains valid for their job, job mass at least 1, and per (machine,
    block) load at most the block length (per slot at most 1 in exact
    mode)."""
    rel = inst.release_matrix()
    ends = sol.blocks if sol.compressed else np.arange(1, sol.horizon + 1)
    mass = np.zeros(inst.num_jobs)
    load = np.zeros((inst.num_machines, ends.size))
    for chain, z in sol.chains:
        chain.validate(int(rel[chain.job, chain.machine]), sol.horizon, inst.size(chain.job, chain.machine))
        mass[chain.job] += z
        blocks = np.searchsorted(ends, chain.slots, side="left")
        load[chain.machine] += z * np.bincount(blocks, minlength=ends.size)
    if (mass < 1.0 - MASS_TOL).any():
        j = int(np.argmin(mass))
        raise ChainLpError(f"job {j} covered only to {mass[j]:.8f}")
    over = load - np.diff(ends, prepend=0) > MASS_TOL
    if over.any():
        i, k = np.argwhere(over)[0]
        raise ChainLpError(f"machine {i} block ending at {ends[k]} overloaded: {load[i, k]:.8f}")


# -- compressed timeline -------------------------------------------------


@dataclass
class CompressedTimeline:
    """Partition of (0, T] into blocks (ends[k-1], ends[k]]."""

    ends: np.ndarray  # strictly increasing, last entry = horizon
    epsilon: float

    @property
    def starts(self) -> np.ndarray:
        return np.concatenate(([0], self.ends[:-1]))

    @property
    def lengths(self) -> np.ndarray:
        return self.ends - self.starts


def build_compressed_timeline(inst: Instance, eps: float) -> CompressedTimeline:
    """Block endpoints: all release times plus ceil((1+eps)^k), capped at the
    instance horizon."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    H = instance_horizon(inst)
    pts = {H}
    rel = inst.release_matrix()
    for r in np.unique(rel):
        if 0 < r <= H:
            pts.add(int(r))
    k = 0
    while True:
        v = math.ceil((1.0 + eps) ** k)
        if v >= H:
            break
        pts.add(v)
        k += 1
    ends = np.array(sorted(pts), dtype=np.int64)
    return CompressedTimeline(ends=ends, epsilon=eps)
