"""Configuration LP over chains, solved by column generation.

The master has one variable per generated chain, a covering row per job
(total chain mass at least 1) and a capacity row per occupied (machine,
slot).  Pricing is exact: for fixed machine, job and completion time C the
cheapest chain takes the p - 1 slots with the smallest slot duals before C
plus the slot ending at C; a sweep over C with a running smallest-(p-1)
multiset finds the best completion in O(horizon log horizon).

Column generation terminates cleanly when no chain prices below -1e-7 (the
master duals are then feasible for the full dual, certifying optimality,
re-checked by an independent post-hoc pass), or through the Lagrangian
pricing bound once it proves the master objective is within 1e-6 relative of
the true optimum.  Pricing runs against smoothed duals to damp the
oscillation degenerate masters produce.

For horizons too long to index slot by slot, the timeline can be compressed
into blocks with geometrically growing lengths: capacity is aggregated per
block, a chain's charged completion time becomes the right endpoint of its
last block, and pricing picks slot counts per block.  Concrete slots are
materialized greedily (earliest first) inside each chosen block.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .chains import Chain, earliest_chain
from .instance import Instance, horizon as instance_horizon
from .simplex import Basis, LinearProgram, solve_lp

PRICE_TOL = 1e-7
POSTHOC_TOL = 1e-6
MASS_TOL = 1e-6


class ChainLpError(RuntimeError):
    """Master infeasibility, stalled generation, or a failed certificate."""


@dataclass
class ChainSolution:
    chains: list  # [(Chain, z)]
    objective: float
    eta: np.ndarray  # dual per job
    xi: dict  # (machine, slot or block) -> dual, zero entries omitted
    horizon: int
    compressed: bool = False
    blocks: np.ndarray | None = None  # block endpoints when compressed
    iterations: int = 0
    gap_bound: float = 0.0  # certified distance to the true LP optimum

    def completion_cost(self, chain: Chain) -> float:
        """Charged completion: actual slot for exact mode, right endpoint of
        the final block in compressed mode."""
        if not self.compressed:
            return float(chain.completion)
        k = int(np.searchsorted(self.blocks, chain.completion, side="left"))
        return float(self.blocks[k])

    def support_by_job(self, num_jobs: int):
        groups = [[] for _ in range(num_jobs)]
        for chain, z in self.chains:
            groups[chain.job].append((chain, z))
        return groups

    def to_csv(self) -> str:
        lines = ["machine,job,z,slots"]
        for chain, z in sorted(self.chains, key=lambda cz: (cz[0].machine, cz[0].job, cz[0].slots)):
            slot_str = " ".join(str(t) for t in chain.slots)
            lines.append(f"{chain.machine},{chain.job},{z:.12g},{slot_str}")
        return "\n".join(lines) + "\n"


def enumerate_chains(release: int, size: int, horizon: int):
    """All slot tuples for a job of the given size (test-scale oracle)."""
    from itertools import combinations

    return combinations(range(release + 1, horizon + 1), size)


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
    """Cheapest chain by reduced cost w * C + sum(xi over slots) - eta.

    xi_row[t - 1] is the dual of slot (t - 1, t].  Returns (chain, reduced
    cost) when the best chain prices below -1e-7, else (None, best cost).
    The sweep holds the p - 1 smallest duals seen so far in a two-heap
    selected/reserve structure.
    """
    p = size
    first_c = release + p
    if first_c > horizon:
        return None, math.inf
    # selected: max-heap (as negatives) of the p-1 cheapest slots in the
    # window; reserve: min-heap of the rest.
    selected: list = []
    reserve: list = []
    sel_sum = 0.0
    best_cost = math.inf
    best_c = -1
    for t in range(release + 1, first_c):
        heapq.heappush(selected, -xi_row[t - 1])
        sel_sum += xi_row[t - 1]
    for C in range(first_c, horizon + 1):
        if C > first_c:
            v = xi_row[C - 2]  # slot C-1 enters the window
            if len(selected) < p - 1:
                heapq.heappush(selected, -v)
                sel_sum += v
            elif selected and v < -selected[0]:
                worst = -heapq.heapreplace(selected, -v)
                sel_sum += v - worst
                heapq.heappush(reserve, worst)
            else:
                heapq.heappush(reserve, v)
        cost = weight * C + sel_sum + xi_row[C - 1] - eta_j
        if cost < best_cost - 1e-15:
            best_cost = cost
            best_c = C
    if best_cost >= -PRICE_TOL:
        return None, best_cost
    return _chain_for_completion(machine, job, xi_row, release, p, best_c), best_cost


def _chain_for_completion(machine, job, xi_row, release, p, C) -> Chain:
    """Cheapest chain completing exactly at C: the p - 1 smallest duals in
    the window plus the final slot."""
    window = xi_row[release : C - 1]
    order = np.argsort(window, kind="stable")[: p - 1]
    slots = sorted(int(release + 1 + k) for k in order)
    slots.append(C)
    return Chain(machine=machine, job=job, slots=tuple(slots))


def price_chain_multi(
    machine: int,
    job: int,
    xi_row: np.ndarray,
    eta_j: float,
    weight: float,
    size: int,
    release: int,
    horizon: int,
    buckets: int = 4,
) -> tuple[list, float]:
    """Like price_chain but returns the best violating chain per completion
    bucket (diverse columns speed up column generation); also returns the
    overall minimum reduced cost."""
    p = size
    first_c = release + p
    if first_c > horizon:
        return [], math.inf
    span = horizon - first_c + 1
    selected: list = []
    reserve: list = []
    sel_sum = 0.0
    best = [(math.inf, -1)] * buckets
    for t in range(release + 1, first_c):
        heapq.heappush(selected, -xi_row[t - 1])
        sel_sum += xi_row[t - 1]
    for C in range(first_c, horizon + 1):
        if C > first_c:
            v = xi_row[C - 2]
            if len(selected) < p - 1:
                heapq.heappush(selected, -v)
                sel_sum += v
            elif selected and v < -selected[0]:
                worst = -heapq.heapreplace(selected, -v)
                sel_sum += v - worst
                heapq.heappush(reserve, worst)
            else:
                heapq.heappush(reserve, v)
        cost = weight * C + sel_sum + xi_row[C - 1] - eta_j
        b = (C - first_c) * buckets // span
        if cost < best[b][0] - 1e-15:
            best[b] = (cost, C)
    overall = min(cost for cost, _ in best)
    out = []
    for cost, C in best:
        if C >= 0 and cost < -PRICE_TOL:
            out.append((_chain_for_completion(machine, job, xi_row, release, p, C), cost))
    return out, overall


def _greedy_disjoint_chains(inst: Instance, horizon: int) -> list[Chain]:
    """A feasible integral chain per job: fastest machine, earliest free
    slots.  Guarantees the initial master is feasible."""
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
        chains.append(Chain(machine=i, job=j, slots=tuple(slots)))
    return chains


def _warm_basis(prev, columns: list, row_keys: list) -> Basis | None:
    """Map the previous master's optimal basis onto the new master by chain
    and row key.  ``prev`` is (basic chains, rows whose slack is nonbasic);
    a row the previous master lacked enters with its slack basic."""
    if prev is None:
        return None
    basic, tight = prev
    return Basis(
        columns=np.array([k for k, c in enumerate(columns) if c in basic], dtype=np.int64),
        slack_rows=np.array([r for r, key in enumerate(row_keys) if key not in tight], dtype=np.int64),
    )


def _basis_keys(res, columns: list, row_keys: list) -> tuple[set, set]:
    """The optimal basis of a master in the key form ``_warm_basis`` reads."""
    slack = set(res.basis.slack_rows.tolist())
    basic = {columns[k] for k in res.basis.columns}
    return basic, {key for r, key in enumerate(row_keys) if r not in slack}


def _unique(chains: list[Chain]) -> list[Chain]:
    """Drop repeated chains, keeping the first; a repeated column would make
    a warm-start basis that names it singular."""
    return list(dict.fromkeys(chains))


def _solve_master(inst: Instance, columns: list[Chain], costs: np.ndarray, warm=None):
    """LP over the current columns, started from the previous round's basis
    ``warm`` (see ``_basis_keys``) when given; returns (solution, eta, xi
    dict, basis in key form)."""
    slot_keys = sorted({(c.machine, t) for c in columns for t in c.slots})
    slot_pos = {key: k for k, key in enumerate(slot_keys)}
    lp = LinearProgram(num_vars=len(columns))
    lp.set_objective(costs)
    for j in range(inst.num_jobs):
        idx = [k for k, c in enumerate(columns) if c.job == j]
        lp.add_row(np.array(idx), np.ones(len(idx)), ">=", 1.0)
    rows: list[list[int]] = [[] for _ in slot_keys]
    for k, c in enumerate(columns):
        for t in c.slots:
            rows[slot_pos[(c.machine, t)]].append(k)
    for members in rows:
        lp.add_row(np.array(members), np.ones(len(members)), "<=", 1.0)
    row_keys = [("job", j) for j in range(inst.num_jobs)] + slot_keys
    res = solve_lp(lp, _warm_basis(warm, columns, row_keys))
    if res.status != "optimal":
        raise ChainLpError(f"restricted master is {res.status}")
    eta = np.maximum(res.duals[: inst.num_jobs], 0.0)
    xi = {}
    for k, key in enumerate(slot_keys):
        v = -res.duals[inst.num_jobs + k]
        if v > 1e-12:
            xi[key] = float(v)
    return res, eta, xi, _basis_keys(res, columns, row_keys)


def _xi_matrix(inst: Instance, xi: dict, horizon: int) -> np.ndarray:
    mat = np.zeros((inst.num_machines, horizon))
    for (i, t), v in xi.items():
        mat[i, t - 1] = v
    return mat


def _price_all(inst: Instance, ximat: np.ndarray, eta: np.ndarray, H: int, seen: set):
    """Price every (machine, job) pair against the given duals.

    Returns (new chains, per-job cheapest chain cost mu_j).  The mu values
    certify a Lagrangian lower bound sum_j mu_j - sum xi on the LP optimum.
    """
    rel = inst.release_matrix()
    new_cols = []
    mu = np.full(inst.num_jobs, np.inf)
    for j in range(inst.num_jobs):
        for i in range(inst.num_machines):
            if not inst.allowed(j, i):
                continue
            found, best_rc = price_chain_multi(
                i, j, ximat[i], float(eta[j]), float(inst.weights[j]),
                inst.size(j, i), int(rel[j, i]), H,
            )
            mu[j] = min(mu[j], best_rc + float(eta[j]))
            for chain, _ in found:
                key = (chain.machine, chain.job, chain.slots)
                if key not in seen:
                    new_cols.append(chain)
                    seen.add(key)
    return new_cols, mu


SMOOTHING = 0.8  # weight on the dual stability center while pricing
GAP_REL_TOL = 1e-6
PURGE_ABOVE = 900  # master size (columns) that triggers a purge of stale ones


def solve_chain_lp(inst: Instance, horizon: int | None = None, max_rounds: int = 2000) -> ChainSolution:
    """Column generation to optimality of the chain LP.

    Termination is certified either way: cleanly, when no chain prices below
    -1e-7 against the master duals, or by the Lagrangian pricing bound
    sum_j mu_j - sum xi once it proves the master objective is within 1e-6
    relative of the true optimum.  Pricing runs against duals smoothed
    toward the best-bound stability center, which stops the tailing-off that
    raw degenerate master duals produce.  Each round's master starts from the
    previous round's optimal basis.

    The returned duals certify ``gap_bound``: on a clean stop they are the
    final master duals; on a gap stop they are the stability center's xi
    with eta_j the cheapest chain cost of job j under it.  Either way every
    chain prices non-negative (to 1e-7) and sum(eta) - sum(xi) is at least
    ``objective - gap_bound``.
    """
    H = instance_horizon(inst) if horizon is None else int(horizon)
    rel = inst.release_matrix()
    base = _greedy_disjoint_chains(inst, H)
    columns = list(base)
    if inst.num_jobs * inst.num_machines <= 200:
        for j in range(inst.num_jobs):
            for i in range(inst.num_machines):
                if inst.allowed(j, i):
                    columns.append(earliest_chain(i, j, int(rel[j, i]), inst.size(j, i)))
    columns = _unique(columns)
    seen = {(c.machine, c.job, c.slots) for c in columns}
    base_keys = {(c.machine, c.job, c.slots) for c in base}
    born = [0] * len(columns)

    best_lb = -np.inf
    center_eta = None
    center_xi = None
    center_mu = None
    gap_bound = np.inf
    clean = False
    iterations = 0
    warm = None
    for _ in range(max_rounds):
        iterations += 1
        costs = np.array([inst.weights[c.job] * c.completion for c in columns])
        res, eta, xi, warm = _solve_master(inst, columns, costs, warm)
        ximat = _xi_matrix(inst, xi, H)
        if center_eta is None:
            center_eta, center_xi = eta, ximat

        new_cols = None
        for alpha in (SMOOTHING, 0.0):
            eta_s = alpha * center_eta + (1 - alpha) * eta
            xi_s = alpha * center_xi + (1 - alpha) * ximat
            cols, mu = _price_all(inst, xi_s, eta_s, H, seen)
            lb = float(mu.sum() - xi_s.sum())
            if lb > best_lb:
                best_lb = lb
                center_eta, center_xi, center_mu = eta_s, xi_s, mu
            gap_bound = max(res.objective - best_lb, 0.0)
            if gap_bound <= GAP_REL_TOL * (1.0 + abs(res.objective)):
                new_cols = []
                break
            if cols:
                new_cols = cols
                break
            if alpha == 0.0:
                # no chain priced below tolerance against the true duals
                clean = True
                new_cols = []
        if not new_cols:
            break

        if len(columns) > PURGE_ABOVE:
            # Purge stale zero columns; the feasibility base and the basis
            # that warm-starts the next master always stay.
            basic = warm[0]
            keep = [
                k
                for k, (c, z) in enumerate(zip(columns, res.x))
                if z > 1e-9
                or c in basic
                or (c.machine, c.job, c.slots) in base_keys
                or born[k] >= iterations - 3
            ]
            dropped = set(range(len(columns))) - set(keep)
            for k in dropped:
                c = columns[k]
                seen.discard((c.machine, c.job, c.slots))
            columns = [columns[k] for k in keep]
            born = [born[k] for k in keep]
        columns.extend(new_cols)
        born.extend([iterations] * len(new_cols))
    else:
        raise ChainLpError(f"column generation did not converge in {max_rounds} rounds")

    if clean:
        # Independent certificate: re-price everything against the final duals.
        ximat = _xi_matrix(inst, xi, H)
        _, mu = _price_all(inst, ximat, eta, H, set())
        worst = float((mu - eta).min())
        if worst < -POSTHOC_TOL:
            raise ChainLpError(f"pricing certificate failed at {worst:.2e}")
        gap_bound = max(res.objective - float(mu.sum() - ximat.sum()), 0.0)
    elif gap_bound > GAP_REL_TOL * (1.0 + abs(res.objective)):
        raise ChainLpError(f"gap certificate {gap_bound:.2e} above tolerance")
    else:
        # Return the duals that proved the bound: the stability center.
        eta = center_mu
        xi = {(int(i), int(t) + 1): float(center_xi[i, t]) for i, t in zip(*np.nonzero(center_xi > 0.0))}

    support = [(c, float(z)) for c, z in zip(columns, res.x) if z > 1e-9]
    sol = ChainSolution(
        chains=support,
        objective=float(res.objective),
        eta=eta,
        xi=xi,
        horizon=H,
        iterations=iterations,
        gap_bound=float(gap_bound),
    )
    validate_chain_solution(inst, sol)
    return sol


def validate_chain_solution(inst: Instance, sol: ChainSolution) -> None:
    rel = inst.release_matrix()
    mass = np.zeros(inst.num_jobs)
    occupancy: dict = {}
    for chain, z in sol.chains:
        chain.validate(int(rel[chain.job, chain.machine]), sol.horizon, inst.size(chain.job, chain.machine))
        mass[chain.job] += z
        if not sol.compressed:
            for t in chain.slots:
                key = (chain.machine, t)
                occupancy[key] = occupancy.get(key, 0.0) + z
    if (mass < 1.0 - MASS_TOL).any():
        j = int(np.argmin(mass))
        raise ChainLpError(f"job {j} covered only to {mass[j]:.8f}")
    if occupancy and max(occupancy.values()) > 1.0 + MASS_TOL:
        key = max(occupancy, key=occupancy.get)
        raise ChainLpError(f"slot {key} overloaded: {occupancy[key]:.8f}")
    if sol.compressed:
        # Per-block aggregated capacity instead of per-slot occupancy.
        ends = sol.blocks
        load: dict = {}
        for chain, z in sol.chains:
            ks = np.searchsorted(ends, np.array(chain.slots), side="left")
            for k in ks:
                key = (chain.machine, int(k))
                load[key] = load.get(key, 0.0) + z
        starts = np.concatenate(([0], ends[:-1]))
        for (i, k), v in load.items():
            cap = float(ends[k] - starts[k])
            if v > cap + MASS_TOL:
                raise ChainLpError(f"block {(i, k)} overloaded: {v:.6f} > {cap:g}")


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


def build_compressed_timeline(inst: Instance, eps: float, horizon: int | None = None) -> CompressedTimeline:
    """Block endpoints: all release times plus ceil((1+eps)^k), capped at the
    horizon."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    H = instance_horizon(inst) if horizon is None else int(horizon)
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


def _price_chain_blocks(
    machine: int,
    job: int,
    xi_blocks: np.ndarray,
    eta_j: float,
    weight: float,
    size: int,
    release: int,
    timeline: CompressedTimeline,
):
    """Cheapest block allocation: for each completion block k*, take one slot
    there plus the p - 1 cheapest remaining slots in blocks up to k*."""
    ends, starts = timeline.ends, timeline.starts
    avail = np.maximum(ends - np.maximum(starts, release), 0).astype(np.int64)
    best = (math.inf, None)
    K = len(ends)
    for kstar in range(K):
        if avail[kstar] < 1:
            continue
        total_avail = int(avail[: kstar + 1].sum())
        if total_avail < size:
            continue
        order = np.argsort(xi_blocks[: kstar + 1], kind="stable")
        need = size - 1
        cost = weight * float(ends[kstar]) + xi_blocks[kstar] - eta_j
        counts = np.zeros(kstar + 1, dtype=np.int64)
        counts[kstar] = 1
        for k in order:
            if need == 0:
                break
            take = int(min(avail[k] - counts[k], need))
            if take > 0:
                counts[k] += take
                need -= take
                cost += take * xi_blocks[k]
        if need > 0:
            continue
        if cost < best[0] - 1e-15:
            best = (cost, counts)
    if best[1] is None or best[0] >= -PRICE_TOL:
        return None, best[0]
    counts = best[1]
    slots = []
    for k in np.flatnonzero(counts):
        lo = int(max(starts[k], release)) + 1
        slots.extend(range(lo, lo + int(counts[k])))
    return Chain(machine=machine, job=job, slots=tuple(sorted(slots))), best[0]


def solve_chain_lp_compressed(inst: Instance, eps: float, max_rounds: int = 500) -> ChainSolution:
    """Column generation over the block-compressed timeline.

    Chain cost charges the right endpoint of the chain's final block, so the
    objective lies within a (1 + eps) factor of the exact chain LP.  Each
    round's master starts from the previous round's optimal basis.
    ``gap_bound`` comes from the final round's pricing: the Lagrangian bound
    sum_j mu_j - sum_{i,k} len_k xi_{i,k}, with mu_j job j's cheapest block
    allocation, must lie within 1e-6 relative of the objective.
    """
    H = instance_horizon(inst)
    timeline = build_compressed_timeline(inst, eps, H)
    ends, starts = timeline.ends, timeline.starts
    rel = inst.release_matrix()

    usage_cache: dict = {}

    def usage(c: Chain) -> dict:
        """Slot count per block of the chain's slots, cached per chain."""
        if c not in usage_cache:
            blocks, counts = np.unique(np.searchsorted(ends, c.slots, side="left"), return_counts=True)
            usage_cache[c] = dict(zip(blocks.tolist(), counts.tolist()))
        return usage_cache[c]

    def chain_cost(c: Chain) -> float:
        return float(inst.weights[c.job] * ends[max(usage(c))])

    columns = _greedy_disjoint_chains(inst, H)
    seen = {(c.machine, c.job, c.slots) for c in columns}

    def solve_master(cols, warm):
        keys = sorted({(c.machine, blk) for c in cols for blk in usage(c)})
        pos = {key: k for k, key in enumerate(keys)}
        lp = LinearProgram(num_vars=len(cols))
        lp.set_objective(np.array([chain_cost(c) for c in cols]))
        for j in range(inst.num_jobs):
            idx = [k for k, c in enumerate(cols) if c.job == j]
            lp.add_row(np.array(idx), np.ones(len(idx)), ">=", 1.0)
        use: list[dict] = [dict() for _ in keys]
        for k, c in enumerate(cols):
            for blk, count in usage(c).items():
                use[pos[(c.machine, blk)]][k] = count
        for key, d in zip(keys, use):
            i, blk = key
            cap = float(ends[blk] - starts[blk])
            lp.add_row(np.array(list(d)), np.array([float(v) for v in d.values()]), "<=", cap)
        row_keys = [("job", j) for j in range(inst.num_jobs)] + keys
        res = solve_lp(lp, _warm_basis(warm, cols, row_keys))
        if res.status != "optimal":
            raise ChainLpError(f"compressed master is {res.status}")
        eta = np.maximum(res.duals[: inst.num_jobs], 0.0)
        xi = np.zeros((inst.num_machines, len(ends)))
        for k, (i, blk) in enumerate(keys):
            xi[i, blk] = max(-res.duals[inst.num_jobs + k], 0.0)
        return res, eta, xi, _basis_keys(res, cols, row_keys)

    iterations = 0
    warm = None
    for _ in range(max_rounds):
        iterations += 1
        res, eta, xi, warm = solve_master(columns, warm)
        new_cols = []
        mu = np.full(inst.num_jobs, np.inf)
        for j in range(inst.num_jobs):
            for i in range(inst.num_machines):
                if not inst.allowed(j, i):
                    continue
                chain, rc = _price_chain_blocks(
                    i, j, xi[i], float(eta[j]), float(inst.weights[j]),
                    inst.size(j, i), int(rel[j, i]), timeline,
                )
                mu[j] = min(mu[j], rc + float(eta[j]))
                if chain is not None:
                    key = (chain.machine, chain.job, chain.slots)
                    if key not in seen:
                        new_cols.append(chain)
                        seen.add(key)
        if not new_cols:
            break
        columns.extend(new_cols)
    else:
        raise ChainLpError(f"compressed generation did not converge in {max_rounds} rounds")

    lower = float(mu.sum() - (timeline.lengths * xi).sum())
    gap_bound = max(res.objective - lower, 0.0)
    if gap_bound > GAP_REL_TOL * (1.0 + abs(res.objective)):
        raise ChainLpError(f"compressed gap certificate {gap_bound:.2e} above tolerance")

    support = [(c, float(z)) for c, z in zip(columns, res.x) if z > 1e-9]
    xi_dict = {
        (i, k): float(xi[i, k])
        for i in range(inst.num_machines)
        for k in range(len(ends))
        if xi[i, k] > 1e-12
    }
    sol = ChainSolution(
        chains=support,
        objective=float(res.objective),
        eta=eta,
        xi=xi_dict,
        horizon=H,
        compressed=True,
        blocks=ends,
        iterations=iterations,
        gap_bound=gap_bound,
    )
    validate_chain_solution(inst, sol)
    return sol
