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
optimum.  The first solve starts from the list schedule's chains: each
job's chain at 1 and every capacity row's slack at its block's spare room
is a feasible basis, so no master solve runs a phase 1.  The master alone
decides which chains are new: given a chain it holds, or a second copy, it
drops it.

The first master's chains come from one builder: the chain s + 1, ..., s +
p_ij of each (machine i, job j, start s) triple.  The start-time LP's list
schedule (``list_schedule``) gives the first n: it is non-preemptive and
ends by ``lp_horizon``, so they load no block past its length, and with
the capacity rows' slacks they are the first master's starting basis.
Then come the earliest chain of every allowed pair and, in the exact LP,
the optimal support of the start-time LP over its full range.  That support alone is
a feasible master solution at that LP's objective: its chains start at or
after their releases and end by ``lp_horizon``, at most the horizon; each
job's mass is 1; the LP's cover rows load every slot at most 1; and each
costs what its entry does.  So column generation opens at or below that
objective, instead of spending its first rounds in degenerate masters whose
objective does not move.  The seed is skipped when the start-time LP is
refused for its size, as the chain master may still fit.  The compressed LP
takes no seed: on the chain-cg corpus at eps 0.2, when the first master
still ran a phase 1, a seed (each chain in its blocks' earliest slots) took
its solves from 60 rounds to 65 and from 530 master pivots to 586, before
the seed LP's own.

One driver serves every timeline, and one exact pricer: each slot carries
its block's dual, and the cheapest chain completing in block k takes a slot
there plus the p - 1 slots with the smallest duals in (r_j, ends[k] - 1].
Slot duals are non-negative and mostly zero, so those p - 1 are the window's
zeros first and then its smallest positive duals.  One pricer call per
pricing pass prices every (machine, job) pair at every block end of the live
timeline (past each machine's last positive dual and a pair's release plus
size, its cost does not fall) and finds a chain at every valley of a pair's
cost over its block ends, so a round adds many diverse columns; the found
chains' completions and slot sets are then worked out together as arrays.  A
chain enters the master in one form, the earliest slots after the release
in each of its blocks, so two chains with the same slot count per block are
one column.

The master also holds zero-cost shift columns, dual-optimal inequalities
in the sense of Ben Amor, Desrosiers and Valerio de Carvalho (Oper. Res.
54, 2006).  Let r_i be the latest release of a job allowed on machine i and
k0 the first block that starts at or after it.  For each pair of
consecutive capacity rows (i, k), (i, k + 1) the master holds with k >= k0,
a column +1 in row (i, k) and -1 in row (i, k + 1) lets block k lend its
room to block k + 1.  Its dual constraint is xi_{i,k} >= xi_{i,k+1}: past
every release on the machine, an earlier slot is worth at least a later
one.  The columns leave the LP's optimum, and so its Lagrangian bound,
where they were.  With them the master's chains need only meet prefix
capacities: from k0 on, the load of blocks k0..b is at most their total
length for every b.  When the gap closes, a recovery pass turns such chains
into ones that meet each block's own capacity at no higher cost.  At the
first overloaded block t, some block s in [k0, t) has spare room; the
chains that fill their share of s carry less than 1 of mass, so the others
use t by more than the overload, and one of their slots moves from t to s,
each chain keeping its blocks' earliest slots.  s lies after every release
on the machine, and no completion moves later.  The solution's objective is
the recovered chains' own cost.  So degenerate masters return duals on a
face that still holds an optimal dual, which pricing refutes less often: on
the chain-cg corpus the exact solves take 43 rounds and 407 pivots with
them against 99 and 1,758 without, and at eps 0.2 51 rounds and 436 pivots
against 82 and 695.

Column generation stops on one certificate: the Lagrangian pricing bound
sum_j mu_j - sum_{i,k} len_k xi_{i,k}, from the stability center (the
smoothed duals behind the best bound so far), once it proves the master
objective within 1e-6 relative of the true optimum.  The solution carries
those duals.  Pricing runs against duals smoothed toward that center with a
weight alpha, to damp the oscillation degenerate masters produce, and then
against the raw master duals if the smoothed ones give no new chain; when
neither does and the gap is still open, the solve stops with
``ChainLpError``.  alpha adapts after every smoothed pass, by the rule of
Pessoa, Sadykov, Uchoa and Vanderbeck (INFORMS J. Comput. 30, 2018): the
pricer also returns the slots per block of each job's cheapest chain, whose
excess over the block lengths is a subgradient of the bound at the smoothed
duals, and alpha falls when it points toward the raw duals and rises
otherwise.  On the chain-cg corpus that took 94 rounds against 111 with a
fixed alpha of 0.8 (Wentges, Int. Trans. Oper. Res. 4, 1997).  A round that
would open capacity rows past the simplex's basis-inverse budget is refused
by ``LinearProgram`` with ``LpError``; a horizon whose per-(machine, slot)
pricing arrays would each be larger than that budget is refused with
``LpError`` too, before anything of its size is built.  Column generation
runs on the weights times the power of two that brings the largest into
[1, 2), and scales the answer back: that is exact in floating point, and the
absolute pricing and simplex tolerances then act alike at every scale of
the weights.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain as concat, compress

import numpy as np

from . import simplex
from .chains import Chain
from .instance import Instance, horizon as instance_horizon, normalize_weights
from .interval_lp import _pairs, list_schedule, solve_interval_lp
from .simplex import LinearProgram, LpError, solve_lp

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
    gap_bound: float = 0.0  # certified distance to the true LP optimum
    stats: dict = field(default_factory=dict)  # master solves' simplex counters, summed; rounds; seed_columns, seed_pivots; columns, shift_columns, recovery_moves

    @property
    def iterations(self) -> int:
        """The column-generation rounds, ``stats["rounds"]``; 0 without it."""
        return self.stats.get("rounds", 0)

    def support_by_job(self, num_jobs: int):
        groups = [[] for _ in range(num_jobs)]
        for chain, z in self.chains:
            groups[chain.job].append((chain, z))
        return groups


PRICE_CELLS = 1 << 22  # (positive dual, job, C) mask cells per batch of jobs; bounds memory


def price_chain_multi(
    xi,
    machines,
    jobs,
    eta,
    weights,
    sizes,
    releases,
    ends,
) -> tuple[list, np.ndarray]:
    """Price (machine, job) pairs against their machines' block duals.

    ``ends`` are the blocks' right ends, strictly increasing; the last is
    the horizon, and unit blocks are 1..horizon.  xi[i, k] >= 0 is the dual
    of machine i's block k and every slot of the block carries it.  Pair q
    is job ``jobs[q]`` on machine ``machines[q]``; ``eta``, ``weights``,
    ``sizes`` and ``releases`` are per pair.  Job j's cheapest chain on
    machine i completing in block k, at C = ends[k], costs w_j C + xi_C -
    eta_j plus the p_j - 1 smallest slot duals in the window (r_j, C - 1]:
    the window's zeros, then as many of its smallest positive duals as are
    still needed.  Each machine's slot duals are sorted once, and a
    (positive dual, pair, C) mask of the window members whose rank among the
    window's positive duals is within that need sums them for every pair of
    the machine and every C at once.

    Returns (found, best, load): ``found`` lists (chain, reduced cost) for
    every valley of each pair's cost over its block ends, pair by pair in
    the given order and then by completion (many diverse columns per round
    speed up column generation).  End k is a valley when its cost is below
    -1e-7, strictly below end k - 1's (inf before the first end with room
    for the job) and at most end k + 1's, so a plateau goes to its earliest
    end.  Each chain takes the earliest slots after the release in each of
    its blocks.  ``best[q]`` is the minimum reduced cost of pair q, inf when
    no chain of it fits by the horizon.  ``load[i, k]`` counts the slots in
    machine i's block k of each job's cheapest chain: the first pair in the
    given order at the job's least cost, at that pair's earliest end of
    least cost, whatever its sign.  ``load`` less the block lengths is the
    subgradient in xi of the Lagrangian bound these duals give.  The
    completions and slot sets of all found and cheapest chains are worked
    out together, as arrays.

    Only the live timeline is priced.  Past E_i, the end of machine i's last
    block with a positive dual (0 without one), a pair's chain completing at
    C >= max(E_i, r) + p finds p - 1 zero slots in its window and a zero
    dual at C, so it costs w C - eta, which does not fall as C grows.  Every
    end past the first at or after the largest such bound over the pairs is
    therefore neither a valley nor below that end's cost, and the ends are
    cut there.
    """
    C = np.asarray(ends, dtype=np.int64)
    xi = np.asarray(xi, dtype=float)[:, : C.size]
    if (xi < 0.0).any():
        raise ValueError("slot duals must be non-negative")
    shape = xi.shape
    machines = np.asarray(machines, dtype=np.int64)
    jobs = np.asarray(jobs, dtype=np.int64)
    eta = np.asarray(eta, dtype=float)
    w = np.asarray(weights, dtype=float)
    p = np.asarray(sizes, dtype=np.int64)
    r = np.asarray(releases, dtype=np.int64)
    live = np.where(xi > 0.0, C, 0).max(axis=1)  # E_i
    cut = np.searchsorted(C, (np.maximum(live[machines], r) + p).max(initial=0))
    C, xi = C[: cut + 1], xi[:, : cut + 1]
    H, K = int(C[-1]), C.size
    slot_xi = np.repeat(xi, np.diff(C, prepend=0), axis=1) if K < H else xi
    zeros = np.zeros((xi.shape[0], H + 1), dtype=np.int64)  # per machine, zero duals in slots 1..t
    np.cumsum(slot_xi == 0.0, axis=1, out=zeros[:, 1:])
    # Per machine, the slots by (dual, slot): its zero duals in slot order,
    # then its npos positive duals in increasing order.
    order = np.argsort(slot_xi, axis=1, kind="stable")
    npos = H - zeros[:, H]
    cost = np.empty((jobs.size, K))
    for i in np.unique(machines).tolist():
        pairs = np.flatnonzero(machines == i)
        pos = order[i, H - npos[i] :]
        t, v = pos + 1, slot_xi[i, pos]  # positive duals in increasing order, with their slots
        # For C > r_j, a positive dual's rank in job j's window is its rank
        # among those before C less the number of those up to r_j ranked
        # before it.
        before_c = t[:, None] < C
        rank_c = np.cumsum(before_c, axis=0, dtype=np.int32)  # int32 halves the mask's memory traffic
        zeros_c = zeros[i, C - 1]
        step = max(1, PRICE_CELLS // max(1, t.size * K))
        for j0 in range(0, pairs.size, step):
            g = pairs[j0 : j0 + step]
            after_r = t[:, None] > r[g]
            need = ((p[g] - 1)[:, None] - (zeros_c - zeros[i, np.minimum(r[g], H)][:, None])).astype(np.int32)
            take = after_r[:, :, None] & before_c[:, None, :]
            take &= rank_c[:, None, :] <= need + np.cumsum(~after_r, axis=0, dtype=np.int32)[:, :, None]
            cheapest = (v @ take.reshape(t.size, need.size)).reshape(need.shape)
            cost[g] = w[g, None] * C + cheapest + xi[i] - eta[g, None]
    first = r + p
    cost[C < first[:, None]] = np.inf
    best = cost.min(axis=1, initial=np.inf)

    # The valleys; ends before the first with room cost inf.
    valley = cost < -PRICE_TOL
    valley[:, 1:] &= cost[:, 1:] < cost[:, :-1]
    valley[:, :-1] &= cost[:, :-1] <= cost[:, 1:]
    q, k = np.nonzero(valley)
    # Each job's cheapest chain: the first pair in the given order at the
    # job's least cost (lexsort is stable), at that pair's earliest end.
    by_job = np.lexsort((best, jobs))
    cheap = by_job[np.diff(jobs[by_job], prepend=-1) != 0]
    cheap = cheap[best[cheap] < np.inf]
    pick, end = np.concatenate((q, cheap)), np.concatenate((k, cost[cheap].argmin(axis=1)))
    slots = _cheapest_slots(order, zeros, npos, machines[pick], r[pick], p[pick], C[end])
    split = int(p[q].sum())  # the valleys' slots, then the cheapest chains'
    block = np.searchsorted(C, slots[split:])
    load = np.bincount(np.repeat(machines[cheap], p[cheap]) * shape[1] + block, minlength=shape[0] * shape[1])
    load = load.reshape(shape)
    slots = slots[:split]
    if K < H:  # unit blocks hold a chain's slots in that form already
        slots = _earliest_per_block(slots, p[q], r[q], C)
    return list(zip(_chains(machines[q], jobs[q], p[q], slots), cost[q, k].tolist())), best, load


def _cheapest_slots(order, zeros, npos, machine, release, size, completion) -> np.ndarray:
    """The slots of chains that complete at ``completion`` and take the
    size - 1 smallest slot duals of the window (release, completion - 1] on
    their machine: the window's zeros first, in slot order, then its
    smallest positive duals.  Returns them chain after chain, each
    ascending.  ``order``, ``zeros`` and ``npos`` are the pricer's
    per-machine slot order, zero-dual counts and positive-dual counts."""
    H = order.shape[1]
    count = size.size
    z0 = zeros[machine, release]
    nz = np.minimum(size - 1, zeros[machine, completion - 1] - z0)  # zeros taken
    # The zero duals of a machine's window are consecutive in its order.
    owner_z = np.repeat(np.arange(count), nz)
    rank = np.arange(owner_z.size) - np.repeat(np.cumsum(nz) - nz, nz)
    slot_z = order[machine[owner_z], z0[owner_z] + rank] + 1
    # The first positive duals in increasing order that lie in the window.
    top = int(npos.max(initial=0))
    cand = order[machine, H - top :] + 1
    take = np.arange(top) >= top - npos[machine, None]
    take &= (cand > release[:, None]) & (cand < completion[:, None])
    take &= np.cumsum(take, axis=1) <= (size - 1 - nz)[:, None]
    owner_p, col = np.nonzero(take)
    owner = np.concatenate((owner_z, owner_p, np.arange(count)))
    slot = np.concatenate((slot_z, cand[owner_p, col], completion))
    return np.sort(owner * (H + 1) + slot) % (H + 1)


def _earliest_per_block(slots, size, release, ends) -> np.ndarray:
    """Chains with the same slot count per block as ``slots`` (chain after
    chain, each ascending, ``size`` slots each) that take each block's
    earliest slots after the release; ``ends`` are the block right ends."""
    owner = np.repeat(np.arange(size.size), size)
    block = np.searchsorted(ends, slots, side="left")
    at = np.arange(slots.size)
    new = np.ones(slots.size, dtype=bool)  # first slot of a chain in a block
    new[1:] = (owner[1:] != owner[:-1]) | (block[1:] != block[:-1])
    rank = at - np.maximum.accumulate(np.where(new, at, 0))
    start = np.concatenate(([0], ends[:-1]))[block]
    return np.maximum(start, release[owner]) + 1 + rank


def _chains(machine, job, size, slots) -> list[Chain]:
    """One chain per (machine, job, size), from chains' slots laid end to end."""
    flat, bounds = slots.tolist(), np.cumsum(size).tolist()
    return [
        Chain(i, j, tuple(flat[b - s : b]))
        for i, j, s, b in zip(machine.tolist(), job.tolist(), size.tolist(), bounds)
    ]


def _contiguous_chains(inst: Instance, ends: np.ndarray, machine, job, start) -> list[Chain]:
    """The chain s + 1, ..., s + p_ij of each triple (machine i, job j,
    start s), in the earliest-slots-per-block form of the blocks with right
    ends ``ends``, one per triple and in their order."""
    size = inst.sizes[job, machine]
    at = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    slots = _earliest_per_block(np.repeat(start, size) + 1 + at, size, inst.release_matrix()[job, machine], ends)
    return _chains(machine, job, size, slots)


class _Master:
    """Restricted master: one live LP for a whole column-generation run.

    Rows are the job covering rows, then one capacity row per (machine,
    block), in the order columns first use them.  A chain column's
    coefficient in a capacity row is its slot count in that block, and the
    row's right-hand side is the block's length.  Each pair of consecutive
    capacity rows (i, k), (i, k + 1) it holds, with block k starting at or
    after the latest release on machine i, also has a zero-cost shift column,
    +1 in row (i, k) and -1 in row (i, k + 1).  A round appends its new
    capacity rows, empty, then its new chain columns and the shift columns
    of the pairs those rows complete, so the next ``solve_lp`` resumes from
    the previous optimum with the new rows' slacks basic.  No column ever
    leaves, and each chain enters once: ``columns`` is the chain set, in
    the order the chains entered, ``chain_col`` each one's LP column and
    ``shift_col`` the LP column of each shift.
    """

    def __init__(self, inst: Instance, ends: np.ndarray):
        self.inst = inst
        self.ends = np.asarray(ends, dtype=np.int64)
        self.lengths = np.diff(self.ends, prepend=0).astype(float)
        # Per machine, the first block that starts at or after the latest
        # release of a job allowed there: shift columns begin at it.
        latest = np.where(inst.allowed_mask(), inst.release_matrix(), 0).max(axis=0)
        self.first_shift = np.searchsorted(self.ends - self.lengths, latest)
        n = inst.num_jobs
        self.columns: dict[Chain, None] = {}
        self.chain_col = self.shift_col = np.zeros(0, dtype=np.int64)
        self.lp = LinearProgram()
        self.lp.add_rows([">="] * n, np.ones(n))
        # Row key of job j is j, of (machine i, block k) num_jobs + i * K + k;
        # ``keys`` holds each LP row's key and ``row`` each key's LP row.
        self.keys = np.arange(n)
        self.row = np.full(n + inst.num_machines * self.ends.size, -1, dtype=np.int64)
        self.row[:n] = self.keys

    def add(self, chains: list[Chain]) -> list[bool]:
        """Append the chains the master does not hold yet as columns, each
        once and in the given order, first the capacity rows they open, and
        then the shift columns of the pairs those rows complete.  Returns,
        per chain given, whether it was appended."""
        appended = []
        for chain in chains:
            appended.append(chain not in self.columns)
            self.columns.setdefault(chain)
        chains = list(compress(chains, appended))
        if not chains:
            return appended
        n, K = self.inst.num_jobs, self.ends.size
        job, machine, lengths = np.array([(c.job, c.machine, c.length) for c in chains], dtype=np.int64).T
        owner = np.repeat(np.arange(len(chains)), lengths)
        slots = np.fromiter(concat.from_iterable(c.slots for c in chains), np.int64, owner.size)
        block = np.searchsorted(self.ends, slots, side="left")
        # One capacity entry per (chain, block): a chain's blocks ascend, so
        # its entries are the runs of equal ``part``.
        key = n + machine[owner] * K + block
        part = owner * self.row.size + key
        first = np.concatenate(([0], (part[1:] != part[:-1]).nonzero()[0] + 1))
        count = np.concatenate((first[1:], [key.size])) - first
        key = key[first]
        new = np.zeros(self.row.size, dtype=bool)
        new[key[self.row[key] < 0]] = True
        opened = new.nonzero()[0]
        if opened.size:
            self.row[opened] = self.lp.add_rows(["<="] * opened.size, self.lengths[(opened - n) % K])
            self.keys = np.concatenate((self.keys, opened))
        # Column k lists its job row, then its capacity rows by block.
        chain = owner[first]
        at = np.arange(first.size) + chain + 1  # entry of each capacity row
        head = np.searchsorted(chain, np.arange(len(chains))) + np.arange(len(chains))  # of each job row
        rows = np.empty(first.size + len(chains), dtype=np.int64)
        coef = np.ones(rows.size)
        rows[head], rows[at], coef[at] = job, self.row[key], count
        last = np.cumsum(lengths) - 1
        ptr = np.concatenate((head, [rows.size]))
        added = self.lp.add_columns(ptr, rows, coef, self.inst.weights[job] * self.ends[block[last]])
        self.chain_col = np.concatenate((self.chain_col, added))
        self._add_shifts(opened)
        return appended

    def _add_shifts(self, opened: np.ndarray) -> None:
        """Append the shift columns of the pairs of capacity rows that the
        rows with keys ``opened`` complete.  A pair is new when one of its
        rows just opened; it is keyed by its later row."""
        if not opened.size:
            return
        n, K = self.inst.num_jobs, self.ends.size
        upper = np.union1d(opened, opened + 1)
        upper = upper[upper < self.row.size]
        machine, block = np.divmod(upper - n, K)
        upper = upper[(block > self.first_shift[machine]) & (self.row[upper] >= 0)]
        upper = upper[self.row[upper - 1] >= 0]
        if upper.size:
            rows = np.stack((self.row[upper - 1], self.row[upper]), axis=1).ravel()
            coef = np.tile([1.0, -1.0], upper.size)
            added = self.lp.add_columns(np.arange(0, rows.size + 1, 2), rows, coef, np.zeros(upper.size))
            self.shift_col = np.concatenate((self.shift_col, added))

    def solve(self, start=None):
        """Solve the master; returns (solution, eta, xi) with eta the job
        duals clipped at zero and xi[i, k] the negated dual of the capacity
        row of (machine i, block k), zero where there is none or where it is
        at most 1e-12 (the non-negative form pricing takes).  Without
        ``start`` the solve resumes from the last optimum; ``start``, one
        chain column per job, in job order, names the starting basis: those
        chains and every capacity row's slack (see ``solve_lp``).  A resume
        has no restart path, as it cannot fail: the master appends only
        ``<=`` rows with right-hand sides >= 0, so each new row enters with
        its slack feasible, and the old basic values do not change.  One
        that failed would raise ``LpError``."""
        n, K = self.inst.num_jobs, self.ends.size
        res = solve_lp(self.lp, start)
        if res.status != "optimal":
            raise ChainLpError(f"restricted master is {res.status}")
        # The job rows come first, in job order.
        eta = np.maximum(res.duals[:n], 0.0)
        xi = np.zeros((self.inst.num_machines, K))
        dual = -res.duals[n:]
        xi.ravel()[self.keys[n:] - n] = np.where(dual > 1e-12, dual, 0.0)
        return res, eta, xi


GAP_REL_TOL = 1e-6
MAX_ROUNDS = 2000


def _generate(inst: Instance, horizon: int, ends: np.ndarray | None = None, seed=()) -> ChainSolution:
    """Column generation to optimality of the chain LP over the blocks with
    right ends ``ends`` (compressed), or over unit blocks up to ``horizon``.

    The first master holds the chains (``_contiguous_chains``) of the list
    schedule, of every allowed pair at its release and of the ``seed``'s
    (machines, jobs, starts), in that order; the master keeps the first of
    equal chains, and ``seed_columns`` counts the seed chains it appended.
    Its solve starts from the list schedule's chains, ``chain_col[:n]``, one
    per job, with every capacity row's slack basic.

    Each later round solves the master from the previous round's optimal
    basis.  Each round prices every (machine, job) pair in one
    ``price_chain_multi`` pass against duals smoothed toward the stability
    center, alpha times the center plus 1 - alpha times the master's duals,
    then, if the master appends none of the chains found, against the raw
    master duals; at alpha 0 the two are one pass.  alpha starts at 0.5.
    After each round's first pass it falls by 0.1, not below 0, when that
    pass's subgradient ``load - lengths`` has a positive inner product with
    the raw xi less the smoothed one, and otherwise rises by a tenth of 1 -
    alpha, to at most 0.99.  The pass's per-job cheapest chain costs mu_j
    give the Lagrangian bound sum_j mu_j - sum len_k xi on the LP optimum;
    a bound that beats the best so far moves the center to the pass's
    duals.  The run stops when the master objective is within 1e-6 relative
    of the best bound, and raises ``ChainLpError`` when the raw pass adds
    no chain while the gap is open.

    The recovery pass (``_recover``) then makes the master's chains meet
    every block's capacity, and the objective is their cost.
    ``stats["columns"]`` counts the last master's chains,
    ``stats["shift_columns"]`` its shift columns and
    ``stats["recovery_moves"]`` the recovery's slot moves.  The returned
    duals are the stability center's: its xi, and eta_j the cheapest chain
    cost of job j under it.  So every chain prices non-negative, and
    sum(eta) - sum(len xi) is at least ``objective - gap_bound``.

    The pricer holds a few arrays of one entry per (machine, slot); a
    horizon that would make one of them larger than the simplex's
    basis-inverse budget, ``simplex.MAX_BASIS_INVERSE_BYTES``, is refused
    with ``LpError``, as the simplex refuses a master over it, before
    anything of the horizon's size is built.
    """
    slot_bytes = 8 * inst.num_machines * (horizon + 1)
    if slot_bytes > simplex.MAX_BASIS_INVERSE_BYTES:
        raise LpError(
            f"chain LP too large: horizon {horizon} on {inst.num_machines} machines needs "
            f"{slot_bytes / 2**20:.0f} MiB per pricing array, over the "
            f"{simplex.MAX_BASIS_INVERSE_BYTES / 2**20:.0f} MiB limit"
        )
    compressed = ends is not None
    if not compressed:
        ends = np.arange(1, horizon + 1)
    inst, shift = normalize_weights(inst)
    n = inst.num_jobs
    jobs, machines, sizes, releases = _pairs(inst)
    scheduled, start = list_schedule(inst)
    seed = np.asarray(seed, dtype=np.int64).reshape(3, -1)
    opening = np.hstack(([scheduled, np.arange(n), start], [machines, jobs, releases], seed))
    master = _Master(inst, ends)
    appended = master.add(_contiguous_chains(inst, ends, *opening))
    lengths, weights = master.lengths, inst.weights[jobs]

    best_lb, alpha = -np.inf, 0.5
    center_eta = center_xi = center_mu = None
    stats = Counter(seed_columns=sum(appended[n + jobs.size :]), seed_pivots=0)
    for iterations in range(1, MAX_ROUNDS + 1):
        res, eta, xi = master.solve(master.chain_col[:n] if iterations == 1 else None)
        stats.update(res.stats)
        if center_eta is None:
            center_eta, center_xi = eta, xi

        smoothed = alpha
        for a in (smoothed, 0.0) if smoothed else (0.0,):
            eta_s = a * center_eta + (1 - a) * eta
            xi_s = a * center_xi + (1 - a) * xi
            found, best, load = price_chain_multi(xi_s, machines, jobs, eta_s[jobs], weights, sizes, releases, ends)
            if a == smoothed:
                # Pessoa, Sadykov, Uchoa and Vanderbeck (INFORMS J. Comput.
                # 30, 2018): when the bound's subgradient at the separation
                # point ascends toward the raw duals, the center held pricing
                # back, so alpha falls; otherwise it creeps toward 1.
                if ((load - lengths) * (xi - xi_s)).sum() > 0.0:
                    alpha = max(alpha - 0.1, 0.0)
                else:
                    alpha = min(alpha + 0.1 * (1.0 - alpha), 0.99)
            mu = np.full(n, np.inf)
            np.minimum.at(mu, jobs, best + eta_s[jobs])
            lb = float(mu.sum() - (xi_s * lengths).sum())
            if lb > best_lb:
                best_lb = lb
                center_eta, center_xi, center_mu = eta_s, xi_s, mu
            gap_bound = max(res.objective - best_lb, 0.0)
            closed = gap_bound <= GAP_REL_TOL * (1.0 + abs(res.objective))
            if closed or any(master.add([chain for chain, _ in found])):
                break
        else:
            gap = np.ldexp(gap_bound, -shift)
            raise ChainLpError(f"gap certificate {gap:.2e} still open, and pricing found no new chain")
        if closed:
            break
    else:
        raise ChainLpError(f"column generation did not converge in {MAX_ROUNDS} rounds")

    support = [(c, float(z)) for c, z in zip(master.columns, res.x[master.chain_col]) if z > 1e-9]
    support, moves = _recover(inst, support, ends, master.first_shift)
    objective = sum(z * inst.weights[c.job] * ends[np.searchsorted(ends, c.completion)] for c, z in support)
    gap_bound = max(objective - best_lb, 0.0)
    eta, xi = np.ldexp(center_mu, -shift), np.ldexp(center_xi, -shift)
    sol = ChainSolution(
        chains=support,
        objective=float(np.ldexp(objective, -shift)),
        eta=eta,
        xi={(int(i), int(ends[b])): float(xi[i, b]) for i, b in zip(*np.nonzero(xi > 0.0))},
        horizon=int(ends[-1]),
        compressed=compressed,
        blocks=ends if compressed else None,
        gap_bound=float(np.ldexp(gap_bound, -shift)),
        stats=dict(
            stats,
            rounds=iterations,
            columns=len(master.columns),
            shift_columns=master.shift_col.size,
            recovery_moves=moves,
        ),
    )
    validate_chain_solution(inst, sol)
    return sol


def _recover(inst: Instance, support: list, ends: np.ndarray, first_shift: np.ndarray) -> tuple[list, int]:
    """Chains that meet every block's capacity, at no higher cost, from
    master chains (``support``, [(chain, z)], each chain in the
    earliest-slots-per-block form) that meet only the prefix capacities from
    each machine's ``first_shift`` block on.  Returns them, equal chains
    merged, and the number of slot moves.

    Machine by machine and over its overloaded blocks t in increasing order:
    the block s before t, from ``first_shift`` on, with the most spare room
    takes one slot of the heaviest chain that uses t and does not fill its
    share of s, for as much of that chain's mass as the overload, the spare
    room and the mass allow.  s lies after every release on the machine and
    no completion moves later.  No spare block or no movable chain means
    the prefix capacities did not hold: ``ChainLpError``.
    """
    K = ends.size
    lengths = np.diff(ends, prepend=0)
    chains = [c for c, _ in support]
    count = np.zeros((len(chains), K), dtype=np.int64)  # slots per (chain, block)
    owner = np.repeat(np.arange(len(chains)), [c.length for c in chains])
    slots = np.fromiter(concat.from_iterable(c.slots for c in chains), np.int64, owner.size)
    np.add.at(count, (owner, np.searchsorted(ends, slots)), 1)
    mass = np.array([z for _, z in support], dtype=float)
    machine = np.array([c.machine for c in chains], dtype=np.int64)
    job = np.array([c.job for c in chains], dtype=np.int64)
    moves = 0
    for i in np.unique(machine).tolist():
        k0 = int(first_shift[i])
        load = mass[machine == i] @ count[machine == i]
        for t in (k0 + np.flatnonzero(load[k0:] - lengths[k0:] > MASS_TOL)).tolist():
            while (over := load[t] - lengths[t]) > MASS_TOL:
                spare = np.append(lengths[k0:t] - load[k0:t], 0.0)  # the last entry stands for t itself
                s = k0 + int(np.argmax(spare))
                movable = (machine == i) & (mass > 0.0) & (count[:, t] > 0) & (count[:, s] < lengths[s])
                if spare[s - k0] <= 0.0 or not movable.any():
                    raise ChainLpError(f"machine {i} block ending at {ends[t]} stays overloaded: {load[t]:.8f}")
                q = int(np.argmax(np.where(movable, mass, 0.0)))
                delta = min(over, spare[s - k0], mass[q])
                moved = count[q].copy()
                moved[t] -= 1
                moved[s] += 1
                count = np.vstack((count, moved))
                mass = np.append(mass, delta)
                mass[q] -= delta
                machine, job = np.append(machine, i), np.append(job, job[q])
                load[t] = lengths[t] if delta == over else load[t] - delta
                load[s] = lengths[s] if delta == spare[s - k0] else load[s] + delta
                moves += 1
    if not moves:
        return support, 0
    # Each chain, moved or not, takes its blocks' earliest slots after its release.
    first = np.maximum(ends - lengths, inst.release_matrix()[job, machine][:, None]) + 1
    merged = {}
    for k in np.flatnonzero(mass > 0.0).tolist():
        blocks = np.flatnonzero(count[k])
        runs = map(range, first[k, blocks].tolist(), (first[k, blocks] + count[k, blocks]).tolist())
        chain = Chain(int(machine[k]), int(job[k]), concat.from_iterable(runs))
        merged[chain] = merged.get(chain, 0.0) + float(mass[k])
    return list(merged.items()), moves


def solve_chain_lp(inst: Instance) -> ChainSolution:
    """The exact chain LP: column generation over unit blocks, one per slot
    up to the instance horizon.

    Beside the list schedule's and the earliest chains (see ``_generate``),
    the first master holds the optimal support of the start-time LP over
    its full range (``solve_interval_lp(inst)``), each entry (i, j, s) as
    the contiguous chain s + 1, ..., s + p_ij.  Those chains alone are a
    feasible master solution at that LP's objective (see the module
    docstring), so column generation opens at or below it.  The seed is
    skipped when the start-time LP is refused for its size (``LpError``):
    the chain master holds only the slots its columns use, and may still
    fit.  The compressed LP takes none; there a seed cost rounds and time.
    ``stats`` counts the seed chains the first master did not already hold
    (``seed_columns``) and the start-time LP's pivots (``seed_pivots``);
    ``pivots`` counts the master solves' only.
    """
    H = instance_horizon(inst)
    try:
        start = solve_interval_lp(inst)
    except LpError:
        return _generate(inst, H)
    sol = _generate(inst, H, seed=(start.machine, start.job, start.start))
    sol.stats["seed_pivots"] = start.stats["pivots"]
    return sol


def solve_chain_lp_compressed(inst: Instance, eps: float) -> ChainSolution:
    """The chain LP over the block-compressed timeline of
    ``build_compressed_timeline``.

    Chain cost charges the right endpoint of the chain's final block, so the
    objective lies within a (1 + eps) factor of the exact chain LP.
    ``gap_bound`` and the returned duals are certified as in the exact mode,
    with the Lagrangian bound sum_j mu_j - sum_{i,k} len_k xi_{i,k}.  Its
    master takes no start-time LP seed (``seed_columns`` and ``seed_pivots``
    are 0): on the chain-cg corpus a seed took more rounds and time.
    """
    ends = build_compressed_timeline(inst, eps).ends
    return _generate(inst, int(ends[-1]), ends)


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
    def lengths(self) -> np.ndarray:
        return np.diff(self.ends, prepend=0)


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
