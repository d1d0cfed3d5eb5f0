"""The start-time indexed LP relaxation for non-preemptive schedules.

One variable y[i, j, s] per admissible (machine, job, start) triple; the
objective charges w_j * (s + p[j, i]) per unit of mass, one equality row
forces each job to be fully assigned, and one cover row per (machine, time)
caps the mass processed at any unit slot at 1.

The full range runs over starts 0..T-1 with T = ``instance.lp_horizon``,
not the instance's ``horizon``: some optimal LP solution over any longer
range completes every job by T (proven in ``lp_horizon``), so the optimum
is the same at a fraction of the rows and variables.  The compressed start
sets extend the same T.

For large horizons the admissible start times can be compressed to a set
that is dense near 0 and geometric afterwards; cover rows are then kept only
at the retained times.  Any solution of the compressed LP still satisfies
the cover constraint at every integer time (no job starts strictly between
two retained times, so the mass at a skipped time equals the mass at the
preceding retained one), and the compressed optimum is at most a (1 + eps)
factor above the full one.  Both properties are re-verified post hoc.

The solve starts from a list schedule.  Jobs go in Smith's-rule order
(w_j / min_i p_ij, largest first), and each takes the admissible start
that finishes it earliest without overlapping the jobs placed before it,
gaps included.  The schedule is made from the instance and the start set
alone, before any LP exists, in one loop over Python ints.  It exists over
the full range and over every compressed start set, as ``list_schedule``
proves: each machine's last finish stays at most r_max + the sum of the
placed jobs' max_i p_ij over the full range, and at most (1 + delta) to
the number of placed jobs times that on a compressed set, which ends by
its horizon.

The LP is built only up to T0, the list schedule's makespan: the starts that
finish by T0 and the cover rows of the times up to it.  The schedule's n
variables are the simplex's start, and with every cover row's slack they
form a basis: each job row holds only its job's chosen column, and the
cover slacks are unit columns, so the basis is nonsingular, and every slack
is 0 or 1, so it is primal feasible.  That vertex is highly degenerate (the
slack of every cover time a job holds is basic at zero), so the simplex
perturbs the right-hand side at its first pivot that does not lower the
objective, as every solve does.

Then every start of the full range (up to T, worked out once per solve, or
the whole compressed start set) is priced against the duals, with a cover
dual of 0 at every time past the LP's horizon.  With lambda = -y >= 0 on the
cover rows and Lambda_i its prefix sum on machine i, the Lagrangian bound

    sum_j min over (i, s) of [w_j (s + p) + Lambda_i(s + p) - Lambda_i(s)] - sum lambda

is a lower bound on the full LP, and a start's reduced cost is its term less
its job row's dual.  If no start prices below the simplex's ``OPT_TOL``, the
duals, with 0 on the rows the LP lacks, are feasible for the full LP and
meet the restricted optimum, so by LP duality that optimum is the full
LP's; ``gap_bound`` is the objective less the bound.  Otherwise the LP is
built again up to the latest finish of a start that prices below, solved
from the list schedule's variables as the first was, and the pricing
repeats.  Such a solve repeats the first one's pivots; few solves grow, and
a fresh build keeps one way to lay out the LP.  Past the horizon a start's
term only grows with s, so each pair is priced up to its first start at or
after the horizon.  Where the optimum is tied, the returned vertex can
differ from the one a solve of the whole LP reaches.

The LP is built as the chain LP's master is, and as ``LinearProgram``
takes it: its rows first, with no entries, and then every variable as one
column.  The simplex holds a dense basis inverse, rows x rows doubles, with
rows = n + machines x cover times.  The builder counts the rows first and
asks ``LinearProgram.reserve`` for them, which raises ``LpError`` when that
inverse would exceed its budget, so an oversized LP (a release far out
makes the list schedule long) is refused before any array of its size is
built.  Then it enumerates every allowed (job, machine) pair and every
admissible start at once, in array operations, and lays down the entries'
rows with one prefix sum.  ``add_columns`` copies them into the LP's
column store, which the simplex's standard form shares, so the LP holds its
entries once, with no per-entry variable index.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .instance import Instance, InstanceError, horizon as instance_horizon, lp_horizon, normalize_weights
from .simplex import OPT_TOL, STATS, LinearProgram, solve_lp

COVER_TOL = 1e-6
ASSIGN_TOL = 1e-6


class IntervalLpError(RuntimeError):
    """Interval LP infeasible or its solution violates a structural check."""


@dataclass(frozen=True)
class StartTimeSet:
    """Admissible integer start times: a dense prefix 0..ceil(1/delta)
    followed by ceil((1+delta)^k / delta) steps up to (1+eps) * T."""

    times: np.ndarray
    epsilon: float
    delta: float
    horizon: int  # extended horizon ceil((1 + eps) * T)


def compress_start_times(inst: Instance, eps: float) -> StartTimeSet:
    if not 0.0 < eps <= 0.5:
        raise InstanceError(f"eps must lie in (0, 1/2], got {eps}")
    n = inst.num_jobs
    delta = eps / (2 * n)
    T = lp_horizon(inst)
    extended = math.ceil((1.0 + eps) * T)
    dense_top = math.ceil(1.0 / delta)
    times = set(range(dense_top + 1))
    k = 0
    while True:
        times.add(math.ceil((1.0 + delta) ** k / delta))
        if (1.0 + delta) ** k / delta >= (1.0 + eps) * T:
            break
        k += 1
    arr = np.array(sorted(t for t in times if t <= extended), dtype=np.int64)
    return StartTimeSet(times=arr, epsilon=eps, delta=delta, horizon=extended)


@dataclass(frozen=True)
class FractionalIntervalSolution:
    """Sparse y triples, derived x mass per (machine, job), objective."""

    machine: np.ndarray  # (k,) machine index per support entry
    job: np.ndarray  # (k,) job index
    start: np.ndarray  # (k,) start time
    value: np.ndarray  # (k,) y mass
    objective: float
    horizon: int
    gap_bound: float = 0.0  # objective less the Lagrangian bound of the LP's duals, over the full range
    stats: dict = field(default_factory=dict)  # the solve's simplex counters, LpSolution.stats

    def x(self, inst: Instance) -> np.ndarray:
        """Assignment marginals x[j, i] = sum_s y[i, j, s]."""
        n, M = inst.num_jobs, inst.num_machines
        x = np.bincount(self.job * M + self.machine, weights=self.value, minlength=n * M)
        return x.astype(float).reshape(n, M)  # a bincount of nothing is integer

    def job_lp_cost(self, inst: Instance) -> np.ndarray:
        """Per-job unweighted LP contribution sum_{i,s} y * (s + p)."""
        p = inst.sizes[self.job, self.machine]
        cost = np.bincount(self.job, weights=self.value * (self.start + p), minlength=inst.num_jobs)
        return cost.astype(float)  # a bincount of nothing is integer


def validate_fractional(
    inst: Instance, sol: FractionalIntervalSolution, check_cover: bool = True
) -> None:
    """Check assignment mass, support bounds, and (unless disabled) the
    per-integer-time cover constraint on every machine; raises
    IntervalLpError on violation."""
    H = sol.horizon
    rel = inst.release_matrix()
    p = inst.sizes[sol.job, sol.machine]
    if (p <= 0).any():
        raise IntervalLpError("support entry on a forbidden machine")
    if (sol.value < -1e-12).any():
        raise IntervalLpError("negative y mass")
    if (sol.start < rel[sol.job, sol.machine]).any():
        raise IntervalLpError("support entry starts before release")
    if (sol.start + p > H).any():
        raise IntervalLpError("support entry runs past the horizon")
    mass = np.bincount(sol.job, weights=sol.value, minlength=inst.num_jobs)
    err = np.abs(mass - 1.0).max(initial=0.0)
    if err > ASSIGN_TOL:
        raise IntervalLpError(f"job assignment mass off by {err:.3e}")
    if not check_cover:
        return
    # Cover at every integer t: the load of machine i at t sums the mass with
    # start < t <= start + p, so it changes only at the event times start + 1
    # and start + p + 1; a difference array per machine over them gives it.
    events, at = np.unique(np.concatenate((sol.start + 1, sol.start + p + 1)), return_inverse=True)
    M, cells = inst.num_machines, np.tile(sol.machine, 2) * events.size + at
    diff = np.bincount(cells, weights=np.concatenate((sol.value, -sol.value)), minlength=M * events.size)
    load = np.cumsum(diff.reshape(M, events.size), axis=1)
    worst = load.max(initial=0.0)
    if worst > 1.0 + COVER_TOL:
        i, c = np.unravel_index(np.argmax(load), load.shape)
        raise IntervalLpError(f"machine {i} overloaded at t={int(events[c])}: {worst:.8f}")


def solution_from_triples(inst: Instance, triples, horizon: int | None = None) -> FractionalIntervalSolution:
    """Build and validate a solution from (machine, job, start, y) tuples."""
    arr = np.asarray([(m, j, s, v) for m, j, s, v in triples], dtype=float)
    machine = arr[:, 0].astype(np.int64)
    job = arr[:, 1].astype(np.int64)
    start = arr[:, 2].astype(np.int64)
    value = arr[:, 3]
    H = instance_horizon(inst) if horizon is None else int(horizon)
    p = inst.sizes[job, machine]
    objective = float(np.sum(inst.weights[job] * value * (start + p)))
    sol = FractionalIntervalSolution(
        machine=machine, job=job, start=start, value=value, objective=objective, horizon=H
    )
    validate_fractional(inst, sol)
    return sol


@dataclass(frozen=True)
class IntervalLpModel:
    lp: LinearProgram
    machine: np.ndarray
    job: np.ndarray
    start: np.ndarray
    horizon: int  # every variable finishes by it
    cover_times: np.ndarray  # times t with a cover row, increasing


def build_interval_lp(
    inst: Instance, starts: StartTimeSet | None = None, horizon: int | None = None
) -> IntervalLpModel:
    """Assemble the LP over a start set: the compressed one given, or by
    default the full range, starts 0..T-1 with T = ``lp_horizon``.  With
    ``horizon`` the LP holds only the starts that finish by it, and the
    cover rows of the times up to it.

    Variables exist only for starts in the set and cover rows only for times
    t with t - 1 in the set.  The n job rows come first, then the cover
    rows, by machine and then time: machine i's c-th cover time is row n +
    i C + c, with C cover times.  They are added empty, so that
    ``LinearProgram`` refuses an oversized LP (``LpError``) before any
    variable exists.  Then each variable is one column, in its job row and
    the cover rows it spans; variables run by job, then machine, then start.
    """
    n, M = inst.num_jobs, inst.num_machines
    if horizon is None:
        horizon = lp_horizon(inst) if starts is None else starts.horizon
    # A cover row at t + 1 for each start t in the set before the horizon.
    C = horizon if starts is None else int(np.searchsorted(starts.times, horizon))
    lp = LinearProgram()
    lp.reserve(n + M * C)  # before any array of the LP's size exists
    senses = ["=="] * n + ["<="] * (M * C)
    lp.add_rows(senses, np.ones(len(senses)))
    cover_times = (np.arange(horizon) if starts is None else starts.times[:C]) + 1

    jobs, machines, p, release = _pairs(inst)
    machine, job, start = _admissible(starts, jobs, machines, release, horizon - p)
    missing = np.flatnonzero(np.bincount(job, minlength=n) == 0)
    if missing.size:
        raise IntervalLpError(f"job {int(missing[0])} has no admissible start time")
    p = inst.sizes[job, machine]

    # Variable k on machine i covers t iff start < t <= start + p: a run of
    # span[k] cover times from lo[k] on, found by binary search.  Its column
    # lists its job row, then those cover rows in increasing order.  Every
    # variable covers start + 1, so span >= 1, and the rows of all columns
    # are one prefix sum of their steps: 1 inside a run.
    lo = np.searchsorted(cover_times, start, side="right")
    span = np.searchsorted(cover_times, start + p, side="right") - lo
    ptr = np.concatenate(([0], np.cumsum(1 + span)))
    first = n + machine * C + lo  # each column's first cover row
    rows = np.ones(ptr[-1], dtype=np.int64)
    rows[ptr[:-1]] = job - np.concatenate(([0], first[:-1] + span[:-1] - 1))
    rows[ptr[:-1] + 1] = first - job
    np.cumsum(rows, out=rows)
    lp.add_columns(ptr, rows, np.ones(rows.size), inst.weights[job] * (start + p))
    return IntervalLpModel(lp, machine, job, start, horizon, cover_times)


def _pairs(inst: Instance):
    """The allowed (job, machine) pairs, by job, then machine: their jobs,
    machines, sizes and releases."""
    jobs, machines = inst.allowed_mask().nonzero()
    return jobs, machines, inst.sizes[jobs, machines], inst.release_matrix()[jobs, machines]


def _admissible(starts: StartTimeSet | None, jobs, machines, first, last):
    """(machine, job, start) of every start of pair (jobs[k], machines[k])
    from first[k] to last[k], inclusive: every integer, or the start set's
    times.  They run in the pairs' order, then by start."""
    if starts is None:
        a, count = first, np.maximum(last - first + 1, 0)
    else:
        a = np.searchsorted(starts.times, first, side="left")
        count = np.maximum(np.searchsorted(starts.times, last, side="right") - a, 0)
    at = np.arange(count.sum()) - (np.cumsum(count) - count - a).repeat(count)
    return machines.repeat(count), jobs.repeat(count), at if starts is None else starts.times[at]


def list_schedule(inst: Instance, starts: StartTimeSet | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """A non-preemptive schedule over a start set (by default the full
    range): (machine, start) per job, or None when some job has no free
    admissible start by the set's horizon, which an arbitrary start set
    can make happen.

    Jobs go in Smith's-rule order, by w_j / min_i p_ij, largest first and
    ties by index.  Each takes, over its allowed machines, the admissible
    start that finishes it earliest without overlapping a job placed before
    it, by the horizon of a compressed start set; ties go to the lower
    machine.

    That placement never fails over the full range or a set of
    ``compress_start_times(inst, eps)``.  Let S_k be r_max + the sum of
    max_i p_ij over the first k jobs placed and F_k their latest finish.
    The next job can start on any allowed machine i at the first
    admissible time at or after t = max(i's last finish, r_ij) <=
    max(F_k, r_max).  Over the full range that is t, no horizon is read,
    and F_k <= S_k <= ``lp_horizon`` by induction.  A compressed set, with
    delta = eps / (2n) and T = ``lp_horizon``, holds every integer up to
    ceil(1/delta) and ceil((1 + delta)^k / delta) for each k until
    (1 + delta)^k / delta reaches (1 + eps) T, up to its horizon
    ceil((1 + eps) T).  Past ceil(1/delta), t rounds up to such a time:
    for the least k with (1 + delta)^k / delta > t - 1, k >= 1 and
    (1 + delta)^(k-1) / delta <= t - 1, so the time is below
    (1 + delta)^k / delta + 1 <= (1 + delta)(t - 1) + 1 < (1 + delta) t.
    By induction F_k <= (1 + delta)^k S_k, and the times rounded to are in
    the set: (1 + delta)^n <= e^(eps/2) <= 1 + eps for eps <= 1/2, and
    S_n <= T (every allowed pair's size counts in ``horizon``), so
    F_n <= (1 + eps) T.  The argument is in exact arithmetic; a property
    test checks it on the set's floating-point times.

    The schedule is one loop over Python ints.  Each machine's free gaps
    [lo, hi) are kept in time order, one open gap at first; placing a job
    splits its gap in two, and empty gaps are dropped.  In a gap the
    earliest admissible start finishes the job earliest, so each machine's
    first gap that fits gives its earliest finish, and a machine's scan
    stops at a gap that cannot finish before the best finish so far.
    """
    n, M = inst.num_jobs, inst.num_machines
    allowed, sizes, release = inst.allowed_mask(), inst.sizes, inst.release_matrix()
    smallest = np.where(allowed, sizes, np.iinfo(np.int64).max).min(axis=1)
    order = np.argsort(-(inst.weights / smallest), kind="stable").tolist()
    allowed, sizes, release = allowed.tolist(), sizes.tolist(), release.tolist()
    times = None if starts is None else starts.times.tolist()
    gaps = [[(0, math.inf if starts is None else starts.horizon)] for _ in range(M)]
    machine, start = [0] * n, [0] * n
    for j in order:
        best = math.inf
        for i, ok, p, r in zip(range(M), allowed[j], sizes[j], release[j]):
            if not ok:
                continue
            for g, (lo, hi) in enumerate(gaps[i]):
                s = max(lo, r)
                if s + p >= best:  # so does every later gap's; ties go to the lower machine
                    break
                if times is not None:
                    at = bisect_left(times, s)
                    if at == len(times):
                        break
                    s = times[at]
                if s + p <= hi:
                    if s + p < best:
                        best, placed = s + p, (i, g, s)
                    break
        if best == math.inf:
            return None
        i, g, s = placed
        lo, hi = gaps[i][g]
        gaps[i][g : g + 1] = [gap for gap in ((lo, s), (best, hi)) if gap[0] < gap[1]]
        machine[j], start[j] = i, s
    return np.array(machine, dtype=np.int64), np.array(start, dtype=np.int64)


def _variables_at(model: IntervalLpModel, starts: StartTimeSet | None, machine, start) -> np.ndarray:
    """Job j's variable at (machine[j], start[j]), per job, in a model as
    built (by job, then machine, then start): the first of its pair's, plus
    the starts in the set between that one's and start[j].  Keys job M +
    machine run in that order for any M above every machine index."""
    M = int(model.machine.max()) + 1
    first = np.searchsorted(model.job * M + model.machine, np.arange(machine.size) * M + machine)
    rank = (lambda t: t) if starts is None else (lambda t: np.searchsorted(starts.times, t))
    return first + rank(start) - rank(model.start[first])


def _price(inst: Instance, starts: StartTimeSet | None, model: IntervalLpModel, duals: np.ndarray, horizon: int):
    """The Lagrangian bound of the model's cover duals over the full range,
    whose starts finish by ``horizon`` (see the module docstring), and the
    latest finish of a start outside the model whose reduced cost is below
    -``OPT_TOL``, or the model's horizon if none's is.  The cover duals are
    read in the builder's row layout, by machine and then time.  Past the
    model's horizon a start's term only grows with s, so each pair is priced
    up to its first start at or after it."""
    n, T, H = inst.num_jobs, model.horizon, horizon
    lam = np.maximum(-duals[n:].reshape(inst.num_machines, model.cover_times.size), 0.0)
    Lam = np.zeros((lam.shape[0], lam.shape[1] + 1))
    np.cumsum(lam, axis=1, out=Lam[:, 1:])
    jobs, machines, p, release = _pairs(inst)
    past = np.maximum(release, T)  # the first admissible start at or after the horizon
    if starts is not None:
        at = np.searchsorted(starts.times, past)
        past = np.where(at < starts.times.size, starts.times[np.minimum(at, starts.times.size - 1)], H)
    machine, job, start = _admissible(starts, jobs, machines, release, np.minimum(past, H - p))
    finish = start + inst.sizes[job, machine]
    hi = np.searchsorted(model.cover_times, finish, side="right")
    lo = np.searchsorted(model.cover_times, start, side="right")
    term = inst.weights[job] * finish + (Lam[machine, hi] - Lam[machine, lo])
    outside = (finish > T) & (term - duals[job] < -OPT_TOL)
    bound = float(np.minimum.reduceat(term, np.searchsorted(job, np.arange(n))).sum() - lam.sum())
    return bound, int(finish[outside].max(initial=T))


def solve_interval_lp(inst: Instance, eps: float | None = None) -> FractionalIntervalSolution:
    """Solve the relaxation; eps=None solves over the full time range,
    otherwise over the compressed start set for that eps.

    The LP is built up to the makespan of ``list_schedule`` and solved from
    that schedule's variables; while a start of the full range outside it
    prices below -``OPT_TOL`` (``_price``), the LP is built again up to the
    latest finish of such a start and solved from the schedule's variables
    once more (see the module docstring).  ``gap_bound`` is the objective
    less the final duals' Lagrangian bound over the full range, whose
    horizon (``lp_horizon``, or the compressed start set's) is worked out
    once.

    The returned solution is validated against the full per-integer-time
    cover check regardless of mode.  The LP is solved on the weights of
    ``normalize_weights`` and its objective scaled back; ``stats`` sums the
    simplex counters of its solves.
    """
    starts = None if eps is None else compress_start_times(inst, eps)
    H = lp_horizon(inst) if starts is None else starts.horizon
    scaled, shift = normalize_weights(inst)
    machine, start = list_schedule(scaled, starts)  # exists on these start sets, see its docstring
    reach = int((start + inst.sizes[np.arange(inst.num_jobs), machine]).max())
    stats = dict.fromkeys(STATS, 0)
    while True:
        model = build_interval_lp(scaled, starts, reach)
        res = solve_lp(model.lp, _variables_at(model, starts, machine, start))
        if res.status != "optimal":
            raise IntervalLpError(f"interval LP is {res.status}")
        for key, count in res.stats.items():
            stats[key] += count
        bound, reach = _price(scaled, starts, model, res.duals, H)
        if reach == model.horizon:
            break
    keep = res.x > 1e-11
    sol = FractionalIntervalSolution(
        machine=model.machine[keep],
        job=model.job[keep],
        start=model.start[keep],
        value=res.x[keep],
        objective=float(np.ldexp(res.objective, -shift)),
        horizon=H,
        gap_bound=float(np.ldexp(max(res.objective - bound, 0.0), -shift)),
        stats=stats,
    )
    validate_fractional(inst, sol)
    return sol
