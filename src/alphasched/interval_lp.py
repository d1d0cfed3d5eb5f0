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

The solve starts from a list schedule instead of the simplex's two-phase
cold start.  Jobs go in Smith's-rule order (w_j / min_i p_ij, largest
first), and each takes the variable that finishes it earliest without
overlapping the jobs placed before it, gaps included.  Its n variables and
every cover row's slack form a basis: each job row holds only its job's
chosen column, and the cover slacks are unit columns, so the basis is
nonsingular, and every slack is 0 or 1, so it is primal feasible.  The
simplex takes it as a warm start and skips phase 1.  That vertex is highly
degenerate (the slack of every cover time a job holds is basic at zero), so
the simplex perturbs the right-hand side at its first pivot that does not
lower the objective, as it does for any given basis.  Over the full range a
job can always be placed after every placed one; on a compressed start set
placement can fail, and the solve then starts cold.  The optimum is the same
either way, but where it is tied the returned vertex can differ from the one
a cold start reaches.

The LP is built as the chain LP's master is, and as ``LinearProgram``
takes it: its rows first, with no entries, and then every variable as one
column.  The simplex holds a dense basis inverse, rows x rows doubles, with
rows = n + machines x cover times.  The builder counts the rows first and
asks ``LinearProgram.reserve`` for them, which raises ``LpError`` when that
inverse would exceed its budget, so an oversized LP (a release far out
makes the full range long) is refused before any array of its size is
built.  Then it enumerates every allowed (job, machine) pair and every
admissible start at once, in array operations, and lays down the entries'
rows with one prefix sum.  It makes those arrays read-only and hands them
over: they are the LP's column store and the simplex's, uncopied, so a
large LP's entries exist once, with no per-entry variable index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .instance import Instance, InstanceError, horizon as instance_horizon, lp_horizon, normalize_weights
from .simplex import Basis, LinearProgram, solve_lp

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


@dataclass
class IntervalLpModel:
    lp: LinearProgram
    machine: np.ndarray
    job: np.ndarray
    start: np.ndarray
    horizon: int
    cover_times: np.ndarray  # times t with a cover row


def build_interval_lp(inst: Instance, starts: StartTimeSet | None = None) -> IntervalLpModel:
    """Assemble the LP over a start set: the compressed one given, or by
    default the full range, starts 0..T-1 with horizon T = ``lp_horizon``.

    Variables exist only for starts in the set and cover rows only for times
    t with t - 1 in the set.  The job rows and cover rows are added first,
    empty, so that ``LinearProgram`` refuses an oversized LP (``LpError``)
    before any variable exists.  Then each variable is one column, in its
    job row and the cover rows it spans; variables run by job, then machine,
    then start.
    """
    n = inst.num_jobs
    if starts is None:
        H = C = lp_horizon(inst)
    else:
        H, C = starts.horizon, np.count_nonzero(starts.times + 1 <= starts.horizon)
    covers = inst.num_machines * C
    lp = LinearProgram()
    lp.reserve(n + covers)  # before any array of the LP's size exists
    times = np.arange(H, dtype=np.int64) if starts is None else starts.times
    cover_times = times[times + 1 <= H] + 1
    lp.add_rows(["=="] * n + ["<="] * covers, np.ones(n + covers))

    # Pair (j, i), in job then machine order, may start at the count times
    # from times[a] on: from its release up to H - p.
    jobs, machines = inst.allowed_mask().nonzero()
    p = inst.sizes[jobs, machines]
    a = np.searchsorted(times, inst.release_matrix()[jobs, machines], side="left")
    count = np.maximum(np.searchsorted(times, H - p, side="right") - a, 0)
    missing = np.flatnonzero(np.bincount(jobs, weights=count, minlength=n) == 0)
    if missing.size:
        raise IntervalLpError(f"job {int(missing[0])} has no admissible start time")
    machine, job, p = machines.repeat(count), jobs.repeat(count), p.repeat(count)
    start = times[np.arange(job.size) - (np.cumsum(count) - count - a).repeat(count)]

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
    values = np.ones(rows.size)
    rows.flags.writeable = values.flags.writeable = False  # so the LP keeps them uncopied
    lp.add_columns(ptr, rows, values, inst.weights[job] * (start + p))
    return IntervalLpModel(lp=lp, machine=machine, job=job, start=start, horizon=H, cover_times=cover_times)


def list_schedule(inst: Instance, model: IntervalLpModel) -> np.ndarray | None:
    """A non-preemptive schedule made of the model's variables: the chosen
    variable per job, or None when some job has no free admissible start
    (possible on a compressed start set only).

    Jobs go in Smith's-rule order, by w_j / min_i p_ij, largest first and
    ties by index.  Each takes, over its allowed machines, the admissible
    start that finishes it earliest without overlapping a job placed before
    it; ties go to the lower machine.
    """
    M, C = inst.num_machines, model.cover_times.size
    smallest = np.where(inst.allowed_mask(), inst.sizes, np.iinfo(np.int64).max).min(axis=1)
    order = np.argsort(-(inst.weights / smallest), kind="stable")
    # Job j's variables are model.*[bounds[j]:bounds[j + 1]], by machine,
    # then start: the first of the earliest finishes is the choice.
    bounds = np.searchsorted(model.job, np.arange(inst.num_jobs + 1))
    # Variable k holds the cover times in (start, start + p], indices
    # lo[k]..hi[k]-1.  Every variable holds the cover time start + 1, so two
    # variables on one machine overlap iff they share a cover time.
    finish = model.start + inst.sizes[model.job, model.machine]
    lo = np.searchsorted(model.cover_times, model.start, side="right")
    hi = np.searchsorted(model.cover_times, finish, side="right")
    # held[i, c]: how many of machine i's cover times below c are held.
    held = np.zeros((M, C + 1), dtype=np.int64)
    chosen = np.empty(inst.num_jobs, dtype=np.int64)
    for j in order:
        a, b = bounds[j], bounds[j + 1]
        machine = model.machine[a:b]
        free = np.flatnonzero(held[machine, hi[a:b]] == held[machine, lo[a:b]])
        if not free.size:
            return None
        best = a + free[np.argmin(finish[a:b][free])]
        i, c0, c1 = model.machine[best], lo[best], hi[best]
        held[i, c0 + 1 : c1 + 1] += np.arange(1, c1 - c0 + 1)
        held[i, c1 + 1 :] += c1 - c0
        chosen[j] = best
    return chosen


def solve_interval_lp(inst: Instance, eps: float | None = None) -> FractionalIntervalSolution:
    """Solve the relaxation; eps=None solves over the full time range,
    otherwise over the compressed start set for that eps.  The simplex
    starts from the basis of ``list_schedule``, or cold when it finds none.

    The returned solution is validated against the full per-integer-time
    cover check regardless of mode.  The LP is solved on the weights of
    ``normalize_weights`` and its objective scaled back.
    """
    starts = None if eps is None else compress_start_times(inst, eps)
    scaled, shift = normalize_weights(inst)
    model = build_interval_lp(scaled, starts)
    chosen = list_schedule(scaled, model)
    hint = None
    if chosen is not None:
        hint = Basis(columns=chosen, slack_rows=np.arange(inst.num_jobs, model.lp.num_rows))
    res = solve_lp(model.lp, hint)
    if res.status != "optimal":
        raise IntervalLpError(f"interval LP is {res.status}")
    keep = res.x > 1e-11
    sol = FractionalIntervalSolution(
        machine=model.machine[keep],
        job=model.job[keep],
        start=model.start[keep],
        value=res.x[keep],
        objective=float(np.ldexp(res.objective, -shift)),
        horizon=model.horizon,
        stats=res.stats,
    )
    validate_fractional(inst, sol)
    return sol
