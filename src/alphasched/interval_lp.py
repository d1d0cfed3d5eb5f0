"""The start-time indexed LP relaxation for non-preemptive schedules.

One variable y[i, j, s] per admissible (machine, job, start) triple; the
objective charges w_j * (s + p[j, i]) per unit of mass, one equality row
forces each job to be fully assigned, and one cover row per (machine, time)
caps the mass processed at any unit slot at 1.

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
simplex takes it as a warm start and skips phase 1.  Over the full range a
job can always be placed after every placed one; on a compressed start set
placement can fail, and the solve then starts cold.  The optimum is the same
either way, but where it is tied the returned vertex can differ from the one
a cold start reaches.

The simplex holds a dense basis inverse, rows x rows doubles, with rows =
n + machines x cover times.  ``build_interval_lp`` counts the rows before it
allocates anything and raises ``IntervalLpError`` when that inverse would
exceed ``MAX_BASIS_INVERSE_BYTES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import Instance, InstanceError, horizon as instance_horizon, normalize_weights
from .simplex import MAX_BASIS_INVERSE_BYTES, Basis, LinearProgram, solve_lp

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
    T = instance_horizon(inst)
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

    def x(self, inst: Instance) -> np.ndarray:
        """Assignment marginals x[j, i] = sum_s y[i, j, s]."""
        out = np.zeros((inst.num_jobs, inst.num_machines))
        np.add.at(out, (self.job, self.machine), self.value)
        return out

    def job_lp_cost(self, inst: Instance) -> np.ndarray:
        """Per-job unweighted LP contribution sum_{i,s} y * (s + p)."""
        p = inst.sizes[self.job, self.machine]
        out = np.zeros(inst.num_jobs)
        np.add.at(out, self.job, self.value * (self.start + p))
        return out

    def support_by_job(self, inst: Instance):
        """Per-job (machines, starts, probs) arrays for categorical sampling."""
        out = []
        for j in range(inst.num_jobs):
            mask = self.job == j
            out.append((self.machine[mask], self.start[mask], self.value[mask]))
        return out

    def to_csv(self) -> str:
        lines = ["machine,job,start,y"]
        order = np.lexsort((self.start, self.job, self.machine))
        for k in order:
            lines.append(
                f"{int(self.machine[k])},{int(self.job[k])},{int(self.start[k])},{self.value[k]:.12g}"
            )
        return "\n".join(lines) + "\n"


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
    mass = np.zeros(inst.num_jobs)
    np.add.at(mass, sol.job, sol.value)
    err = np.abs(mass - 1.0).max(initial=0.0)
    if err > ASSIGN_TOL:
        raise IntervalLpError(f"job assignment mass off by {err:.3e}")
    if not check_cover:
        return
    # Cover at every integer t: difference array per machine.
    for i in range(inst.num_machines):
        mask = sol.machine == i
        if not mask.any():
            continue
        diff = np.zeros(H + 2)
        np.add.at(diff, sol.start[mask] + 1, sol.value[mask])
        np.add.at(diff, sol.start[mask] + p[mask] + 1, -sol.value[mask])
        load = np.cumsum(diff)[1 : H + 1]
        worst = load.max(initial=0.0)
        if worst > 1.0 + COVER_TOL:
            t = int(np.argmax(load)) + 1
            raise IntervalLpError(f"machine {i} overloaded at t={t}: {worst:.8f}")


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
    """Assemble the LP over the full integer range or a compressed start set.

    With a compressed set, variables exist only for s in the set and cover
    rows only for times t with t - 1 in the set.  Variables run by job, then
    machine, then start.  Raises IntervalLpError, before allocating, when
    the LP's basis inverse would exceed ``MAX_BASIS_INVERSE_BYTES``.
    """
    T = instance_horizon(inst)
    if starts is None:
        H = T
        num_covers = H
    else:
        H = starts.horizon
        num_covers = int(np.count_nonzero(starts.times + 1 <= H))
    rows = inst.num_jobs + inst.num_machines * num_covers
    if 8 * rows * rows > MAX_BASIS_INVERSE_BYTES:
        raise IntervalLpError(
            f"interval LP too large: {rows} rows need a {8 * rows * rows / 2**20:.0f} MiB basis "
            f"inverse, over the {MAX_BASIS_INVERSE_BYTES / 2**20:.0f} MiB limit"
        )
    if starts is None:
        start_list = np.arange(0, T, dtype=np.int64)
        cover_times = np.arange(1, H + 1, dtype=np.int64)
    else:
        start_list = starts.times
        cover_times = start_list[start_list + 1 <= H] + 1

    rel = inst.release_matrix()
    machines, jobs, begins = [], [], []
    for j in range(inst.num_jobs):
        for i in range(inst.num_machines):
            if not inst.allowed(j, i):
                continue
            p = inst.size(j, i)
            lo = np.searchsorted(start_list, rel[j, i], side="left")
            hi = np.searchsorted(start_list, H - p, side="right")
            ss = start_list[lo:hi]
            machines.append(np.full(ss.size, i, dtype=np.int64))
            jobs.append(np.full(ss.size, j, dtype=np.int64))
            begins.append(ss)
    machine = np.concatenate(machines) if machines else np.zeros(0, dtype=np.int64)
    job = np.concatenate(jobs)
    start = np.concatenate(begins)

    counts = np.zeros(inst.num_jobs, dtype=np.int64)
    np.add.at(counts, job, 1)
    if (counts == 0).any():
        j = int(np.flatnonzero(counts == 0)[0])
        raise IntervalLpError(f"job {j} has no admissible start time")

    p = inst.sizes[job, machine]
    lp = LinearProgram(num_vars=job.size)
    lp.set_objective(inst.weights[job] * (start + p))
    lp.add_rows(
        np.concatenate(([0], np.cumsum(counts))), np.argsort(job, kind="stable"),
        np.ones(job.size), ["=="] * inst.num_jobs, np.ones(inst.num_jobs),
    )
    # Cover rows, one per (machine, retained time): variable k on machine i
    # covers t iff start < t <= start + p, a run of retained times found by
    # binary search.  Members are listed per row in increasing k.
    lo = np.searchsorted(cover_times, start, side="right")
    hi = np.searchsorted(cover_times, start + p, side="right")
    span = hi - lo
    member = np.repeat(np.arange(job.size), span)
    offset = np.arange(member.size) - np.repeat(np.cumsum(span) - span, span)
    row = machine[member] * cover_times.size + lo[member] + offset
    order = np.argsort(row, kind="stable")
    member = member[order]
    bounds = np.cumsum(np.bincount(row, minlength=inst.num_machines * cover_times.size))
    lp.add_rows(
        np.concatenate(([0], bounds)), member, np.ones(member.size), ["<="] * bounds.size, np.ones(bounds.size)
    )
    return IntervalLpModel(
        lp=lp, machine=machine, job=job, start=start, horizon=H, cover_times=cover_times
    )


def list_schedule(inst: Instance, model: IntervalLpModel) -> np.ndarray | None:
    """A non-preemptive schedule made of the model's variables: the chosen
    variable per job, or None when some job has no free admissible start
    (possible on a compressed start set only).

    Jobs go in Smith's-rule order, by w_j / min_i p_ij, largest first and
    ties by index.  Each takes, over its allowed machines, the admissible
    start that finishes it earliest without overlapping a job placed before
    it; ties go to the lower machine.
    """
    M = inst.num_machines
    smallest = np.where(inst.allowed_mask(), inst.sizes, np.iinfo(np.int64).max).min(axis=1)
    order = np.argsort(-(inst.weights / smallest), kind="stable")
    # Block (j, i) of the variables is model.*[bounds[j*M + i]:bounds[j*M + i + 1]].
    bounds = np.searchsorted(model.job * M + model.machine, np.arange(inst.num_jobs * M + 1))
    # Busy windows per machine, sorted and disjoint; the last one is a
    # sentinel that starts after every admissible finish.
    busy_start = [np.array([model.horizon + 1]) for _ in range(M)]
    busy_end = [np.array([model.horizon + 1]) for _ in range(M)]
    chosen = np.empty(inst.num_jobs, dtype=np.int64)
    for j in order:
        best_finish, best = np.inf, -1
        for i in range(M):
            lo, hi = bounds[j * M + i], bounds[j * M + i + 1]
            if lo == hi:
                continue
            s = model.start[lo:hi]
            p = int(inst.sizes[j, i])
            # Start s is free iff the first window ending after s begins at
            # or after s + p.
            free = np.flatnonzero(busy_start[i][np.searchsorted(busy_end[i], s, side="right")] >= s + p)
            if free.size and s[free[0]] + p < best_finish:
                best_finish, best = s[free[0]] + p, lo + free[0]
        if best < 0:
            return None
        i, s = int(model.machine[best]), int(model.start[best])
        at = np.searchsorted(busy_start[i], s)
        busy_start[i] = np.insert(busy_start[i], at, s)
        busy_end[i] = np.insert(busy_end[i], at, best_finish)
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
    )
    validate_fractional(inst, sol)
    return sol
