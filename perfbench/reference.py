"""Reference computations and checks made apart from the library.

Everything here reads the instance straight from its JSON document and uses
numpy and scipy only.  The one exception is ``check_*`` functions, which take
the library's result objects and read their public fields.  Each check
returns a list of violation messages; an empty list means the check passed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

LP_REL_TOL = 1e-6  # program LP objective vs the HiGHS reference
FEAS_TOL = 1e-6  # mass, cover, occupancy
ORDER_REL_TOL = 2e-6  # one relaxation value below another
KS_LEVEL_C = 1.6276  # sqrt(-ln(0.005) / 2): asymptotic 99% Kolmogorov-Smirnov constant


@dataclass(frozen=True)
class InstanceData:
    """An instance as its file states it; size 0 marks a forbidden pair."""

    sizes: np.ndarray  # (n, m) int
    release: np.ndarray  # (n, m) int
    weight: np.ndarray  # (n,)

    @property
    def n(self) -> int:
        return self.sizes.shape[0]

    @property
    def m(self) -> int:
        return self.sizes.shape[1]

    @property
    def allowed(self) -> np.ndarray:
        return self.sizes > 0

    @property
    def horizon(self) -> int:
        """Sum of allowed sizes plus the largest release: every job fits."""
        return int(self.sizes[self.allowed].sum() + self.release[self.allowed].max(initial=0))


def read_instance_doc(doc: dict) -> InstanceData:
    m = int(doc["machines"])
    sizes, release, weight = [], [], []
    for job in doc["jobs"]:
        sizes.append([0 if p is None else int(p) for p in job["sizes"]])
        r = job["release"]
        release.append([int(x) for x in r] if isinstance(r, list) else [int(r)] * m)
        weight.append(float(job["weight"]))
    return InstanceData(
        sizes=np.array(sizes, dtype=np.int64),
        release=np.array(release, dtype=np.int64),
        weight=np.array(weight),
    )


def read_instance(path: str | Path) -> InstanceData:
    return read_instance_doc(json.loads(Path(path).read_text(encoding="utf-8")))


def check_loaded(data: InstanceData, inst) -> list[str]:
    """The library's parsed instance carries the file's numbers."""
    sizes = np.where(data.allowed, data.sizes, -1)
    if inst.sizes.shape != sizes.shape or (inst.sizes != sizes).any():
        return ["loaded sizes differ from the file"]
    if (inst.release_matrix() != data.release).any():
        return ["loaded releases differ from the file"]
    if (inst.weights != data.weight).any():
        return ["loaded weights differ from the file"]
    return []


# -- start-time LP ----------------------------------------------------------


@dataclass(frozen=True)
class IntervalLp:
    cost: np.ndarray
    A_eq: sparse.csr_matrix  # one row per job: total mass 1
    A_ub: sparse.csr_matrix  # one row per (machine, t in 1..H): cover <= 1


def build_interval_lp(data: InstanceData) -> IntervalLp:
    """y[i, j, s] for every allowed pair and start s in [r_ij, H - p_ij];
    the job runs during (s, s + p] and pays w_j * (s + p)."""
    H = data.horizon
    jobs, machines, starts = [], [], []
    for j in range(data.n):
        for i in range(data.m):
            if data.allowed[j, i]:
                s = np.arange(data.release[j, i], H - data.sizes[j, i] + 1)
                jobs.append(np.full(s.size, j))
                machines.append(np.full(s.size, i))
                starts.append(s)
    job = np.concatenate(jobs)
    machine = np.concatenate(machines)
    start = np.concatenate(starts)
    p = data.sizes[job, machine]
    k = job.size
    A_eq = sparse.csr_matrix((np.ones(k), (job, np.arange(k))), shape=(data.n, k))
    # Variable v covers the slots ending at start+1 .. start+p on its machine.
    cols = np.repeat(np.arange(k), p)
    offsets = np.arange(cols.size) - np.repeat(np.cumsum(p) - p, p)
    rows = machine[cols] * H + start[cols] + offsets
    A_ub = sparse.csr_matrix((np.ones(cols.size), (rows, cols)), shape=(data.m * H, k))
    return IntervalLp(cost=data.weight[job] * (start + p), A_eq=A_eq, A_ub=A_ub)


def solve_reference_lp(data: InstanceData) -> float:
    lp = build_interval_lp(data)
    res = linprog(
        lp.cost,
        A_ub=lp.A_ub,
        b_ub=np.ones(lp.A_ub.shape[0]),
        A_eq=lp.A_eq,
        b_eq=np.ones(lp.A_eq.shape[0]),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def check_agree(value: float, reference: float, what: str, rel: float = LP_REL_TOL) -> list[str]:
    if abs(value - reference) > rel * max(1.0, abs(reference)):
        return [f"{what} {value:.10g} differs from reference {reference:.10g}"]
    return []


def check_at_most(low: float, high: float, what: str, rel: float = ORDER_REL_TOL) -> list[str]:
    """``low <= high`` up to a relative tolerance."""
    if low > high + rel * max(1.0, abs(high)):
        return [f"{what}: {low:.10g} > {high:.10g}"]
    return []


def check_fractional(data: InstanceData, sol) -> list[str]:
    """Mass 1 per job, cover <= 1 at every integer t, starts at or after
    release, allowed machines only, non-negative mass, objective matches."""
    machine, job, start, value = sol.machine, sol.job, sol.start, sol.value
    out = []
    if not data.allowed[job, machine].all():
        return ["support on a forbidden (job, machine) pair"]
    if (value < -1e-9).any():
        out.append("negative y mass")
    if (start < data.release[job, machine]).any():
        out.append("support starts before release")
    mass = np.bincount(job, weights=value, minlength=data.n)
    if np.abs(mass - 1.0).max() > FEAS_TOL:
        out.append(f"job mass off by {np.abs(mass - 1.0).max():.3e}")
    p = data.sizes[job, machine]
    end = int((start + p).max())
    for i in range(data.m):
        on = machine == i
        diff = np.zeros(end + 2)
        np.add.at(diff, start[on] + 1, value[on])
        np.add.at(diff, start[on] + p[on] + 1, -value[on])
        load = np.cumsum(diff)
        if load.max() > 1.0 + FEAS_TOL:
            out.append(f"machine {i} cover {load.max():.8f} at t={int(np.argmax(load))}")
    objective = float(np.sum(data.weight[job] * value * (start + p)))
    out += check_agree(sol.objective, objective, "LP objective vs its own support")
    return out


# -- schedules ---------------------------------------------------------------


def check_schedule(data: InstanceData, machine, start) -> list[str]:
    """One non-preemptive schedule: allowed machines, integer starts at or
    after release, no two jobs overlapping on a machine."""
    machine = np.asarray(machine)
    start = np.asarray(start)
    jobs = np.arange(data.n)
    if not data.allowed[jobs, machine].all():
        return ["job on a forbidden machine"]
    if (start != np.round(start)).any():
        return ["fractional start"]
    if (start < data.release[jobs, machine]).any():
        return ["start before release"]
    end = start + data.sizes[jobs, machine]
    for i in range(data.m):
        on = np.flatnonzero(machine == i)
        order = on[np.argsort(start[on], kind="stable")]
        if (end[order][:-1] > start[order][1:]).any():
            return [f"overlap on machine {i}"]
    return []


def check_trials(data: InstanceData, machine: np.ndarray, completion: np.ndarray) -> list[str]:
    """Every trial's schedule, given per-trial machines and completion times
    (both (trials, n)), is a valid non-preemptive schedule."""
    jobs = np.arange(data.n)[None, :]
    if not data.allowed[jobs, machine].all():
        return ["a trial puts a job on a forbidden machine"]
    start = completion - data.sizes[jobs, machine]
    if (np.abs(start - np.round(start)) > 1e-9).any():
        return ["a trial has a fractional start"]
    if (start < data.release[jobs, machine] - 1e-9).any():
        return ["a trial starts a job before its release"]
    key = machine * (float(completion.max()) + 1.0) + start
    order = np.argsort(key, axis=1, kind="stable")
    m_s = np.take_along_axis(machine, order, axis=1)
    s_s = np.take_along_axis(start, order, axis=1)
    c_s = np.take_along_axis(completion, order, axis=1)
    same = m_s[:, 1:] == m_s[:, :-1]
    if (same & (c_s[:, :-1] > s_s[:, 1:] + 1e-9)).any():
        return ["a trial overlaps two jobs on a machine"]
    return []


def check_ratio_trials(objectives, relaxation, ratios, mean_ratio, std_error, alpha, what) -> list[str]:
    """Every trial's objective at least the relaxation's value; the reported
    mean ratio equals the mean of the trials' ratios and lies within alpha
    plus 3 standard errors."""
    out = check_at_most(relaxation, float(objectives.min()), f"{what}: a trial below the LP")
    out += check_agree(mean_ratio, float(ratios.mean()), f"{what}: reported mean ratio", rel=1e-9)
    if mean_ratio > alpha + 3.0 * std_error:
        out.append(f"{what}: mean ratio {mean_ratio:.5f} above {alpha} + 3 SE")
    return out


# -- offset distributions ----------------------------------------------------


def closed_form_cdf(breakpoints, coeffs):
    """Normalised CDF of a piecewise-polynomial density given by ascending
    coefficients per piece, integrated here in closed form."""
    breakpoints = np.asarray(breakpoints, dtype=float)
    antider = []
    acc = 0.0
    for k, c in enumerate(coeffs):
        c = np.asarray(c, dtype=float)
        P = np.concatenate(([0.0], c / np.arange(1, c.size + 1)))
        lo, hi = breakpoints[k], breakpoints[k + 1]
        base = acc - np.polynomial.polynomial.polyval(lo, P)
        antider.append((P, base))
        acc = base + np.polynomial.polynomial.polyval(hi, P)
    total = acc

    def cdf(x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(breakpoints, x, side="right") - 1, 0, len(coeffs) - 1)
        out = np.empty_like(x)
        for k, (P, base) in enumerate(antider):
            on = idx == k
            out[on] = base + np.polynomial.polynomial.polyval(x[on], P)
        return np.clip(out / total, 0.0, 1.0)

    return cdf


def ks_statistic(draws: np.ndarray, cdf) -> float:
    x = np.sort(np.ravel(draws))
    n = x.size
    F = cdf(x)
    return float(max((np.arange(1, n + 1) / n - F).max(), (F - np.arange(n) / n).max()))


def check_sampler(dist, draws: np.ndarray) -> list[str]:
    """Kolmogorov-Smirnov at the 1% level against the closed-form CDF."""
    d = ks_statistic(draws, closed_form_cdf(dist.breakpoints, dist.coeffs))
    critical = KS_LEVEL_C / math.sqrt(draws.size)
    if (draws < 0).any() or (draws > 1).any():
        return [f"{dist.name}: draws outside [0, 1]"]
    if d > critical:
        return [f"{dist.name}: KS D={d:.5f} above 99% critical value {critical:.5f}"]
    return []


# -- chain LP ------------------------------------------------------------------


def chain_cost(data: InstanceData, sol, chain) -> float:
    """Charged completion: the last slot, or in compressed mode the right
    end of the block holding it."""
    C = chain.slots[-1]
    if sol.compressed:
        C = int(sol.blocks[np.searchsorted(sol.blocks, C, side="left")])
    return float(data.weight[chain.job] * C)


def check_chain_solution(data: InstanceData, sol) -> list[str]:
    """Slot counts, slots after release and within the horizon, occupancy
    <= 1 per slot (per block length when compressed), job mass >= 1, and the
    objective recomputed from the chains."""
    out = []
    mass = np.zeros(data.n)
    load: dict = {}
    for chain, z in sol.chains:
        j, i = chain.job, chain.machine
        slots = np.asarray(chain.slots)
        if not data.allowed[j, i]:
            return [f"job {j} chain on forbidden machine {i}"]
        if slots.size != data.sizes[j, i]:
            out.append(f"job {j} chain has {slots.size} slots, needs {data.sizes[j, i]}")
        if slots[0] <= data.release[j, i] or (np.diff(slots) <= 0).any():
            out.append(f"job {j} chain slots not increasing after release")
        if slots[-1] > sol.horizon:
            out.append(f"job {j} chain past the horizon")
        if z < -1e-9:
            out.append(f"job {j} chain with negative mass")
        mass[j] += z
        keys = np.searchsorted(sol.blocks, slots, side="left") if sol.compressed else slots
        for key in keys:
            load[(i, int(key))] = load.get((i, int(key)), 0.0) + z
    if mass.min() < 1.0 - FEAS_TOL:
        out.append(f"job {int(np.argmin(mass))} chain mass {mass.min():.8f} below 1")
    for (i, key), v in load.items():
        cap = 1.0
        if sol.compressed:
            cap = float(sol.blocks[key] - (sol.blocks[key - 1] if key else 0))
        if v > cap + FEAS_TOL:
            out.append(f"machine {i} {'block' if sol.compressed else 'slot'} {key} load {v:.8f} > {cap:g}")
            break
    objective = sum(z * chain_cost(data, sol, c) for c, z in sol.chains)
    out += check_agree(sol.objective, objective, "chain objective vs its chains")
    return out


def lagrangian_bound(data: InstanceData, xi: dict, horizon: int) -> float:
    """sum_j min over chains of (w_j C + xi over its slots) - sum xi: a lower
    bound on the chain LP for any xi >= 0 (capacity rows dualised)."""
    X = np.zeros((data.m, horizon + 1))  # X[i, t] for slot t in 1..H
    for (i, t), v in xi.items():
        X[i, t] = v
    total = 0.0
    for j in range(data.n):
        best = math.inf
        for i in range(data.m):
            if not data.allowed[j, i]:
                continue
            r, p = int(data.release[j, i]), int(data.sizes[j, i])
            for C in range(r + p, horizon + 1):
                window = X[i, r + 1 : C]
                cheapest = np.partition(window, p - 2)[: p - 1].sum() if p > 1 else 0.0
                best = min(best, data.weight[j] * C + X[i, C] + cheapest)
        total += best
    return float(total - X.sum())


def check_lagrangian(data: InstanceData, sol) -> list[str]:
    xi = sol.xi
    if any(v < 0 for v in xi.values()):
        return ["negative slot dual"]
    bound = lagrangian_bound(data, xi, sol.horizon)
    return check_at_most(bound, sol.objective, "Lagrangian bound from xi above the objective")
