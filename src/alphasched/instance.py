"""Problem instances and schedule evaluation.

An instance consists of ``n`` jobs and ``m`` unrelated machines.  Job ``j``
takes ``p[j, i]`` time units on machine ``i`` (``FORBIDDEN`` marks machines
the job cannot run on), becomes available at its release time, and carries a
non-negative weight.  The objective throughout the package is the weighted
sum of completion times.

Schedules come in two flavours: non-preemptive (a machine and an integer
start per job) and preemptive (a machine and a chain of unit slots per job,
see :mod:`alphasched.chains`).  ``evaluate_schedule`` validates either kind
and returns the objective together with per-job completion times.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FORBIDDEN = -1

# Largest table one call may keep of values that grow with a count it is
# given: a rounding's per-trial arrays and report rows, or a generated
# instance and its file text.  1 GiB; a call over it raises ValueError
# before it allocates the table (``refuse_oversized``).
MAX_KEPT_BYTES = 2**30


def refuse_oversized(nbytes: int, what: str) -> None:
    """Raise ValueError, naming ``what`` and its size, when ``nbytes`` is
    over ``MAX_KEPT_BYTES``."""
    if nbytes > MAX_KEPT_BYTES:
        raise ValueError(
            f"too large: {what} would keep {nbytes / 2**20:.0f} MiB, "
            f"over the {MAX_KEPT_BYTES / 2**20:.0f} MiB limit"
        )


class InstanceError(ValueError):
    """Malformed instance data (bad schema, bad sizes, impossible job)."""


class ScheduleError(ValueError):
    """Structurally invalid schedule (overlap, early start, forbidden pair)."""


@dataclass(frozen=True)
class Instance:
    """Immutable scheduling instance.

    sizes is an (n, m) int64 array; entry ``FORBIDDEN`` means the job cannot
    run on that machine.  Releases are per-job by default; an (n, m) array
    gives per-(job, machine) release times.  Weights are float64.
    """

    num_machines: int
    num_jobs: int
    sizes: np.ndarray
    releases: np.ndarray
    weights: np.ndarray
    name: str = "instance"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        m, n = int(self.num_machines), int(self.num_jobs)
        if m < 1 or n < 1:
            raise InstanceError("need at least one machine and one job")
        sizes = np.asarray(self.sizes, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        releases = np.asarray(self.releases, dtype=np.int64)
        if sizes.shape != (n, m):
            raise InstanceError(f"sizes must have shape ({n}, {m}), got {sizes.shape}")
        if releases.shape not in ((n,), (n, m)):
            raise InstanceError(f"releases must have shape ({n},) or ({n}, {m})")
        if weights.shape != (n,):
            raise InstanceError(f"weights must have shape ({n},)")
        allowed = sizes != FORBIDDEN
        if not allowed.any(axis=1).all():
            bad = int(np.flatnonzero(~allowed.any(axis=1))[0])
            raise InstanceError(f"job {bad} is forbidden on every machine")
        if (sizes[allowed] <= 0).any():
            raise InstanceError("all sizes must be positive integers")
        if (releases < 0).any():
            raise InstanceError("release times must be non-negative")
        if not np.isfinite(weights).all() or (weights < 0).any():
            raise InstanceError("weights must be finite and non-negative")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "releases", releases)
        object.__setattr__(self, "weights", weights)
        sizes.setflags(write=False)
        releases.setflags(write=False)
        weights.setflags(write=False)

    # -- accessors -----------------------------------------------------

    @property
    def per_machine_releases(self) -> bool:
        return self.releases.ndim == 2

    def release_matrix(self) -> np.ndarray:
        """Releases expanded to shape (n, m)."""
        if self.releases.ndim == 2:
            return self.releases
        return np.repeat(self.releases[:, None], self.num_machines, axis=1)

    def allowed(self, job: int, machine: int) -> bool:
        return self.sizes[job, machine] != FORBIDDEN

    def allowed_mask(self) -> np.ndarray:
        return self.sizes != FORBIDDEN

    def size(self, job: int, machine: int) -> int:
        p = int(self.sizes[job, machine])
        if p == FORBIDDEN:
            raise InstanceError(f"job {job} cannot run on machine {machine}")
        return p


@dataclass(frozen=True)
class NonPreemptiveSchedule:
    """Machine assignment and integer start time per job."""

    machine: np.ndarray
    start: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "machine", np.asarray(self.machine, dtype=np.int64))
        object.__setattr__(self, "start", np.asarray(self.start, dtype=np.int64))


@dataclass(frozen=True)
class PreemptiveSchedule:
    """Machine assignment and a chain of unit slots per job."""

    machine: np.ndarray
    chains: tuple

    def __post_init__(self):
        object.__setattr__(self, "machine", np.asarray(self.machine, dtype=np.int64))
        object.__setattr__(self, "chains", tuple(tuple(int(t) for t in a) for a in self.chains))


@dataclass(frozen=True)
class ScheduleCost:
    objective: float
    completion: np.ndarray


# -- parsing -----------------------------------------------------------


def parse_instance(text: str, name: str = "instance") -> Instance:
    """Parse the JSON instance schema.

    Top-level object with ``machines`` (int) and ``jobs``: a list of
    ``{"release": int or [int per machine], "weight": number,
    "sizes": [int or null per machine]}`` where null marks a forbidden
    machine.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    for key in ("machines", "jobs"):
        if key not in doc:
            raise InstanceError(f"missing required field {key!r}")
    m = doc["machines"]
    if not isinstance(m, int) or m < 1:
        raise InstanceError("machines must be a positive integer")
    jobs = doc["jobs"]
    if not isinstance(jobs, list) or not jobs:
        raise InstanceError("jobs must be a non-empty array")

    sizes = np.empty((len(jobs), m), dtype=np.int64)
    weights = np.empty(len(jobs))
    rel_rows = []
    any_per_machine = False
    for j, job in enumerate(jobs):
        if not isinstance(job, dict):
            raise InstanceError(f"job {j} must be an object")
        for key in ("release", "weight", "sizes"):
            if key not in job:
                raise InstanceError(f"job {j}: missing required field {key!r}")
        row = job["sizes"]
        if not isinstance(row, list) or len(row) != m:
            raise InstanceError(f"job {j}: sizes must be a list of {m} entries")
        for i, p in enumerate(row):
            if p is None:
                sizes[j, i] = FORBIDDEN
            elif isinstance(p, int) and not isinstance(p, bool) and p > 0:
                sizes[j, i] = p
            else:
                raise InstanceError(f"job {j}: size on machine {i} must be a positive integer or null")
        r = job["release"]
        if isinstance(r, list):
            if len(r) != m:
                raise InstanceError(f"job {j}: per-machine release needs {m} entries")
            any_per_machine = True
            rel_rows.append([_check_release(x, j) for x in r])
        else:
            rel_rows.append(_check_release(r, j))
        w = job["weight"]
        if not isinstance(w, (int, float)) or isinstance(w, bool) or w < 0:
            raise InstanceError(f"job {j}: weight must be a non-negative number")
        weights[j] = float(w)

    if any_per_machine:
        releases = np.array(
            [r if isinstance(r, list) else [r] * m for r in rel_rows], dtype=np.int64
        )
    else:
        releases = np.array(rel_rows, dtype=np.int64)
    return Instance(
        num_machines=m,
        num_jobs=len(jobs),
        sizes=sizes,
        releases=releases,
        weights=weights,
        name=str(doc.get("name", name)),
        meta={k: doc[k] for k in doc if k not in ("machines", "jobs", "name")},
    )


def _check_release(r, j: int) -> int:
    if not isinstance(r, int) or isinstance(r, bool) or r < 0:
        raise InstanceError(f"job {j}: release must be a non-negative integer")
    return r


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    return parse_instance(path.read_text(encoding="utf-8"), name=path.stem)


def instance_to_json(inst: Instance) -> str:
    """Serialize back to the instance schema (canonical ``.inst.json``).
    The arrays are read through ``tolist``, as Python ints and floats."""
    jobs = [
        {"release": r, "weight": w, "sizes": [None if p == FORBIDDEN else p for p in row]}
        for r, w, row in zip(inst.releases.tolist(), inst.weights.tolist(), inst.sizes.tolist())
    ]
    doc = {"name": inst.name, "machines": inst.num_machines, "jobs": jobs}
    doc.update(inst.meta)
    return json.dumps(doc, indent=2, sort_keys=False)


# -- horizon and evaluation ---------------------------------------------


def horizon(inst: Instance) -> int:
    """Scheduling horizon: total size over all (job, machine) pairs plus the
    largest release time.  Every job can complete by this time on any
    machine; forbidden pairs contribute nothing."""
    allowed = inst.allowed_mask()
    total = int(inst.sizes[allowed].sum())
    rel = inst.release_matrix()
    return total + int(rel[allowed].max(initial=0))


def lp_horizon(inst: Instance) -> int:
    """Horizon of the start-time indexed LP: min(``horizon(inst)``, r_max +
    sum_j max_i p_ij + p_max - 1), with releases and sizes taken over the
    allowed (job, machine) pairs only.

    The LP over starts 0..H-1 has the same optimum at this horizon as at any
    larger H.  With weights >= 0, take among its optimal solutions one that
    minimizes sum y * s.  A start s >= r_max + 1 on machine i with positive
    mass finds the slot (s-1, s] full: otherwise moving a little of that mass
    to start s-1 (admissible, as s-1 >= r_ij) would lower the cost or
    sum y * s.  By induction downward from s every slot in (r_max, s] is full
    (the mass covering slot t either starts before t-1, and covers t-1 too,
    or starts at t-1, whose slot is full by the same move).  Job j's volume
    on machine i is at most its mass there times max_i p_ij, so s - r_max is
    below the machine's volume, which is at most sum_j max_i p_ij.  Every
    start is then at most r_max + sum_j max_i p_ij - 1, and every completion
    at most this bound.  The argument bounds starts, not completions, so the
    p_max term stays: r_max + sum_j max_i p_ij alone, the bound of a
    schedule without idle time after r_max, is not proven for the LP, where
    a job split over two starts on one machine can end up to (1 - y) * p
    later."""
    allowed = inst.allowed_mask()
    longest = np.where(allowed, inst.sizes, 0).max(axis=1)
    r_max = int(inst.release_matrix()[allowed].max(initial=0))
    return min(horizon(inst), r_max + int(longest.sum()) + int(longest.max()) - 1)


def normalize_weights(inst: Instance) -> tuple[Instance, int]:
    """(``inst`` with every weight times 2**k, k) for the k that brings the
    largest weight into [1, 2), or k = 0 when every weight is zero.  A power
    of two scales exactly in floating point, so an LP solved on the result
    and scaled back by 2**-k is the LP of ``inst``, solved with tolerances
    that do not depend on the scale of the weights.  The result shares
    ``inst``'s other fields and is not validated again: a validated
    instance's weights times 2**k stay finite and non-negative."""
    top = float(inst.weights.max())
    k = 1 - math.frexp(top)[1] if top > 0.0 else 0
    weights = np.ldexp(inst.weights, k)
    weights.setflags(write=False)
    scaled = copy.copy(inst)
    object.__setattr__(scaled, "weights", weights)
    return scaled, k


def evaluate_schedule(inst: Instance, sched) -> ScheduleCost:
    """Validate a schedule and return its weighted completion time.

    Raises ScheduleError naming the offending job/machine/time for any
    overlap, early start, or forbidden assignment.
    """
    if isinstance(sched, NonPreemptiveSchedule):
        return _evaluate_nonpreemptive(inst, sched)
    if isinstance(sched, PreemptiveSchedule):
        return _evaluate_preemptive(inst, sched)
    raise TypeError(f"not a schedule: {type(sched).__name__}")


def _evaluate_nonpreemptive(inst: Instance, sched: NonPreemptiveSchedule) -> ScheduleCost:
    n = inst.num_jobs
    if sched.machine.shape != (n,) or sched.start.shape != (n,):
        raise ScheduleError("schedule arrays must have one entry per job")
    rel = inst.release_matrix()
    completion = np.zeros(n, dtype=np.int64)
    for j in range(n):
        i = int(sched.machine[j])
        if not 0 <= i < inst.num_machines:
            raise ScheduleError(f"job {j}: machine {i} out of range")
        if not inst.allowed(j, i):
            raise ScheduleError(f"job {j} assigned to forbidden machine {i}")
        s = int(sched.start[j])
        if s < rel[j, i]:
            raise ScheduleError(f"job {j} starts at {s} before release {int(rel[j, i])}")
        completion[j] = s + inst.size(j, i)
    for i in range(inst.num_machines):
        jobs = np.flatnonzero(sched.machine == i)
        order = jobs[np.argsort(sched.start[jobs], kind="stable")]
        for a, b in zip(order, order[1:]):
            if completion[a] > sched.start[b]:
                raise ScheduleError(
                    f"machine {i}: jobs {int(a)} and {int(b)} overlap at time {int(sched.start[b])}"
                )
    objective = float(inst.weights @ completion)
    return ScheduleCost(objective=objective, completion=completion)


def _evaluate_preemptive(inst: Instance, sched: PreemptiveSchedule) -> ScheduleCost:
    n = inst.num_jobs
    if sched.machine.shape != (n,) or len(sched.chains) != n:
        raise ScheduleError("schedule must carry one machine and one chain per job")
    rel = inst.release_matrix()
    completion = np.zeros(n, dtype=np.int64)
    used: dict[int, dict[int, int]] = {}
    for j in range(n):
        i = int(sched.machine[j])
        if not 0 <= i < inst.num_machines:
            raise ScheduleError(f"job {j}: machine {i} out of range")
        if not inst.allowed(j, i):
            raise ScheduleError(f"job {j} assigned to forbidden machine {i}")
        slots = sched.chains[j]
        if len(slots) != inst.size(j, i):
            raise ScheduleError(
                f"job {j}: chain has {len(slots)} slots, needs {inst.size(j, i)}"
            )
        prev = None
        for t in slots:
            if t <= rel[j, i]:
                raise ScheduleError(f"job {j}: slot {t} not after release {int(rel[j, i])}")
            if prev is not None and t <= prev:
                raise ScheduleError(f"job {j}: chain slots must strictly increase")
            prev = t
            owner = used.setdefault(i, {})
            if t in owner:
                raise ScheduleError(
                    f"machine {i}: jobs {owner[t]} and {j} both occupy slot {t}"
                )
            owner[t] = j
        completion[j] = slots[-1]
    objective = float(inst.weights @ completion)
    return ScheduleCost(objective=objective, completion=completion)

