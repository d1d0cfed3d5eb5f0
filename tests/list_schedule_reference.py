"""Test-only reference for ``interval_lp.list_schedule``: the same rule as
an array loop over every gap of every machine, with numpy calls per job,
as the library ran it before the scalar loop replaced it.  Its open gaps
end at the start set's horizon, ``lp_horizon`` over the full range."""

import numpy as np

from alphasched.instance import lp_horizon


def array_list_schedule(inst, starts=None):
    """(machine, start) per job, or None when some job cannot be placed."""
    n, M = inst.num_jobs, inst.num_machines
    allowed, sizes, release = inst.allowed_mask(), inst.sizes, inst.release_matrix()
    smallest = np.where(allowed, sizes, np.iinfo(np.int64).max).min(axis=1)
    order = np.argsort(-(inst.weights / smallest), kind="stable")
    # The free gaps [gap_lo, gap_hi) of the machines, one per machine at
    # first; placing a job splits one in two.  In a gap the earliest
    # admissible start finishes the job earliest, and on one machine no two
    # gaps give the same finish.
    gap_machine = np.concatenate((np.arange(M), np.zeros(n, dtype=np.int64)))
    gap_lo = np.zeros(M + n, dtype=np.int64)
    gap_hi = np.full(M + n, lp_horizon(inst) if starts is None else starts.horizon, dtype=np.int64)
    machine, start = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for k, j in enumerate(order, M):
        on = gap_machine[:k]
        s = np.maximum(gap_lo[:k], release[j, on])
        fits = allowed[j, on]
        if starts is not None:
            at = np.searchsorted(starts.times, s)
            fits &= at < starts.times.size
            s = starts.times[np.minimum(at, starts.times.size - 1)]
        finish = s + sizes[j, on]
        free = np.flatnonzero(fits & (finish <= gap_hi[:k]))
        if not free.size:
            return None
        free = free[finish[free] == finish[free].min()]
        g = free[np.argmin(on[free])]
        machine[j], start[j] = on[g], s[g]
        gap_machine[k], gap_lo[k], gap_hi[k] = on[g], finish[g], gap_hi[g]
        gap_hi[g] = s[g]
    return machine, start
