"""
Rounding the start-time LP into non-preemptive schedules
========================================================

Build a small contended instance, solve the fractional start-time LP, and
round it with offsets drawn from two distributions.  The truncated quadratic
density certifies a 1.8786 factor over the LP; the uniform density only a
factor 2.  The exact optimum (from the subset-DP oracle) shows how much
slack is left at desk scale.
"""

import numpy as np

from alphasched import (
    Instance,
    OffsetDistribution,
    brute_force_nonpreemptive,
    estimate_ratio,
    evaluate_schedule,
    horizon,
    round_once,
    solve_interval_lp,
)

# Two machines, six jobs with staggered releases; machine 1 is faster for
# half of the jobs, so the assignment genuinely matters.
rng = np.random.default_rng(7)
inst = Instance(
    num_machines=2,
    num_jobs=6,
    sizes=rng.integers(1, 7, size=(6, 2)),
    releases=rng.integers(0, 9, size=6),
    weights=rng.uniform(1, 5, size=6),
)
print(f"instance: {inst.num_jobs} jobs on {inst.num_machines} machines, horizon T = {horizon(inst)}")

# The LP places fractional (machine, start) mass per job subject to unit
# capacity at every time step.
sol = solve_interval_lp(inst)
print(f"fractional LP value: {sol.objective:.4f}")

opt, _ = brute_force_nonpreemptive(inst)
print(f"integral optimum:    {opt:.4f}  (LP below it, as a relaxation must be)")

# One rounding trial: sample (machine, start) from the mass, add an offset
# theta * size, order each machine by the resulting pseudo-release.
quadratic = OffsetDistribution.truncated_quadratic()
sched, draw, (converted, pseudo) = round_once(inst, sol, quadratic, np.random.default_rng(1))
cost = evaluate_schedule(inst, sched)
print(f"\none trial: converted objective {cost.objective:.4f} (pseudo schedule cost {pseudo:.4f})")
print("  job -> machine @ start:",
      {j: (int(sched.machine[j]), int(sched.start[j])) for j in range(inst.num_jobs)})

# Monte Carlo over 20000 trials for both distributions.
for dist, bound in [(quadratic, 1.8786), (OffsetDistribution.uniform(), 2.0)]:
    est = estimate_ratio(inst, sol, dist, trials=20_000, seed=42)
    print(f"\n{dist.name:10s} mean ratio vs LP: {est.mean_ratio:.4f} +- {est.std_error:.4f}"
          f"  (certified bound {bound})")
    print(f"{'':10s} mean objective {est.mean_objective:.4f} vs optimum {opt:.4f}"
          f" -> empirical factor {est.mean_objective / opt:.4f} over OPT")
