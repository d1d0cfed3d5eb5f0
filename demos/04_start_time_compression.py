"""
Keeping the LPs polynomial when the horizon is long
===================================================

Two compression devices, both trading at most a (1 + eps) factor:

* start-time compression for the interval LP: admissible starts form a
  dense prefix followed by geometrically spaced points, and capacity rows
  are kept only at retained times (solutions still satisfy capacity at
  every integer time, which is re-verified post hoc);

* block compression for the chain LP: the timeline is cut at release times
  and geometric points, capacity is aggregated per block, and a chain is
  charged the right endpoint of its final block.
"""

import numpy as np

from alphasched import (
    Instance,
    build_compressed_timeline,
    compress_start_times,
    horizon,
    solve_chain_lp,
    solve_chain_lp_compressed,
    solve_interval_lp,
)
from alphasched.instance import lp_horizon
from alphasched.interval_lp import validate_fractional

rng = np.random.default_rng(12)
while True:
    inst = Instance(
        num_machines=2,
        num_jobs=5,
        sizes=rng.integers(8, 18, size=(5, 2)),
        releases=rng.integers(0, 20, size=5),
        weights=rng.uniform(1, 5, size=5),
    )
    if 100 <= horizon(inst) <= 160:
        break
T = lp_horizon(inst)  # the interval LP's horizon, at most horizon(inst)

starts = compress_start_times(inst, eps=0.5)
print(f"horizon {horizon(inst)}, LP horizon T = {T}; compressed start set has "
      f"{starts.times.size} times below {starts.horizon}, the full range {T}")
print(f"first entries: {starts.times[:14].tolist()} ... last: {starts.times[-3:].tolist()}")

full = solve_interval_lp(inst)
comp = solve_interval_lp(inst, eps=0.5)
validate_fractional(inst, comp)  # capacity holds at every integer time
print(f"\ninterval LP: full {full.objective:.4f} vs compressed {comp.objective:.4f}"
      f" -> factor {comp.objective / full.objective:.4f} (guaranteed <= 1.5)")

timeline = build_compressed_timeline(inst, eps=0.5)
print(f"\nchain timeline: {len(timeline.ends)} blocks, lengths "
      f"{timeline.lengths[:8].tolist()} ... {timeline.lengths[-3:].tolist()}")
exact = solve_chain_lp(inst)
blocks = solve_chain_lp_compressed(inst, eps=0.5)
print(f"chain LP: exact {exact.objective:.4f} vs block-compressed {blocks.objective:.4f}"
      f" -> factor {blocks.objective / exact.objective:.4f} (guaranteed <= 1.5)")
