"""Random instance generation and the ratio benchmark suite."""

from __future__ import annotations

import json

import numpy as np

from .chain_lp import solve_chain_lp
from .distributions import OffsetDistribution, from_spec
from .instance import FORBIDDEN, Instance, refuse_oversized
from .interval_lp import solve_interval_lp
from .oracle import GuardExceeded, brute_force_nonpreemptive, brute_force_preemptive
from .rounding import estimate_ratio


def random_instance(
    rng: np.random.Generator,
    num_jobs: int,
    num_machines: int,
    p_max: int = 6,
    r_max: int = 8,
    w_max: float = 5.0,
    forbid_prob: float = 0.0,
    name: str = "random",
) -> Instance:
    """Uniform sizes in [1, p_max], releases in [0, r_max], weights in
    [1, w_max]; each (job, machine) pair is forbidden with ``forbid_prob``
    (a job's row is redrawn while fully forbidden).  Raises ValueError on
    settings no instance meets: fewer than one job or machine, p_max below
    1, r_max below 0, or forbid_prob outside [0, 1); and, before it
    allocates, an instance whose tables would keep over
    ``MAX_KEPT_BYTES``."""
    if num_jobs < 1 or num_machines < 1:
        raise ValueError("need at least one job and one machine")
    refuse_oversized(8 * num_jobs * (num_machines + 2), f"{num_jobs} jobs on {num_machines} machines")
    if p_max < 1 or r_max < 0:
        raise ValueError("need p_max >= 1 and r_max >= 0")
    if not 0.0 <= forbid_prob < 1.0:
        raise ValueError(f"forbid_prob must lie in [0, 1), got {forbid_prob}")
    sizes = np.empty((num_jobs, num_machines), dtype=np.int64)
    for j in range(num_jobs):
        while True:
            row = rng.integers(1, p_max + 1, size=num_machines)
            if forbid_prob > 0:
                row = np.where(rng.random(num_machines) < forbid_prob, FORBIDDEN, row)
            if (row != FORBIDDEN).any():
                sizes[j] = row
                break
    releases = rng.integers(0, r_max + 1, size=num_jobs)
    weights = rng.uniform(1.0, w_max, size=num_jobs)
    return Instance(
        num_machines=num_machines,
        num_jobs=num_jobs,
        sizes=sizes,
        releases=releases,
        weights=weights,
        name=name,
    )


BENCH_COLUMNS = [
    "instance-id", "lp-interval", "lp-chain", "oracle-np", "oracle-p", "dist", "mean-ratio", "stderr",
]


def parse_bench_config(text: str) -> dict:
    cfg = json.loads(text)
    if not isinstance(cfg, dict):
        raise ValueError("bench config must be a JSON object")
    cfg.setdefault("seed", 0)
    cfg.setdefault("trials", 1000)
    cfg.setdefault("dists", ["quadratic", "uniform"])
    if not isinstance(cfg.get("generators"), list) or not cfg["generators"]:
        raise ValueError("bench config needs a non-empty 'generators' list")
    for g in cfg["generators"]:
        if not isinstance(g, dict):
            raise ValueError("each bench generator must be a JSON object")
        g.setdefault("count", 1)
        g.setdefault("p_max", 6)
        g.setdefault("r_max", 8)
        g.setdefault("w_max", 5.0)
        g.setdefault("forbid_prob", 0.0)
        for key in ("n", "m"):
            if key not in g:
                raise ValueError(f"generator entry missing {key!r}")
    return cfg


def bench_random_suite(cfg: dict) -> list[list]:
    """One row per (instance, distribution), in the order of
    ``BENCH_COLUMNS``: LP values, oracle optima (None where a guard stops
    the search), and the Monte Carlo rounding ratio with its standard
    error."""
    dists: list[tuple[str, OffsetDistribution]] = [(d, from_spec(d)) for d in cfg["dists"]]
    rows: list[list] = []
    idx = 0
    for g in cfg["generators"]:
        for _ in range(int(g["count"])):
            rng = np.random.default_rng(int(cfg["seed"]) + idx)
            inst = random_instance(
                rng,
                num_jobs=int(g["n"]),
                num_machines=int(g["m"]),
                p_max=int(g["p_max"]),
                r_max=int(g["r_max"]),
                w_max=float(g["w_max"]),
                forbid_prob=float(g["forbid_prob"]),
                name=f"bench-{idx:03d}",
            )
            sol = solve_interval_lp(inst)
            chain = solve_chain_lp(inst)
            try:
                oracle_np = brute_force_nonpreemptive(inst)[0]
            except GuardExceeded:
                oracle_np = None
            try:
                oracle_p = brute_force_preemptive(inst)[0]
            except GuardExceeded:
                oracle_p = None
            for name, dist in dists:
                est = estimate_ratio(
                    inst, sol, dist, trials=int(cfg["trials"]), seed=int(cfg["seed"]) + idx
                )
                rows.append([
                    inst.name, sol.objective, chain.objective, oracle_np, oracle_p,
                    name, est.mean_ratio, est.std_error,
                ])
            idx += 1
    return rows
