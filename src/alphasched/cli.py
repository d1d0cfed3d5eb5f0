"""Command-line entry point.

Subcommands: gen, solve-interval, solve-chain, round, round-preemptive,
oracle, analyze-dist, lowerbound, bench.  Global flags --seed, --format
(csv | json), --out.  --seed defaults to 0, except that bench takes the
config's seed unless --seed is given.  Reports are pure functions of
(instance, flags, seed): rerunning with the same arguments reproduces them
byte for byte.  Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import BENCH_COLUMNS, bench_random_suite, parse_bench_config, random_instance
from .chain_lp import ChainLpError, solve_chain_lp, solve_chain_lp_compressed
from .distributions import DistributionError, OffsetDistribution, from_spec
from .instance import InstanceError, ScheduleError, instance_to_json, load_instance
from .interval_lp import IntervalLpError, solve_interval_lp
from .lowerbound import run_lb_experiment
from .oracle import DEFAULT_GUARD, GuardExceeded, brute_force_nonpreemptive, brute_force_preemptive
from .preemptive import simulate_preemptive_rounding
from .rounding import simulate_rounding
from .simplex import LpError, NumericalError
from .instance import horizon as instance_horizon

_ERRORS = (
    InstanceError,
    ScheduleError,
    IntervalLpError,
    ChainLpError,
    GuardExceeded,
    DistributionError,
    LpError,
    NumericalError,
    ValueError,
    OSError,
)

FULL_RANGE_DEFAULT = 1000  # compression engages above this horizon


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _emit(args, columns: list[str], rows: list[list]) -> None:
    if args.format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        doc = {"columns": columns, "rows": [[v for v in row] for row in rows]}
        text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# -- subcommand implementations ------------------------------------------


def _cmd_gen(args) -> None:
    rng = np.random.default_rng(args.seed)
    inst = random_instance(
        rng,
        num_jobs=args.n,
        num_machines=args.m,
        p_max=args.p_max,
        r_max=args.r_max,
        w_max=args.w_max,
        forbid_prob=args.forbid_prob,
        name=f"gen-{args.seed}",
    )
    inst.meta["seed"] = args.seed
    text = instance_to_json(inst) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_solve_interval(args) -> None:
    inst = load_instance(args.instance)
    eps = args.epsilon
    if eps is None and not args.full and instance_horizon(inst) > FULL_RANGE_DEFAULT:
        eps = 0.5
    sol = solve_interval_lp(inst, eps)
    order = np.lexsort((sol.start, sol.job, sol.machine))
    rows = [["objective", _fmt(sol.objective), "", ""], ["gap_bound", _fmt(sol.gap_bound), "", ""]]
    rows.extend(
        [int(sol.machine[k]), int(sol.job[k]), int(sol.start[k]), float(sol.value[k])]
        for k in order
    )
    _emit(args, ["machine", "job", "start", "y"], rows)


def _cmd_solve_chain(args) -> None:
    inst = load_instance(args.instance)
    if args.epsilon is not None:
        sol = solve_chain_lp_compressed(inst, args.epsilon)
    else:
        sol = solve_chain_lp(inst)
    rows = [["objective", _fmt(sol.objective), "", ""], ["gap_bound", _fmt(sol.gap_bound), "", ""]]
    for chain, z in sorted(sol.chains, key=lambda cz: (cz[0].machine, cz[0].job, cz[0].slots)):
        rows.append([chain.machine, chain.job, float(z), " ".join(map(str, chain.slots))])
    _emit(args, ["machine", "job", "z", "slots"], rows)


def _cmd_round(args) -> None:
    inst = load_instance(args.instance)
    dist = from_spec(args.dist)
    sol = solve_interval_lp(inst)
    rng = np.random.default_rng(args.seed)
    conv, _, _ = simulate_rounding(inst, sol, dist, rng, args.trials, full=False)
    objectives = conv @ inst.weights
    columns = ["trial", "objective", "ratio"]
    if args.per_job:
        columns += [f"c{j}" for j in range(inst.num_jobs)]
    rows = []
    for t in range(args.trials):
        row = [t, float(objectives[t]), float(objectives[t] / sol.objective)]
        if args.per_job:
            row += [float(c) for c in conv[t]]
        rows.append(row)
    mean_row = ["mean", float(objectives.mean()), float(objectives.mean() / sol.objective)]
    if args.per_job:
        mean_row += [float(c) for c in conv.mean(axis=0)]
    rows.append(mean_row)
    _emit(args, columns, rows)


def _cmd_round_preemptive(args) -> None:
    inst = load_instance(args.instance)
    dist = from_spec(args.dist) if args.dist else OffsetDistribution.clipped_uniform(args.clip)
    sol = solve_chain_lp(inst)
    rng = np.random.default_rng(args.seed)
    obj, obj_int, _ = simulate_preemptive_rounding(inst, sol, dist, rng, args.trials, full=False)
    rows = [
        [t, float(obj[t]), float(obj[t] / sol.objective), float(obj_int[t])]
        for t in range(args.trials)
    ]
    rows.append(["mean", float(obj.mean()), float(obj.mean() / sol.objective), float(obj_int.mean())])
    _emit(args, ["trial", "objective", "ratio", "objective-integral"], rows)


def _cmd_oracle(args) -> None:
    inst = load_instance(args.instance)
    if args.mode == "np":
        objective, sched = brute_force_nonpreemptive(inst, guard=args.guard)
        rows = [["objective", _fmt(objective), ""]]
        rows.extend([j, int(sched.machine[j]), int(sched.start[j])] for j in range(inst.num_jobs))
        _emit(args, ["job", "machine", "start"], rows)
    else:
        objective, sched = brute_force_preemptive(inst, guard=args.guard)
        rows = [["objective", _fmt(objective), ""]]
        rows.extend(
            [j, int(sched.machine[j]), " ".join(map(str, sched.chains[j]))]
            for j in range(inst.num_jobs)
        )
        _emit(args, ["job", "machine", "slots"], rows)


def _cmd_analyze_dist(args) -> None:
    dist = from_spec(args.dist)
    s = dist.stats()
    _emit(
        args,
        ["dist", "beta", "rho", "rho_at_phi_star", "phi_star", "alpha", "raw_f1", "attained"],
        [
            [
                dist.name,
                s.beta,
                s.rho,
                s.rho_at_phi_star,
                s.phi_star,
                s.alpha,
                s.raw_mass,
                int(s.attained),
            ]
        ],
    )


def _cmd_lowerbound(args) -> None:
    res = run_lb_experiment(args.epsilon, args.horizon, args.trials, args.seed)
    _emit(
        args,
        [
            "epsilon",
            "horizon",
            "trials",
            "mean-main-cost",
            "fractional-bound",
            "ratio",
            "ratio-full",
            "ratio-stderr",
        ],
        [
            [
                res.epsilon,
                res.horizon,
                res.trials,
                res.mean_main_cost,
                res.fractional_bound,
                res.ratio_main,
                res.ratio_full,
                res.ratio_sem,
            ]
        ],
    )


def _cmd_bench(args) -> None:
    cfg = parse_bench_config(Path(args.config).read_text(encoding="utf-8"))
    if args.seed is not None:
        cfg["seed"] = args.seed
    _emit(args, BENCH_COLUMNS, bench_random_suite(cfg))


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphasched",
        description="LP rounding toolkit for weighted completion time scheduling",
    )
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed (default 0; bench: the config's)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="write the report to this path")

    # The same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("csv", "json"), default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("gen", help="generate a random instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p-max", type=int, default=6)
    p.add_argument("--r-max", type=int, default=8)
    p.add_argument("--w-max", type=float, default=5.0)
    p.add_argument("--forbid-prob", type=float, default=0.0)
    p.set_defaults(func=_cmd_gen)

    p = add_parser("solve-interval", help="solve the start-time LP")
    p.add_argument("instance")
    range_ = p.add_mutually_exclusive_group()
    range_.add_argument("--epsilon", type=float, default=None, help="compress start times")
    range_.add_argument("--full", action="store_true", help="force the full time range")
    p.set_defaults(func=_cmd_solve_interval)

    p = add_parser("solve-chain", help="solve the chain LP by column generation")
    p.add_argument("instance")
    p.add_argument("--epsilon", type=float, default=None, help="compress the timeline into blocks")
    p.set_defaults(func=_cmd_solve_chain)

    p = add_parser("round", help="Monte Carlo rounding of the start-time LP")
    p.add_argument("instance")
    p.add_argument("--dist", default="quadratic")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--per-job", action="store_true")
    p.set_defaults(func=_cmd_round)

    p = add_parser("round-preemptive", help="Monte Carlo rounding of the chain LP")
    p.add_argument("instance")
    p.add_argument("--lambda", dest="clip", type=float, default=1.0 / 5100.0)
    p.add_argument("--dist", default=None, help="override the clipped-uniform offset law")
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(func=_cmd_round_preemptive)

    p = add_parser("oracle", help="exact optimum by subset dynamic programming")
    p.add_argument("instance")
    p.add_argument("--mode", choices=("np", "p"), required=True)
    p.add_argument(
        "--guard", type=int, default=DEFAULT_GUARD,
        help="refuse when the DP needs more cells: 2^n per slot of each machine's horizon, plus 3^n",
    )
    p.set_defaults(func=_cmd_oracle)

    p = add_parser("analyze-dist", help="offset distribution constants")
    p.add_argument("--dist", required=True, help="uniform | quadratic | clipped:<lam> | poly:<file>")
    p.set_defaults(func=_cmd_analyze_dist)

    p = add_parser("lowerbound", help="independent-rounding hard family experiment")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(func=_cmd_lowerbound)

    p = add_parser("bench", help="benchmark suite from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.seed is None and args.func is not _cmd_bench:
        args.seed = 0  # bench falls back to its config's seed
    try:
        args.func(args)
    except _ERRORS as exc:
        print(f"alphasched: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
