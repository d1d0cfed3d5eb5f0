"""End-to-end benchmark of the alphasched pipelines.

    python3 perfbench/run.py --workload np-round --seed 1 --seconds 10 --trace 0

Run from the repository root.  A workload (see README.md) loads the
instance files under ``perfbench/corpus/<workload>/`` and warms up on the
first instance's operation, untimed; that set-up after the imports runs
three times.  It then times whole passes over the corpus, at least two and
until ``--seconds`` have elapsed, and averages over them.  One operation is
one instance's whole pipeline.  Every reported time is scaled to a
reference machine speed measured alongside (``speed.py``); the measured
seconds go to standard error.  After the timed passes the run reads its
peak RSS and then checks every operation's outputs against references
computed apart from the library (``reference.py``); an operation with any
violation counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run also
writes its spans and metrics as JSON lines to
``.perfbench_out/trace-<workload>-seed<seed>.jsonl`` under the working
directory.

BLAS and OpenMP pools are pinned to one thread before numpy is imported, so
every figure is a single-threaded one.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from speed import Speedometer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

NP_TRIALS = 5_000  # per distribution and np-round operation
IL_TRIALS = 500  # per solution on interval-lp
IL_EPS = 0.5
CG_TRIALS = 20_000
CG_EPS = 0.2
ROUND_ONCE = 5  # single schedules checked per rounded solution
SETUP_REPEATS = 3
MIN_PASSES = 2  # timed passes per run, at the least
KS_DRAWS = 200_000
KS_SEED = 20160608
ALPHA = {"quadratic": 1.8786, "uniform": 2.0, "clipped": 1.99971}


@dataclass
class Op:
    """One instance's pipeline: what it produced and how long it took."""

    index: int
    elapsed: float = 0.0
    lp_s: float = 0.0
    round_s: float = 0.0
    trials: int = 0
    intervals: list = field(default_factory=list)  # (solution, eps, rounds)
    chains: list = field(default_factory=list)  # (solution, eps, rounds)
    error: str | None = None

    def lp(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.lp_s += time.perf_counter() - t0
        return out

    def round(self, fn, trials, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.round_s += time.perf_counter() - t0
        self.trials += trials
        return out

    def fingerprint(self) -> tuple:
        out = [self.error]
        for sol, _, rounds in self.intervals + self.chains:
            out.append(sol.objective)
            out.extend(est.mean_ratio for _, _, _, est in rounds)
        return tuple(out)


def rounding_seed(seed: int, index: int, k: int) -> int:
    return (seed * 1000 + index) * 10 + k


# -- workloads: one function per operation -----------------------------------


def op_np_round(A, inst, op, seed, dists):
    sol = op.lp(A.solve_interval_lp, inst)
    rounds = []
    for k, name in enumerate(("quadratic", "uniform")):
        s = rounding_seed(seed, op.index, k)
        est = op.round(A.estimate_ratio, NP_TRIALS, inst, sol, dists[name], NP_TRIALS, s)
        rounds.append((name, s, NP_TRIALS, est))
    op.intervals.append((sol, None, rounds))


def op_interval_lp(A, inst, op, seed, dists):
    solutions = [(op.lp(A.solve_interval_lp, inst), None)]
    if inst.meta.get("family") == "long":
        solutions.append((op.lp(A.solve_interval_lp, inst, IL_EPS), IL_EPS))
    for k, (sol, eps) in enumerate(solutions):
        s = rounding_seed(seed, op.index, k)
        est = op.round(A.estimate_ratio, IL_TRIALS, inst, sol, dists["quadratic"], IL_TRIALS, s)
        op.intervals.append((sol, eps, [("quadratic", s, IL_TRIALS, est)]))


def op_chain_cg(A, inst, op, seed, dists):
    exact = op.lp(A.solve_chain_lp, inst)
    compressed = op.lp(A.solve_chain_lp_compressed, inst, CG_EPS)
    s = rounding_seed(seed, op.index, 0)
    est = op.round(A.estimate_ratio_preemptive, CG_TRIALS, inst, exact, CG_TRIALS, s)
    op.chains.append((exact, None, [("clipped", s, CG_TRIALS, est)]))
    op.chains.append((compressed, CG_EPS, []))


WORKLOADS = {
    "np-round": (op_np_round, ("quadratic", "uniform")),
    "interval-lp": (op_interval_lp, ("quadratic",)),
    "chain-cg": (op_chain_cg, ("clipped",)),
}


def run_pass(A, insts, seed, dists, fn, speed, tracer=None, label="") -> list[Op]:
    ops = []
    for index, inst in enumerate(insts):
        op = Op(index)
        if tracer is not None:
            tracer.op = f"{label}/{inst.name}"
        t0 = time.perf_counter()
        try:
            fn(A, inst, op, seed, dists)
        except Exception:  # a failed operation is counted, the run goes on
            op.error = traceback.format_exc()
        op.elapsed = time.perf_counter() - t0
        ops.append(op)
        speed.sample(op.elapsed)
    return ops


# -- checks -------------------------------------------------------------------


def check_op(A, ref, data, inst, op, dists) -> list[str]:
    """Every reference and property check on one operation's outputs."""
    if op.error:
        return [op.error.strip().splitlines()[-1]]
    out = ref.check_loaded(data, inst)
    w = data.weight
    exact_interval = None

    def oracle(fn):
        try:
            return fn(inst)[0]
        except A.GuardExceeded:
            return None

    for sol, eps, rounds in op.intervals:
        out += ref.check_fractional(data, sol)
        if eps is None:
            reference_value = ref.solve_reference_lp(data)
            out += ref.check_agree(sol.objective, reference_value, "interval LP objective")
            exact_interval = sol.objective
            opt = oracle(A.brute_force_nonpreemptive)
            if opt is not None:
                out += ref.check_at_most(sol.objective, opt, "interval LP above the optimum")
        else:
            out += ref.check_at_most(exact_interval, sol.objective, "compressed LP below exact")
            out += ref.check_at_most(sol.objective, (1 + eps) * exact_interval, "compressed LP above (1+eps) exact")
        for name, seed, trials, est in rounds:
            dist = dists[name]
            conv, pseudo, (machine, *_) = A.simulate_rounding(inst, sol, dist, np.random.default_rng(seed), trials)
            out += ref.check_trials(data, machine, conv)
            out += ref.check_ratio_trials(
                conv @ w, exact_interval, (conv @ w) / sol.objective,
                est.mean_ratio, est.std_error, ALPHA[name], f"{name} rounding",
            )
            rng = np.random.default_rng(seed + 7)
            for _ in range(ROUND_ONCE):
                sched, _, (conv_obj, pseudo_obj) = A.round_once(inst, sol, dist, rng)
                out += ref.check_schedule(data, sched.machine, sched.start)
                value = float(w @ (sched.start + data.sizes[np.arange(data.n), sched.machine]))
                out += ref.check_agree(conv_obj, value, "round_once objective", rel=1e-12)
                out += ref.check_at_most(conv_obj, pseudo_obj, "converted schedule above pseudo")
                out += ref.check_at_most(exact_interval, conv_obj, "round_once below the LP")

    exact_chain = None
    for sol, eps, rounds in op.chains:
        out += ref.check_chain_solution(data, sol)
        if eps is None:
            exact_chain = sol.objective
            out += ref.check_lagrangian(data, sol)
            reference_value = ref.solve_reference_lp(data)
            out += ref.check_at_most(sol.objective, reference_value, "chain LP above interval LP")
            opt = oracle(A.brute_force_nonpreemptive)
            if opt is not None:
                out += ref.check_at_most(reference_value, opt, "interval LP above the optimum")
            opt = oracle(A.brute_force_preemptive)
            if opt is not None:
                out += ref.check_at_most(sol.objective, opt, "chain LP above the preemptive optimum")
        else:
            out += ref.check_at_most(exact_chain, sol.objective, "compressed chain LP below exact")
            out += ref.check_at_most(sol.objective, (1 + eps) * exact_chain, "compressed chain LP above (1+eps) exact")
        for name, seed, trials, est in rounds:
            dist = dists[name]
            frac, integral, (machine, _) = A.simulate_preemptive_rounding(
                inst, sol, dist, np.random.default_rng(seed), trials
            )
            out += ref.check_trials(data, machine, integral)
            out += ref.check_ratio_trials(
                integral @ w, sol.objective, (frac @ w) / sol.objective,
                est.mean_ratio, est.std_error, ALPHA[name], "preemptive rounding",
            )
            rng = np.random.default_rng(seed + 7)
            for _ in range(ROUND_ONCE):
                sched, _, _, _ = A.round_preemptive_once(inst, sol, dist, rng)
                out += ref.check_schedule(data, sched.machine, sched.start)
    return out


def check_samplers(ref, dists, names) -> list[str]:
    out = []
    for name in names:
        draws = dists[name].sample(np.random.default_rng(KS_SEED), KS_DRAWS)
        out += ref.check_sampler(dists[name], draws)
    return out


# -- main -----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="alphasched end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="rounding seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="minimum timed length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    corpus = sorted((HERE / "corpus" / args.workload).glob("*.inst.json"))
    if not (SRC / "alphasched" / "__init__.py").is_file() or not corpus:
        print(f"error: needs {SRC / 'alphasched'} and the {args.workload} corpus", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import alphasched as A

    fn, dist_names = WORKLOADS[args.workload]
    dists = {
        "quadratic": A.OffsetDistribution.truncated_quadratic(),
        "uniform": A.OffsetDistribution.uniform(),
        "clipped": A.default_offset_distribution(),
    }
    import_s = time.perf_counter() - T_START
    setup_speed = Speedometer()
    setup_speed.sample(import_s)
    # Set-up after the imports is repeated and its median reported: load the
    # corpus, then warm up on the first instance's operation (untimed).
    load_times, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        insts = [A.load_instance(p) for p in corpus]
        load_times.append(time.perf_counter() - t0)
        run_pass(A, insts[:1], args.seed, dists, fn, setup_speed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    speed = Speedometer()

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install_layers(tracer, A)
    t_loop = time.perf_counter()
    passes = []
    try:
        while True:
            passes.append(run_pass(A, insts, args.seed, dists, fn, speed, tracer, f"pass{len(passes)}"))
            if len(passes) >= MIN_PASSES and time.perf_counter() - t_loop >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import reference as ref

    first = passes[0]
    global_violations = check_samplers(ref, dists, dist_names)
    failed_index = set()
    for inst, path, op in zip(insts, corpus, first):
        try:
            violations = global_violations + check_op(A, ref, ref.read_instance(path), inst, op, dists)
        except Exception as exc:  # a check that cannot complete fails its operation
            violations = [f"check raised {exc!r}"]
        if violations:
            failed_index.add(op.index)
            print(f"FAILED {inst.name}: " + "; ".join(violations), file=sys.stderr)
    failed = 0
    for ops in passes:
        for op, op0 in zip(ops, first):
            if op.index in failed_index or op.fingerprint() != op0.fingerprint():
                failed += 1
    attempted = len(insts) * len(passes)

    n_passes = len(passes)
    measured = {
        "setup_s": setup_s,
        "wall_s": sum(op.elapsed for ops in passes for op in ops) / n_passes,
        "instance_s.p50": statistics.median(sum(op.elapsed for op in reps) / n_passes for reps in zip(*passes)),
        "lp_s": sum(op.lp_s for ops in passes for op in ops) / n_passes,
        "round_s": sum(op.round_s for ops in passes for op in ops) / n_passes,
        "kernel_us": 1e6 * speed.kernel_s,
        "setup_kernel_us": 1e6 * setup_speed.kernel_s,
    }
    print("measured: " + json.dumps(measured), file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (setup_speed.scale(setup_s), "s"),
            "wall_s": (speed.scale(measured["wall_s"]), "s"),
            "instance_s.p50": (speed.scale(measured["instance_s.p50"]), "s"),
            "lp_s": (speed.scale(measured["lp_s"]), "s"),
            "trials_per_s": (sum(op.trials for op in first) / speed.scale(measured["round_s"]), "trials/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    else:
        horizon = statistics.fmean(A.horizon(inst) for inst in insts)
        metrics = spans.layer_metrics(tracer, n_passes, statistics.median(load_times), horizon, speed)
        out_path = Path(".perfbench_out") / f"trace-{args.workload}-seed{args.seed}.jsonl"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "workload": args.workload, "seed": args.seed, "passes": n_passes,
            "wall_s": speed.scale(measured["wall_s"]), "measured": measured,
            "attempted": attempted, "failed": failed,
        }
        tracer.write_jsonl(out_path, header, metrics)
        print(f"trace written to {out_path}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
