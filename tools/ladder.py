"""Solve the chain-LP ladder and write one JSON line per instance.

    python3 tools/ladder.py                  # all 45 instances
    python3 tools/ladder.py --size 10 3      # the 15 instances of one size
    python3 tools/ladder.py --size 10 3 --expect tools/ladder-10-3.jsonl
    python3 tools/ladder.py --size 12 2 --epsilon 0.2 \
        --expect tools/ladder-12-2-eps0.2.jsonl

Run from anywhere; the library is imported from this checkout's ``src/``.
Ladder instance (n, m) s is ``random_instance(default_rng(1000 n + s), n,
m, p_max=40, r_max=40)``, for (n, m) in (8, 2), (10, 3), (12, 2) and s =
0..14, solved by ``solve_chain_lp`` (exact, unit blocks), or with
``--epsilon EPS`` by ``solve_chain_lp_compressed(inst, EPS)`` on the
block-compressed timeline, whose master takes no seed.  Each line holds
n, m, s, the objective as ``float.hex``, the column-generation rounds, the
gap ratio ``gap_bound / (1 + objective)``, the master solves' pivots,
perturbations and dual repair pivots, the start-time LP chains that seeded
the first master and that LP's pivots (``seed_columns``, ``seed_pivots``,
not in ``pivots``), the last master's chains (``columns``) and shift
columns (``shift_columns``), the slot moves of the recovery pass
(``recovery_moves``), and the solve's seconds; a solve that raises holds
its error instead.  The exit code is 1 when any instance raised or closed
with a gap ratio above 1e-6, or, with ``--expect``, when an instance's
objective differs from the one the given JSON-lines file holds for its (n,
m, s) by more than 1e-9 (1 + |objective|), when its rounds or pivots differ at all
from the ones that line holds (a line may omit them), or when the file
lacks the instance; else 0.  ``tools/ladder-10-3.jsonl``,
``tools/ladder-8-2.jsonl`` and ``tools/ladder-12-2.jsonl`` hold the (10,
3), (8, 2) and (12, 2) objectives, rounds and pivots, so a change that
keeps the objectives but takes another pivot path shows there too; CI
checks all three sizes, so every exact ladder path is pinned.
``tools/ladder-12-2-eps0.2.jsonl`` holds the (12, 2) ones at eps 0.2,
which CI checks too, so the compressed path is pinned as well.

    python3 tools/ladder.py --summary ladder.jsonl

reads such JSON lines instead of solving and prints their summary: the
instances and errors; the total rounds, pivots, perturbations, seed pivots,
shift columns, recovery moves and seconds; the seconds and rounds per size;
the five slowest instances; the largest master, in chains; and the largest
gap ratio.  A field that a line lacks counts as 0 there.

When the reader closes stdout early (``| head``), the script stops
without a traceback and exits 1, in both modes.

BLAS and OpenMP pools are pinned to one thread before numpy is imported:
the simplex's pivot path depends on BLAS summation order.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from alphasched.bench import random_instance  # noqa: E402
from alphasched.chain_lp import ChainLpError, solve_chain_lp, solve_chain_lp_compressed  # noqa: E402
from alphasched.simplex import LpError, NumericalError  # noqa: E402

SIZES = ((8, 2), (10, 3), (12, 2))
SEEDS = 15
GAP_RATIO_MAX = 1e-6
OBJECTIVE_RTOL = 1e-9
EXACT = ("rounds", "pivots")  # compared exactly when an expectation line holds them


def solve(n: int, m: int, s: int, eps: float | None = None) -> dict:
    """The ladder line of instance (n, m) s, exact or at ``eps``."""
    inst = random_instance(np.random.default_rng(1000 * n + s), n, m, p_max=40, r_max=40)
    line = {"n": n, "m": m, "s": s}
    start = time.perf_counter()
    try:
        sol = solve_chain_lp(inst) if eps is None else solve_chain_lp_compressed(inst, eps)
    except (ChainLpError, LpError, NumericalError) as exc:  # reported, and the ladder goes on
        line.update(error=f"{type(exc).__name__}: {exc}", seconds=time.perf_counter() - start)
        return line
    seconds = time.perf_counter() - start
    line.update(
        objective=sol.objective.hex(),
        rounds=sol.stats["rounds"],
        gap_ratio=sol.gap_bound / (1.0 + abs(sol.objective)),
        pivots=sol.stats["pivots"],
        perturbations=sol.stats["perturbations"],
        dual_pivots=sol.stats["dual_pivots"],
        seed_columns=sol.stats["seed_columns"],
        seed_pivots=sol.stats["seed_pivots"],
        columns=sol.stats["columns"],
        shift_columns=sol.stats["shift_columns"],
        recovery_moves=sol.stats["recovery_moves"],
        seconds=seconds,
    )
    return line


def mismatches(line: dict, want: dict | None) -> list[str]:
    """How a solved ladder line departs from its expectation line."""
    if want is None:
        return ["no expected line"]
    got, objective = float.fromhex(line["objective"]), float.fromhex(want["objective"])
    out = []
    if abs(got - objective) > OBJECTIVE_RTOL * (1.0 + abs(objective)):
        out.append(f"objective {got!r}, expected {objective!r}")
    out.extend(f"{key} {line[key]}, expected {want[key]}" for key in EXACT if key in want and line[key] != want[key])
    return out


def summary(lines: list[dict]) -> list[str]:
    """The summary of solved ladder lines, one printed line per entry."""

    def name(d):
        return f"({d['n']}, {d['m']}) s = {d['s']}"

    def total(group, key):
        return sum(d.get(key, 0) for d in group)

    errors = [d for d in lines if "error" in d]
    out = [f"instances {len(lines)}, errors {len(errors)}"]
    out.extend(f"  {name(d)}: {d['error']}" for d in errors)
    out.append(
        f"total: {total(lines, 'rounds'):,} rounds, {total(lines, 'pivots'):,} pivots, "
        f"{total(lines, 'perturbations'):,} perturbations, {total(lines, 'seed_pivots'):,} seed pivots, "
        f"{total(lines, 'shift_columns'):,} shift columns, {total(lines, 'recovery_moves'):,} recovery moves, "
        f"{total(lines, 'seconds'):.1f} s"
    )
    for n, m in dict.fromkeys((d["n"], d["m"]) for d in lines):
        group = [d for d in lines if (d["n"], d["m"]) == (n, m)]
        out.append(f"  ({n}, {m}): {total(group, 'seconds'):.1f} s, {total(group, 'rounds'):,} rounds")
    out.append("slowest:")
    for d in sorted(lines, key=lambda d: d.get("seconds", 0), reverse=True)[:5]:
        out.append(f"  {name(d)}: {d.get('seconds', 0):.2f} s, {d.get('rounds', 0):,} rounds, {d.get('pivots', 0):,} pivots")
    masters = [d for d in lines if "columns" in d]
    if masters:
        largest = max(masters, key=lambda d: d["columns"])
        out.append(f"largest master: {largest['columns']:,} chains at {name(largest)}")
    gaps = [d for d in lines if "gap_ratio" in d]
    if gaps:
        worst = max(gaps, key=lambda d: d["gap_ratio"])
        out.append(f"largest gap ratio: {worst['gap_ratio']:.2g} at {name(worst)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--size", nargs=2, type=int, action="append", metavar=("N", "M"),
        help="solve only the instances with n jobs and m machines (repeatable; default: every size)",
    )
    parser.add_argument(
        "--expect", type=Path, metavar="PATH",
        help="JSON lines with n, m, s, objective (float.hex) and optionally rounds and pivots that each "
        "solved instance must match",
    )
    parser.add_argument(
        "--epsilon", type=float, metavar="EPS",
        help="solve the compressed chain LP at EPS, in (0, 1], instead of the exact one",
    )
    parser.add_argument(
        "--summary", type=Path, metavar="PATH",
        help="print the summary of the ladder JSON lines in PATH instead of solving",
    )
    args = parser.parse_args(argv)
    if args.summary:
        if args.size or args.expect or args.epsilon is not None:
            parser.error("--summary reads its lines from PATH; it takes no --size, --expect or --epsilon")
        lines = args.summary.read_text(encoding="utf-8").splitlines()
        print("\n".join(summary([json.loads(line) for line in lines if line.strip()])))
        return 0
    if args.epsilon is not None and not 0.0 < args.epsilon <= 1.0:
        parser.error(f"--epsilon must lie in (0, 1], got {args.epsilon}")
    expected = None
    if args.expect:
        lines = map(json.loads, args.expect.read_text(encoding="utf-8").splitlines())
        expected = {(d["n"], d["m"], d["s"]): d for d in lines}
    sizes = [tuple(size) for size in args.size] if args.size else SIZES
    unknown = [size for size in sizes if size not in SIZES]
    if unknown:
        parser.error(f"no ladder size {unknown[0]}; the sizes are {', '.join(map(str, SIZES))}")
    ok = True
    for n, m in sizes:
        for s in range(SEEDS):
            line = solve(n, m, s, args.epsilon)
            ok &= "error" not in line and line["gap_ratio"] <= GAP_RATIO_MAX
            print(json.dumps(line), flush=True)
            if expected is not None and "error" not in line:
                for problem in mismatches(line, expected.get((n, m, s))):
                    print(f"ladder ({n}, {m}) s = {s}: {problem}", file=sys.stderr)
                    ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: not every line reached it, so exit 1,
        # without a traceback.  Point stdout at /dev/null, so that the flush
        # at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
