"""``tools/ladder.py --summary`` on a small file of ladder JSON lines."""

import json
import os
import subprocess
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"

LINES = [
    {"n": 8, "m": 2, "s": 0, "objective": "0x1p+8", "rounds": 12, "gap_ratio": 2e-8, "pivots": 340,
     "perturbations": 1, "dual_pivots": 0, "seed_columns": 4, "seed_pivots": 20, "columns": 310, "shift_columns": 70, "recovery_moves": 3, "seconds": 1.5},
    {"n": 8, "m": 2, "s": 1, "error": "NumericalError: singular basis during refactorization", "seconds": 0.25},
    {"n": 10, "m": 3, "s": 0, "objective": "0x1p+9", "rounds": 1200, "gap_ratio": 4e-7, "pivots": 15000,
     "perturbations": 3, "dual_pivots": 2, "seed_columns": 0, "seed_pivots": 0, "columns": 1250, "shift_columns": 120, "recovery_moves": 0, "seconds": 4.0},
    {"n": 10, "m": 3, "s": 1, "objective": "0x1p+9", "rounds": 30, "gap_ratio": 0.0, "pivots": 500,
     "perturbations": 0, "dual_pivots": 0, "seed_columns": 6, "seed_pivots": 35, "columns": 95, "shift_columns": 95, "recovery_moves": 11, "seconds": 0.5},
]


def run(*args):
    return subprocess.run([sys.executable, str(LADDER), *args], capture_output=True, text=True, timeout=60)


def test_summary_of_ladder_lines(tmp_path):
    path = tmp_path / "ladder.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in LINES), encoding="utf-8")
    done = run("--summary", str(path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "instances 4, errors 1",
        "  (8, 2) s = 1: NumericalError: singular basis during refactorization",
        "total: 1,242 rounds, 15,840 pivots, 4 perturbations, 55 seed pivots, 285 shift columns, 14 recovery moves, "
        "6.2 s",
        "  (8, 2): 1.8 s, 12 rounds",
        "  (10, 3): 4.5 s, 1,230 rounds",
        "slowest:",
        "  (10, 3) s = 0: 4.00 s, 1,200 rounds, 15,000 pivots",
        "  (8, 2) s = 0: 1.50 s, 12 rounds, 340 pivots",
        "  (10, 3) s = 1: 0.50 s, 30 rounds, 500 pivots",
        "  (8, 2) s = 1: 0.25 s, 0 rounds, 0 pivots",
        "largest master: 1,250 chains at (10, 3) s = 0",
        "largest gap ratio: 4e-07 at (10, 3) s = 0",
    ]


def test_summary_solves_nothing(tmp_path):
    done = run("--summary", str(tmp_path / "ladder.jsonl"), "--size", "10", "3")
    assert done.returncode == 2 and "takes no --size" in done.stderr


def test_summary_into_a_closed_pipe_ends_quietly(tmp_path):
    # As in `--summary FILE | head -1` once head has exited: every write to
    # stdout fails with a broken pipe.
    path = tmp_path / "ladder.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in LINES), encoding="utf-8")
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, str(LADDER), "--summary", str(path)],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr, done.stderr


def test_epsilon_outside_the_unit_interval_is_a_usage_error(tmp_path):
    for eps in ("0", "1.5"):
        done = run("--size", "10", "3", "--epsilon", eps)
        assert done.returncode == 2 and "--epsilon must lie in (0, 1]" in done.stderr and not done.stdout
    done = run("--summary", str(tmp_path / "ladder.jsonl"), "--epsilon", "0.2")
    assert done.returncode == 2 and "--epsilon" in done.stderr
