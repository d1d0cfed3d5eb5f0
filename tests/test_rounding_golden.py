"""Seeded rounding outputs against golden values.

The values in ``tests/data/golden-rounding.json`` and the two CSVs beside
it were written by the library before its Monte Carlo trials ran in
blocks, on the fixture ``golden-8x2.inst.json`` (``alphasched gen --n 8 --m
2 --p-max 4 --r-max 6 --seed 1``); the trial counts are not multiples of
the block length (512 trials at 8 jobs).  The estimators' solutions are
stored with the golden values, so they do not depend on the LP solver; the
CLI subcommands solve their LP themselves.  Floats are stored with
``float.hex`` and compared exactly.  Only the public API is used here.
"""

import json
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from alphasched.chain_lp import ChainSolution
from alphasched.chains import Chain
from alphasched.cli import main
from alphasched.distributions import OffsetDistribution
from alphasched.instance import load_instance
from alphasched.interval_lp import solution_from_triples
from alphasched.preemptive import estimate_ratio_preemptive
from alphasched.rounding import estimate_ratio

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden-rounding.json").read_text())
INST = load_instance(str(DATA / GOLDEN["instance"]))
DISTS = {"quadratic": OffsetDistribution.truncated_quadratic(), "uniform": OffsetDistribution.uniform()}


def golden_interval_solution():
    doc = GOLDEN["interval_solution"]
    triples = [(m, j, s, float.fromhex(y)) for m, j, s, y in doc["triples"]]
    return solution_from_triples(INST, triples, horizon=doc["horizon"])


def golden_chain_solution():
    doc = GOLDEN["chain_solution"]
    return ChainSolution(
        chains=[(Chain(m, j, tuple(slots)), float.fromhex(z)) for m, j, slots, z in doc["chains"]],
        objective=float.fromhex(doc["objective"]),
        eta=np.zeros(INST.num_jobs),
        xi={},
        horizon=doc["horizon"],
    )


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("case", GOLDEN["estimate_ratio"], ids=lambda c: c["dist"])
def test_estimate_ratio_matches_golden(case):
    est = estimate_ratio(INST, golden_interval_solution(), DISTS[case["dist"]], case["trials"], case["seed"])
    assert float(est.mean_ratio).hex() == case["mean_ratio"]
    assert float(est.std_error).hex() == case["std_error"]
    assert float(est.mean_objective).hex() == case["mean_objective"]
    assert hexes(est.per_job_mean_completion) == case["per_job_mean_completion"]
    assert hexes(est.per_job_sem_completion) == case["per_job_sem_completion"]


@pytest.mark.parametrize("case", GOLDEN["estimate_ratio_preemptive"], ids=lambda c: str(c["trials"]))
def test_estimate_ratio_preemptive_matches_golden(case):
    est = estimate_ratio_preemptive(INST, golden_chain_solution(), case["trials"], case["seed"])
    assert float(est.mean_ratio).hex() == case["mean_ratio"]
    assert float(est.std_error).hex() == case["std_error"]
    assert float(est.mean_objective).hex() == case["mean_objective"]
    assert float(est.mean_integral_objective).hex() == case["mean_integral_objective"]


@pytest.mark.parametrize("case", GOLDEN["cli"], ids=lambda c: c["args"][0])
def test_cli_rounding_csv_matches_golden(case, capsys):
    args = [str(DATA / GOLDEN["instance"]) if a == "{instance}" else a for a in case["args"]]
    assert main(args) == 0
    got, want = capsys.readouterr().out, (DATA / case["csv"]).read_text()
    if got != want:  # name the first differing line, not a diff of the whole file
        lines = zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
        k, (a, b) = next((k, pair) for k, pair in enumerate(lines, 1) if pair[0] != pair[1])
        pytest.fail(f"{case['csv']} line {k}: got {a!r}, want {b!r}")
