"""Seeded interval-LP solves against pinned answers and pivot counts.

``tests/data/golden-interval-lp.json`` holds, for each case below, the
objective of ``solve_interval_lp`` as ``float.hex``, its support as
(machine, job, start, value) with the value as ``float.hex``, and the
``stats["pivots"]`` of its simplex call.  The file was written by this
module run as a script (``PYTHONPATH=src python
tests/test_interval_lp_golden.py``, BLAS pinned to one thread as it pins
it), last when the LP came to be built only up to its list schedule's
makespan: every support held, the values and objectives moved by at most
6.2e-15 and 2.4e-15, and the pivots moved.  It is the start-time LP's
analogue of ``tools/ladder-10-3.jsonl``.  Each case is ``random_instance(default_rng(seed),
n, m, p_max, r_max, forbid_prob=forbid)``; the ``per_machine`` case adds
``default_rng(seed + 1).integers(0, 4, (n, m))`` to the releases.  Every
case is solved over the full range and at eps 0.5, and everything is
compared exactly: a change to a product or a sum that decides a pivot moves
the path even where the objective holds.
"""

import os
import sys

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import json  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from alphasched import interval_lp  # noqa: E402
from alphasched.bench import random_instance  # noqa: E402
from alphasched.simplex import solve_lp  # noqa: E402

DATA = Path(__file__).parent / "data" / "golden-interval-lp.json"
# (name, seed, n, m, p_max, r_max, forbid_prob, per-machine releases)
CASES = [
    ("6x2", 2101, 6, 2, 20, 5, 0.0, False),
    ("8x2", 2103, 8, 2, 20, 10, 0.0, False),
    ("9x3-forbidden", 2105, 9, 3, 15, 8, 0.35, False),
    ("10x3", 2103, 10, 3, 15, 5, 0.0, False),
    ("11x2-per-machine", 2100, 11, 2, 14, 6, 0.0, True),
    ("12x2", 2105, 12, 2, 12, 6, 0.0, False),
    ("13x3", 2101, 13, 3, 12, 6, 0.0, False),
    ("14x3", 2104, 14, 3, 12, 6, 0.0, False),
]
EPS = (None, 0.5)


def case_instance(seed, n, m, p_max, r_max, forbid, per_machine):
    inst = random_instance(np.random.default_rng(seed), n, m, p_max=p_max, r_max=r_max, forbid_prob=forbid)
    if per_machine:
        extra = np.random.default_rng(seed + 1).integers(0, 4, size=(n, m))
        inst = replace(inst, releases=inst.releases[:, None] + extra)
    return inst


def solve_case(inst, eps):
    """The pinned record of one solve: objective, support and pivots."""
    seen = []

    def spy(lp, start=None):
        seen.append(solve_lp(lp, start))
        return seen[-1]

    with mock.patch.object(interval_lp, "solve_lp", spy):
        sol = interval_lp.solve_interval_lp(inst, eps)
    assert len(seen) == 1
    support = [
        [int(i), int(j), int(s), float(v).hex()]
        for i, j, s, v in zip(sol.machine, sol.job, sol.start, sol.value)
    ]
    return {"objective": float(sol.objective).hex(), "support": support, "pivots": int(seen[0].stats["pivots"])}


def records():
    out = []
    for name, *spec in CASES:
        inst = case_instance(*spec)
        for eps in EPS:
            out.append({"name": name, "eps": eps, **solve_case(inst, eps)})
    return out


def test_the_per_machine_case_has_per_machine_releases():
    name, *spec = CASES[4]
    assert case_instance(*spec).per_machine_releases
    name, *spec = CASES[2]
    assert not case_instance(*spec).allowed_mask().all()


GOLDEN = json.loads(DATA.read_text()) if DATA.exists() else []


@pytest.mark.parametrize("want", GOLDEN, ids=lambda w: f"{w['name']}-{'full' if w['eps'] is None else w['eps']}")
def test_interval_lp_matches_golden(want):
    spec = next(spec for name, *spec in CASES if name == want["name"])
    got = solve_case(case_instance(*spec), want["eps"])
    assert got["objective"] == want["objective"]
    assert got["support"] == want["support"]
    assert got["pivots"] == want["pivots"]


def test_golden_file_covers_every_case():
    assert [(w["name"], w["eps"]) for w in GOLDEN] == [(name, eps) for name, *_ in CASES for eps in EPS]


if __name__ == "__main__":
    DATA.write_text("[\n" + ",\n".join(json.dumps(r) for r in records()) + "\n]\n")
    print(f"wrote {len(CASES) * len(EPS)} records to {DATA}", file=sys.stderr)
