"""Generate the benchmark's instance corpus from fixed seeds.

Every instance file under ``perfbench/corpus/<workload>/`` is produced by
this script, which depends only on numpy and scipy (not on the library being
measured), so the corpus stays put when the library changes:

    python3 perfbench/corpus.py            # rewrite the corpus files
    python3 perfbench/corpus.py --check    # exit 1 unless the files match

Candidate ``k`` of a family is drawn from ``numpy.random.default_rng([2016,
family_id, k])``; candidates are tried in order of ``k`` and kept while they
pass the family's filters, until the family has its count.  The filters are
the horizon window (horizon = sum of allowed sizes + largest release, the
start-time LP's full range) and, for ``np-round``, a positive integrality
gap: the start-time LP optimum (HiGHS) must lie at least 0.1% below the
integer optimum of the same formulation (HiGHS MIP), so no optimal LP
solution is integral and rounding does real work.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CORPUS_DIR = HERE / "corpus"
BASE_SEED = 2016
GAP_MIN = 1e-3


@dataclass(frozen=True)
class Family:
    workload: str
    name: str
    family_id: int
    count: int
    jobs: tuple  # (lo, hi) inclusive
    machines: tuple  # (lo, hi) inclusive
    sizes: tuple  # (lo, hi) inclusive
    release_max: int
    horizon: tuple  # (lo, hi) inclusive window
    fractional: bool = False
    ladder: tuple = ()  # fixed job counts, one per kept instance (overrides jobs)


FAMILIES = (
    Family("np-round", "frac", 1, 20, (5, 8), (2, 3), (1, 6), 8, (0, 100), fractional=True),
    Family("interval-lp", "short", 2, 3, (10, 15), (3, 3), (1, 6), 8, (0, 10**9),
           ladder=(10, 12, 14)),
    Family("interval-lp", "long", 3, 3, (5, 5), (2, 2), (15, 35), 10, (200, 300)),
    Family("chain-cg", "chain", 4, 4, (5, 5), (2, 2), (10, 30), 10, (150, 190)),
)


def draw_candidate(fam: Family, k: int, jobs: int | None = None) -> dict:
    rng = np.random.default_rng([BASE_SEED, fam.family_id, k])
    n = int(rng.integers(fam.jobs[0], fam.jobs[1] + 1))
    if jobs is not None:
        n = jobs
    m = int(rng.integers(fam.machines[0], fam.machines[1] + 1))
    sizes = rng.integers(fam.sizes[0], fam.sizes[1] + 1, size=(n, m))
    releases = rng.integers(0, fam.release_max + 1, size=n)
    weights = np.round(rng.uniform(1.0, 5.0, size=n), 2)
    return {
        "name": f"{fam.name}-{k:04d}",
        "family": fam.name,
        "seed": [BASE_SEED, fam.family_id, k],
        "machines": m,
        "jobs": [
            {
                "release": int(releases[j]),
                "weight": float(weights[j]),
                "sizes": [int(p) for p in sizes[j]],
            }
            for j in range(n)
        ],
    }


def doc_horizon(doc: dict) -> int:
    sizes = [p for job in doc["jobs"] for p in job["sizes"] if p is not None]
    return sum(sizes) + max(job["release"] for job in doc["jobs"])


def integrality_gap(doc: dict) -> float:
    """(MIP optimum - LP optimum) / LP optimum of the start-time formulation."""
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    from reference import build_interval_lp, read_instance_doc, solve_reference_lp

    data = read_instance_doc(doc)
    lp_value = solve_reference_lp(data)
    lp = build_interval_lp(data)
    A = sparse.vstack([lp.A_eq, lp.A_ub]).tocsr()
    lower = np.concatenate([np.ones(lp.A_eq.shape[0]), np.full(lp.A_ub.shape[0], -np.inf)])
    res = milp(
        lp.cost,
        constraints=LinearConstraint(A, lower, np.ones(A.shape[0])),
        integrality=np.ones(lp.cost.size),
        bounds=Bounds(0.0, 1.0),
        options={"mip_rel_gap": 1e-7},
    )
    if not res.success:
        raise RuntimeError(f"{doc['name']}: MIP failed: {res.message}")
    return (res.fun - lp_value) / lp_value


def generate(fam: Family) -> list[dict]:
    kept = []
    k = 0
    while len(kept) < fam.count:
        jobs = fam.ladder[len(kept)] if fam.ladder else None
        doc = draw_candidate(fam, k, jobs)
        k += 1
        if not fam.horizon[0] <= doc_horizon(doc) <= fam.horizon[1]:
            continue
        if fam.fractional and integrality_gap(doc) < GAP_MIN:
            continue
        kept.append(doc)
    return kept


def render(doc: dict) -> str:
    """Canonical text: header fields on one line each, one job per line."""
    head = {k: doc[k] for k in ("name", "family", "seed", "machines")}
    lines = ["{"]
    for key, value in head.items():
        lines.append(f"  {json.dumps(key)}: {json.dumps(value)},")
    lines.append('  "jobs": [')
    jobs = [json.dumps(job) for job in doc["jobs"]]
    lines.extend(f"    {text}," for text in jobs[:-1])
    lines.append(f"    {jobs[-1]}")
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def corpus_files() -> dict[Path, str]:
    out = {}
    for fam in FAMILIES:
        for doc in generate(fam):
            out[CORPUS_DIR / fam.workload / f"{doc['name']}.inst.json"] = render(doc)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare instead of writing")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    files = corpus_files()
    existing = set(CORPUS_DIR.glob("*/*.inst.json"))
    if args.check:
        bad = [p for p, text in files.items() if not p.is_file() or p.read_text() != text]
        bad += sorted(existing - set(files))
        for p in bad:
            print(f"differs: {p.relative_to(HERE.parent)}", file=sys.stderr)
        print(f"{len(files) - len(bad)} of {len(files)} corpus files match")
        return 1 if bad else 0
    for p in existing - set(files):
        p.unlink()
    for p, text in files.items():
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    print(f"wrote {len(files)} corpus files under {CORPUS_DIR.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
