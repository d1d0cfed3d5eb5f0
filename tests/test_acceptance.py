"""Acceptance suite.

One test per acceptance criterion, each printing a `[criterion N] PASS ...`
line (run pytest with -s to see them all).  Criteria with stated runtime
budgets assert those too.

Criterion 1 is split: every constant check except the beta upper bound
passes; the beta bound itself is recorded as a strict expected failure, see
test_criterion_1_beta_interval_spec_defect for the arithmetic.
"""

import json
import time

import numpy as np
import pytest

from alphasched.chain_lp import solve_chain_lp
from alphasched.cli import main as cli_main
from alphasched.distributions import OffsetDistribution
from alphasched.instance import Instance, horizon
from alphasched.interval_lp import solve_interval_lp, validate_fractional
from alphasched.lowerbound import run_lb_experiment
from alphasched.oracle import brute_force_nonpreemptive, brute_force_preemptive
from alphasched.rounding import estimate_ratio, idle_diagnostic
from alphasched.preemptive import default_offset_distribution, estimate_ratio_preemptive
from chain_reference import enumerate_chains, price_chain

SEED = 20250808
QUAD = OffsetDistribution.truncated_quadratic()
UNIF = OffsetDistribution.uniform()

NONPREEMPTIVE_ALPHA = 1.8786
PREEMPTIVE_ALPHA = 1.99971


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _corpus_instance(rng):
    while True:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        inst = Instance(
            num_machines=m,
            num_jobs=n,
            sizes=rng.integers(1, 7, size=(n, m)),
            releases=rng.integers(0, 9, size=n),
            weights=rng.uniform(1.0, 5.0, size=n),
        )
        if horizon(inst) <= 80:
            return inst


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(SEED)
    return [_corpus_instance(rng) for _ in range(50)]


@pytest.fixture(scope="module")
def corpus_lp(corpus):
    return [solve_interval_lp(inst) for inst in corpus]


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def analyze_dist_row(capsys, dist):
    code, out = run_cli(capsys, "analyze-dist", "--dist", dist)
    assert code == 0
    header, row = out.strip().splitlines()
    return {k: v for k, v in zip(header.split(","), row.split(","))}


def test_criterion_1_quadratic_constants(capsys):
    t0 = time.time()
    row = analyze_dist_row(capsys, "quadratic")
    elapsed = time.time() - t0
    rho = float(row["rho"])
    rho_star = float(row["rho_at_phi_star"])
    phi_star = float(row["phi_star"])
    alpha = float(row["alpha"])
    f1 = float(row["raw_f1"])
    checks = {
        "rho in (0.8780, 0.8785]": 0.8780 < rho <= 0.8785,
        "rho(phi*) within 1e-6 of 0.8784782": abs(rho_star - 0.8784782) <= 1e-6,
        "phi* within 1e-5 of 0.5338653": abs(phi_star - 0.5338653) <= 1e-5,
        "raw F(1) within 1e-7 of 1.00000125": abs(f1 - 1.00000125) <= 1e-7,
        "alpha in (1.8780, 1.8786]": 1.8780 < alpha <= 1.8786,
        "runtime < 1 s": elapsed < 1.0,
    }
    bad = [name for name, ok in checks.items() if not ok]
    report(
        "1",
        not bad,
        f"rho={rho:.9f} rho*={rho_star:.9f} phi*={phi_star:.7f} alpha={alpha:.9f} "
        f"F(1)={f1:.9f} in {elapsed:.2f}s" + (f"; failed: {bad}" if bad else ""),
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "spec defect: the stated interval beta <= 0.46767 is unattainable. "
        "The exact raw value of a*d^4/4 + b*d^3/3 + c*d^2/2 at a=0.1702, "
        "b=0.5768, c=0.8746, d=0.85897 is 0.46767020984770954 (rational "
        "arithmetic), exceeding 0.46767 by 2.1e-7.  Normalizing by F(1) gives "
        "0.4676696 <= 0.46767 but then rho(phi*) = 0.8784772 misses its own "
        "1e-6 window around 0.8784782, so no single definition satisfies "
        "criterion 1 in full.  Stats stay raw per the design decision."
    ),
)
def test_criterion_1_beta_interval_spec_defect(capsys):
    row = analyze_dist_row(capsys, "quadratic")
    beta = float(row["beta"])
    report("1 (beta bound)", 0.4676 < beta <= 0.46767, f"beta={beta:.12f}")


def test_criterion_2_uniform_baseline(capsys):
    row = analyze_dist_row(capsys, "uniform")
    alpha = float(row["alpha"])
    ok = abs(alpha - 2.0) <= 1e-9
    report("2", ok, f"uniform alpha={alpha!r} (closed form), attained={row['attained']}")


def test_criterion_3_relaxation_ordering(corpus, corpus_lp):
    t0 = time.time()
    worst = 0.0
    for inst, lp in zip(corpus, corpus_lp):
        chain = solve_chain_lp(inst)
        opt_np, _ = brute_force_nonpreemptive(inst)
        opt_p, _ = brute_force_preemptive(inst)
        for low, high in [
            (chain.objective, lp.objective),
            (lp.objective, opt_np),
            (chain.objective, opt_p),
            (opt_p, opt_np),
        ]:
            worst = max(worst, low - high)
        assert chain.objective <= lp.objective + 1e-6
        assert lp.objective <= opt_np + 1e-6
        assert chain.objective <= opt_p + 1e-6
        assert opt_p <= opt_np + 1e-6
    elapsed = time.time() - t0
    report(
        "3",
        elapsed < 300,
        f"50 instances ordered chain<=interval<=np and chain<=p<=np, "
        f"worst slack {worst:.2e}, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_4_nonpreemptive_guarantee(corpus, corpus_lp):
    t0 = time.time()
    margins_q, margins_u = [], []
    for k, (inst, lp) in enumerate(zip(corpus, corpus_lp)):
        eq = estimate_ratio(inst, lp, QUAD, trials=20_000, seed=SEED + k)
        eu = estimate_ratio(inst, lp, UNIF, trials=20_000, seed=SEED + k)
        assert eq.mean_ratio <= NONPREEMPTIVE_ALPHA + 3 * eq.std_error, f"instance {k}"
        assert eu.mean_ratio <= 2.0 + 3 * eu.std_error, f"instance {k}"
        margins_q.append(NONPREEMPTIVE_ALPHA + 3 * eq.std_error - eq.mean_ratio)
        margins_u.append(2.0 + 3 * eu.std_error - eu.mean_ratio)
    elapsed = time.time() - t0
    report(
        "4",
        elapsed < 600,
        f"50 instances x 2e4 trials: quadratic <= 1.8786+3se (min margin "
        f"{min(margins_q):.4f}), uniform <= 2+3se (min margin {min(margins_u):.4f}), "
        f"{elapsed:.1f}s (< 600s)",
    )


def test_criterion_5_per_job_bound(corpus, corpus_lp):
    alpha = QUAD.stats().alpha
    worst = -np.inf
    for k in range(10):
        inst, lp = corpus[k], corpus_lp[k]
        est = estimate_ratio(inst, lp, QUAD, trials=100_000, seed=SEED + 777 + k)
        slack = (
            alpha * est.per_job_lp_cost
            + 3 * est.per_job_sem_completion
            - est.per_job_mean_completion
        )
        worst = max(worst, float((-slack).max()))
        assert (slack >= 0).all(), f"instance {k}: job {int(np.argmin(slack))}"
    report("5", True, f"10 instances x 1e5 trials, per-job E[C_j] <= alpha*LP_j+3se "
                      f"(worst excess {worst:.2e})")


def test_criterion_6_idle_probability_bound(corpus, corpus_lp):
    rng = np.random.default_rng(SEED + 5)
    done = 0
    k = 0
    while done < 5:
        inst, lp = corpus[k], corpus_lp[k]
        k += 1
        job = int(rng.integers(inst.num_jobs))
        x = lp.x(inst)
        machine = int(np.argmax(x[job]))
        tau = float(rng.uniform(0.3, 0.9) * horizon(inst))
        diag = idle_diagnostic(
            inst, lp, QUAD, job=job, machine=machine, tau=tau, trials=20_000, seed=SEED + k
        )
        assert (diag.h <= 1.0 + 1e-9).all()
        assert (diag.idle_hat <= np.exp(-diag.h) + 3 * diag.idle_sigma + 1e-12).all()
        done += 1
    report("6", True, "5 sampled (job, machine, tau) triples: h <= 1 + 1e-9 and "
                      "idle_hat <= exp(-h) + 3se at every grid point")


def test_criterion_7_pricing_oracle_exact():
    rng = np.random.default_rng(SEED + 7)
    cases = 0
    while cases < 200:
        H = int(rng.integers(3, 13))
        p = int(rng.integers(1, 4))
        r = int(rng.integers(0, 10))
        if r + p > H:
            continue
        xi = rng.uniform(0.0, 6.0, size=H)
        eta = float(rng.uniform(0.0, 30.0))
        w = float(rng.uniform(0.05, 4.0))
        chain, rc = price_chain(0, 0, xi, eta, w, p, r, H)
        best = min(
            w * slots[-1] + sum(xi[t - 1] for t in slots) - eta
            for slots in enumerate_chains(r, p, H)
        )
        if chain is None:
            assert best >= -1e-7 and abs(rc - best) < 1e-9
        else:
            got = w * chain.completion + sum(xi[t - 1] for t in chain.slots) - eta
            assert abs(got - best) < 1e-9 and rc < -1e-7
        cases += 1
    report("7", True, "200 random pricing cases match exhaustive chain enumeration")


def test_criterion_8_preemptive_guarantee(corpus):
    clipped = default_offset_distribution()
    margins = []
    for k in range(20):
        inst = corpus[k]
        sol = solve_chain_lp(inst)
        est = estimate_ratio_preemptive(inst, sol, trials=20_000, seed=SEED + 333 + k)
        assert est.mean_ratio <= PREEMPTIVE_ALPHA + 3 * est.std_error, f"instance {k}"
        margins.append(PREEMPTIVE_ALPHA + 3 * est.std_error - est.mean_ratio)
    report("8", True,
           f"20 instances x 2e4 trials: clipped(1/5100) ratio <= 1.99971+3se "
           f"(min margin {min(margins):.4f})")


def _mid_horizon_instance(rng):
    while True:
        n, m = 5, 2
        inst = Instance(
            num_machines=m,
            num_jobs=n,
            sizes=rng.integers(15, 36, size=(n, m)),
            releases=rng.integers(0, 31, size=n),
            weights=rng.uniform(1.0, 5.0, size=n),
        )
        if 200 <= horizon(inst) <= 300:
            return inst


def test_criterion_9_start_time_compression():
    rng = np.random.default_rng(SEED + 9)
    worst_factor = 0.0
    for _ in range(10):
        inst = _mid_horizon_instance(rng)
        full = solve_interval_lp(inst)
        comp = solve_interval_lp(inst, eps=0.5)
        validate_fractional(inst, comp)  # cover at every integer t
        assert comp.objective <= 1.5 * full.objective + 1e-6
        worst_factor = max(worst_factor, comp.objective / full.objective)
    report("9", True,
           f"10 instances T in [200,300], eps=0.5: compressed <= 1.5*full "
           f"(worst factor {worst_factor:.4f}) and full integer-time cover holds")


def test_criterion_10_lowerbound_family(capsys):
    code, out = run_cli(
        capsys, "lowerbound", "--epsilon", "0.1", "--horizon", "2000",
        "--trials", "200", "--seed", str(SEED),
    )
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    ratio = float(cols["ratio"])
    assert ratio >= 1.40, f"ratio {ratio}"
    sweep = [run_lb_experiment(0.1, T, trials=200, seed=SEED) for T in (500, 1000, 2000)]
    for a, b in zip(sweep, sweep[1:]):
        assert b.ratio_main >= a.ratio_main - 2 * (a.ratio_sem + b.ratio_sem)
    report("10", True,
           f"ratio at T=2000 is {ratio:.4f} >= 1.40; sweep "
           f"{[round(r.ratio_main, 4) for r in sweep]} non-decreasing within 2se")


def test_criterion_11_determinism(tmp_path, capsys):
    doc = {
        "machines": 2,
        "jobs": [
            {"release": 0, "weight": 2.0, "sizes": [2, 3]},
            {"release": 1, "weight": 1.0, "sizes": [1, None]},
            {"release": 2, "weight": 1.5, "sizes": [3, 2]},
        ],
    }
    inst_path = tmp_path / "d.inst.json"
    inst_path.write_text(json.dumps(doc))
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({
        "seed": 3, "trials": 200, "dists": ["quadratic"],
        "generators": [{"count": 1, "n": 3, "m": 2}],
    }))
    commands = [
        ("gen", "--n", "4", "--m", "2", "--seed", "11"),
        ("round", str(inst_path), "--dist", "quadratic", "--trials", "50", "--seed", "5"),
        ("round", str(inst_path), "--dist", "uniform", "--trials", "50", "--seed", "5", "--per-job"),
        ("round-preemptive", str(inst_path), "--trials", "50", "--seed", "6"),
        ("lowerbound", "--epsilon", "0.5", "--horizon", "24", "--trials", "40", "--seed", "7"),
        ("bench", "--config", str(cfg_path)),
        ("oracle", str(inst_path), "--mode", "p"),
        ("solve-interval", str(inst_path)),
        ("solve-chain", str(inst_path)),
        ("analyze-dist", "--dist", "clipped:0.01"),
    ]
    for argv in commands:
        code1, out1 = run_cli(capsys, *argv)
        code2, out2 = run_cli(capsys, *argv)
        assert code1 == code2 == 0, argv[0]
        assert out1 == out2, f"{argv[0]} not byte-identical under a fixed seed"
    report("11", True, f"{len(commands)} subcommands re-ran byte-identically under fixed seeds")
