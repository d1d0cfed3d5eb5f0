from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import alphasched.chain_lp as chain_lp
from alphasched.bench import random_instance
from alphasched.chain_lp import (
    GAP_REL_TOL,
    ChainLpError,
    build_compressed_timeline,
    solve_chain_lp,
    solve_chain_lp_compressed,
    validate_chain_solution,
)
from alphasched.chains import Chain, earliest_chain
from alphasched.instance import Instance, horizon, load_instance
from alphasched.interval_lp import solve_interval_lp
from alphasched.oracle import brute_force_preemptive
from alphasched.simplex import LinearProgram, solve_lp
from chain_reference import enumerate_chains, price_chain


def make(sizes, releases, weights):
    sizes = np.asarray(sizes)
    return Instance(
        num_machines=sizes.shape[1],
        num_jobs=sizes.shape[0],
        sizes=sizes,
        releases=releases,
        weights=weights,
    )


def chain_cost(chain, xi_row, weight, eta):
    return weight * chain.completion + sum(xi_row[t - 1] for t in chain.slots) - eta


def test_price_zero_duals_picks_earliest_chain():
    xi = np.zeros(10)
    w, eta, p, r = 2.0, 1000.0, 3, 2
    chain, rc = price_chain(0, 0, xi, eta, w, p, r, 10)
    assert chain.slots == (3, 4, 5)
    assert rc == pytest.approx(w * (r + p) - eta)


def test_price_fixed_completion_example():
    # slots priced (5, 1, 3, 0) over t = 1..4; for completion 4 the best
    # chain is (2, 4) with slot cost 1 (brute force over the 3 candidates).
    xi = np.array([5.0, 1.0, 3.0, 0.0])
    cands = [c for c in enumerate_chains(0, 2, 4) if c[-1] == 4]
    costs = {c: sum(xi[t - 1] for t in c) for c in cands}
    assert min(costs, key=costs.get) == (2, 4)
    assert costs[(2, 4)] == 1.0


def test_price_matches_exhaustive_enumeration():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(120):
        H = int(rng.integers(4, 13))
        p = int(rng.integers(1, 4))
        r = int(rng.integers(0, 9))
        if r + p > H:
            continue
        xi = rng.uniform(0, 5, size=H)
        eta = float(rng.uniform(0, 25))
        w = float(rng.uniform(0.1, 3))
        chain, rc = price_chain(0, 7, xi, eta, w, p, r, H)
        best = min(
            w * slots[-1] + sum(xi[t - 1] for t in slots) - eta
            for slots in enumerate_chains(r, p, H)
        )
        if chain is None:
            assert best >= -1e-7
            assert rc == pytest.approx(best)
        else:
            got = chain_cost(chain, xi, w, eta)
            assert got == pytest.approx(best, abs=1e-9)
            assert chain.job == 7 and len(chain.slots) == p
        checked += 1
    assert checked >= 80


def test_solve_single_job():
    inst = make([[2]], [0], [1.5])
    sol = solve_chain_lp(inst)
    assert sol.objective == pytest.approx(3.0)
    assert len(sol.chains) == 1
    chain, z = sol.chains[0]
    assert chain.slots == (1, 2)
    assert z == pytest.approx(1.0)


def test_solve_two_unit_jobs_weighted():
    inst = make([[1], [1]], [0, 0], [2.0, 1.0])
    sol = solve_chain_lp(inst)
    # integral preemptive optimum: heavier job first => 2*1 + 1*2 = 4
    assert sol.objective == pytest.approx(4.0, abs=1e-6)


def test_chain_lp_below_interval_lp():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        inst = make(
            rng.integers(1, 6, size=(n, m)), rng.integers(0, 8, size=n), rng.uniform(1, 5, n)
        )
        lp_i = solve_interval_lp(inst).objective
        lp_c = solve_chain_lp(inst).objective
        assert lp_c <= lp_i + 1e-6


def test_chain_lp_below_preemptive_optimum():
    rng = np.random.default_rng(2)
    for _ in range(6):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        inst = make(
            rng.integers(1, 5, size=(n, m)), rng.integers(0, 6, size=n), rng.uniform(1, 5, n)
        )
        sol = solve_chain_lp(inst)
        opt, _ = brute_force_preemptive(inst)
        assert sol.objective <= opt + 1e-6


def test_duals_respect_chain_constraints():
    # eta_j - sum_{t in A} xi_{i,t} <= w_j C_A for every chain of the support
    rng = np.random.default_rng(5)
    inst = make(rng.integers(1, 5, size=(4, 2)), rng.integers(0, 6, size=4), rng.uniform(1, 5, 4))
    sol = solve_chain_lp(inst)
    for chain, _ in sol.chains:
        xi_sum = sum(sol.xi.get((chain.machine, t), 0.0) for t in chain.slots)
        lhs = sol.eta[chain.job] - xi_sum
        assert lhs <= inst.weights[chain.job] * chain.completion + 1e-6


def test_posthoc_pricing_certificate():
    rng = np.random.default_rng(8)
    inst = make(rng.integers(1, 5, size=(4, 2)), rng.integers(0, 6, size=4), rng.uniform(1, 5, 4))
    sol = solve_chain_lp(inst)
    H = sol.horizon
    rel = inst.release_matrix()
    xi_rows = np.zeros((inst.num_machines, H))
    for (i, t), v in sol.xi.items():
        xi_rows[i, t - 1] = v
    for j in range(inst.num_jobs):
        for i in range(inst.num_machines):
            if not inst.allowed(j, i):
                continue
            _, rc = price_chain(
                i, j, xi_rows[i], float(sol.eta[j]), float(inst.weights[j]),
                inst.size(j, i), int(rel[j, i]), H,
            )
            assert rc >= -1e-6


def _instance_9005():
    rng = np.random.default_rng(9005)
    n, m = rng.integers(5, 7), rng.integers(2, 4)
    return random_instance(rng, n, m)


def _cheapest_chain_costs(inst, slot_price, charge, horizon):
    """Per job, min over chains of w * charge(last slot) + the slot prices:
    for each last slot C, C's price plus the p - 1 cheapest earlier slots."""
    rel = inst.release_matrix()
    mu = np.full(inst.num_jobs, np.inf)
    for j in range(inst.num_jobs):
        for i in range(inst.num_machines):
            if not inst.allowed(j, i):
                continue
            r, p = int(rel[j, i]), inst.size(j, i)
            prices = np.array([slot_price(i, t) for t in range(1, horizon + 1)])
            for C in range(r + p, horizon + 1):
                earlier = np.sort(prices[r : C - 1])[: p - 1].sum()
                cost = inst.weights[j] * charge(C) + prices[C - 1] + earlier
                mu[j] = min(mu[j], cost)
    return mu


def test_returned_duals_certify_the_gap_bound():
    inst = _instance_9005()
    sol = solve_chain_lp(inst)
    mu = _cheapest_chain_costs(inst, lambda i, t: sol.xi.get((i, t), 0.0), lambda C: C, sol.horizon)
    # Every chain prices non-negative under (eta, xi) ...
    assert (mu - sol.eta >= -1e-6).all()
    # ... and the Lagrangian bound from xi proves what gap_bound claims.
    bound = mu.sum() - sum(sol.xi.values())
    scale = 1e-9 * (1.0 + abs(sol.objective))
    assert bound >= sol.objective - sol.gap_bound - scale
    assert bound <= sol.objective + scale
    assert 0.0 <= sol.gap_bound <= GAP_REL_TOL * (1.0 + abs(sol.objective))


@pytest.mark.parametrize("eps", [None, 0.5])
def test_open_gap_without_a_new_chain_raises(monkeypatch, eps):
    # No chain prices below -1e3, so the first round's smoothed and raw
    # pricing passes both add nothing while the gap is open.
    monkeypatch.setattr(chain_lp, "PRICE_TOL", 1e3)
    inst = _instance_9005()
    with pytest.raises(ChainLpError, match=r"gap certificate \S+ still open"):
        solve_chain_lp(inst) if eps is None else solve_chain_lp_compressed(inst, eps)


@pytest.mark.parametrize("seed", range(4))
def test_lp_optima_scale_with_the_weights(seed):
    # Both LPs' optima are linear in the weights; absolute tolerances must
    # not make them depend on the weights' scale.
    inst = random_instance(np.random.default_rng(seed), 8, 2)
    solves = (
        solve_interval_lp,
        lambda x: solve_interval_lp(x, 0.5),
        solve_chain_lp,
        lambda x: solve_chain_lp_compressed(x, 0.5),
    )
    for solve in solves:
        base = solve(inst).objective
        for scale in (1e-10, 1e-8, 1e8, 1e10):
            scaled = solve(replace(inst, weights=inst.weights * scale))
            assert scaled.objective / scale == pytest.approx(base, rel=1e-12)


def test_compressed_gap_bound_from_final_pricing():
    inst = _instance_9005()
    sol = solve_chain_lp_compressed(inst, 0.5)
    ends = sol.blocks
    length = dict(zip(ends.tolist(), np.diff(ends, prepend=0).tolist()))

    def end(t):
        return int(ends[np.searchsorted(ends, t, side="left")])

    mu = _cheapest_chain_costs(inst, lambda i, t: sol.xi.get((i, end(t)), 0.0), end, sol.horizon)
    bound = mu.sum() - sum(length[e] * v for (_, e), v in sol.xi.items())
    scale = 1e-9 * (1.0 + abs(sol.objective))
    assert 0.0 <= sol.gap_bound <= GAP_REL_TOL * (1.0 + abs(sol.objective))
    assert sol.objective - bound <= sol.gap_bound + scale
    assert bound <= sol.objective + scale


def test_masters_warm_start_across_rounds_and_purges(monkeypatch):
    calls, purges = [], []
    solve_lp = chain_lp.solve_lp
    purge = chain_lp._Master.purge

    def recording_solve_lp(lp, basis=None):
        res = solve_lp(lp, basis)
        calls.append((lp, lp.num_vars, basis is not None, res.warm))
        return res

    def recording_purge(master, keep):
        purges.append(len(calls))  # the next master is rebuilt
        purge(master, keep)

    monkeypatch.setattr(chain_lp, "solve_lp", recording_solve_lp)
    monkeypatch.setattr(chain_lp._Master, "purge", recording_purge)
    monkeypatch.setattr(chain_lp, "PURGE_ABOVE", 40)  # purge on a small instance
    inst = random_instance(np.random.default_rng(0), 8, 2, p_max=8, r_max=12)
    sol = solve_chain_lp(inst)
    exact = calls[:]
    comp = solve_chain_lp_compressed(inst, 0.5)
    assert len(exact) == sol.iterations > 3 and len(calls) == sol.iterations + comp.iterations
    sizes = [size for _, size, _, _ in exact]
    assert any(b < a for a, b in zip(sizes, sizes[1:])), "no purge happened"
    # Each solve keeps one live master LP, which only a purge rebuilds.
    # Every master but each solve's first starts warm: it resumes the
    # previous optimum, or after a purge is given the previous basis.
    rebuilt = [k in purges for k in range(len(calls))]
    new_lp = [k in (0, len(exact)) or rebuilt[k] for k in range(len(calls))]
    assert [lp is not calls[k - 1][0] for k, (lp, _, _, _) in enumerate(calls)] == new_lp
    assert [given for _, _, given, _ in calls] == rebuilt
    assert [warm for _, _, _, warm in calls] == [k not in (0, len(exact)) for k in range(len(calls))]


def test_solution_chains_are_valid():
    rng = np.random.default_rng(9)
    inst = make(rng.integers(1, 5, size=(5, 2)), rng.integers(0, 7, size=5), rng.uniform(1, 5, 5))
    sol = solve_chain_lp(inst)
    validate_chain_solution(inst, sol)
    rel = inst.release_matrix()
    for chain, z in sol.chains:
        assert z > 0
        chain.validate(int(rel[chain.job, chain.machine]), sol.horizon, inst.size(chain.job, chain.machine))


def test_compressed_timeline_endpoints():
    inst = make([[20]], [0], [1.0])
    tl = build_compressed_timeline(inst, 1.0)
    ends = tl.ends.tolist()
    for v in (1, 2, 4, 8, 16):
        assert v in ends
    assert ends[-1] == horizon(inst)
    with pytest.raises(ValueError):
        build_compressed_timeline(inst, 0.0)


def test_compressed_unit_prefix_matches_exact():
    # horizon at most 1/eps with zero releases: every block has length 1
    inst = make([[1], [1]], [0, 0], [2.0, 1.0])  # T = 2 = 1/eps
    tl = build_compressed_timeline(inst, 0.5)
    assert tl.lengths.tolist() == [1] * horizon(inst)
    exact = solve_chain_lp(inst).objective
    comp = solve_chain_lp_compressed(inst, 0.5).objective
    assert comp == pytest.approx(exact, abs=1e-6)


def test_compressed_objective_sandwich():
    rng = np.random.default_rng(3)
    for _ in range(6):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        inst = make(
            rng.integers(1, 7, size=(n, m)), rng.integers(0, 9, size=n), rng.uniform(1, 5, n)
        )
        eps = float(rng.choice([0.25, 0.5]))
        exact = solve_chain_lp(inst).objective
        comp = solve_chain_lp_compressed(inst, eps).objective
        assert exact - 1e-6 <= comp <= (1 + eps) * exact + 1e-6


def test_chain_dataclass_guards():
    c = earliest_chain(0, 0, release=2, size=3)
    assert c.slots == (3, 4, 5)
    c.validate(release=2, horizon=10, size=3)
    with pytest.raises(ValueError):
        Chain(machine=0, job=0, slots=(3, 3, 4)).validate(0, 10, 3)
    with pytest.raises(ValueError):
        Chain(machine=0, job=0, slots=(1, 2)).validate(1, 10, 2)


def _fresh_master(inst, ends, columns):
    """The master built from nothing: job rows, then one capacity row per
    (machine, block) in key order, as {key: {column: coefficient}}, with
    each row's right-hand side and each column's cost."""
    rows = {("job", j): {} for j in range(inst.num_jobs)}
    capacity = {}
    for k, c in enumerate(columns):
        rows[("job", c.job)][k] = 1.0
        for t in c.slots:
            key = (c.machine, int(np.searchsorted(ends, t, side="left")))
            capacity.setdefault(key, {})
            capacity[key][k] = capacity[key].get(k, 0.0) + 1.0
    rows.update(sorted(capacity.items()))
    lengths = np.diff(ends, prepend=0)
    rhs = [1.0 if key[0] == "job" else float(lengths[key[1]]) for key in rows]
    costs = [inst.weights[c.job] * ends[np.searchsorted(ends, c.completion, side="left")] for c in columns]
    return rows, rhs, costs


def test_incremental_master_matches_fresh_build(monkeypatch):
    checked = []
    solve = chain_lp._Master.solve

    def checking_solve(master):
        lp, keys = master.lp, master.keys
        n, K = master.inst.num_jobs, master.ends.size
        rows, rhs, costs = _fresh_master(master.inst, master.ends, master.columns)
        want_rhs = dict(zip(rows, rhs))
        decoded = [("job", int(k)) if k < n else (int(k - n) // K, int(k - n) % K) for k in keys]
        # The live LP appends rows as columns open them: the same rows as a
        # fresh build, possibly in another order.
        assert len(decoded) == len(set(decoded)) == lp.num_rows and set(decoded) == set(rows)
        for (idx, val, sense, b), key in zip(lp.rows, decoded):
            assert dict(zip(idx.tolist(), val.tolist())) == rows[key]
            assert idx.tolist() == sorted(rows[key])
            assert sense == (">=" if key[0] == "job" else "<=") and b == want_rhs[key]
        assert lp.objective.tolist() == costs
        fresh = LinearProgram(num_vars=len(costs), objective=np.array(costs))
        for key, b in zip(rows, rhs):
            fresh.add_row(list(rows[key]), list(rows[key].values()), ">=" if key[0] == "job" else "<=", b)
        res = solve(master)
        assert res[0].objective == pytest.approx(solve_lp(fresh).objective, rel=1e-9, abs=1e-9)
        checked.append(len(master.columns))
        return res

    monkeypatch.setattr(chain_lp._Master, "solve", checking_solve)
    monkeypatch.setattr(chain_lp, "PURGE_ABOVE", 40)  # purge on a small instance
    inst = random_instance(np.random.default_rng(0), 8, 2, p_max=8, r_max=12)
    sol = solve_chain_lp(inst)
    assert len(checked) == sol.iterations > 3
    assert any(b < a for a, b in zip(checked, checked[1:])), "no purge happened"
    comp = solve_chain_lp_compressed(inst, 0.5)
    assert len(checked) == sol.iterations + comp.iterations


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "chain-cg"


def _block_counts(chain, ends):
    return chain.job, chain.machine, tuple(np.bincount(np.searchsorted(ends, chain.slots), minlength=ends.size))


def test_master_columns_differ_in_block_counts(monkeypatch):
    # The greedy base chains take the earliest free slots; every column
    # enters in the earliest-slots-per-block form, so a priced chain with
    # the same slot counts per block is never a second column.
    masters = []
    solve = chain_lp._Master.solve

    def checking_solve(master):
        counts = [_block_counts(c, master.ends) for c in master.columns]
        assert len(counts) == len(set(counts))
        masters.append(len(counts))
        return solve(master)

    monkeypatch.setattr(chain_lp._Master, "solve", checking_solve)
    for seed in (9006, 9007):
        sol = solve_chain_lp_compressed(random_instance(np.random.default_rng(seed), 6, 2), 0.5)
        assert len(masters) == sol.iterations
        masters.clear()
    sol = solve_chain_lp_compressed(load_instance(CORPUS / "chain-0002.inst.json"), 0.2)
    assert len(masters) == sol.iterations and masters[-1] > 100


def _largest_master(monkeypatch, inst):
    rows = []
    solve = chain_lp._Master.solve

    def recording_solve(master):
        rows.append(master.lp.num_rows)
        return solve(master)

    monkeypatch.setattr(chain_lp._Master, "solve", recording_solve)
    sol = solve_chain_lp(inst)
    monkeypatch.setattr(chain_lp._Master, "solve", solve)
    return sol, max(rows)


def test_master_size_guard(monkeypatch):
    inst = _instance_9005()
    sol, rows = _largest_master(monkeypatch, inst)
    # The limit is inclusive: the largest master's inverse fits exactly.
    monkeypatch.setattr(chain_lp, "MAX_BASIS_INVERSE_BYTES", 8 * rows * rows)
    assert solve_chain_lp(inst).objective == sol.objective
    monkeypatch.setattr(chain_lp, "MAX_BASIS_INVERSE_BYTES", 8 * rows * rows - 1)
    with pytest.raises(ChainLpError, match=f"too large: {rows} rows"):
        solve_chain_lp(inst)
    # The compressed master has fewer rows, and the guard covers it too.
    assert solve_chain_lp_compressed(inst, 0.5).objective >= sol.objective - 1e-6
    monkeypatch.setattr(chain_lp, "MAX_BASIS_INVERSE_BYTES", 8 * inst.num_jobs**2)
    with pytest.raises(ChainLpError, match="too large"):
        solve_chain_lp_compressed(inst, 0.5)
