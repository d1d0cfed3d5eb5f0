import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import alphasched.chain_lp as chain_lp
import alphasched.simplex as simplex
from alphasched.bench import random_instance
from alphasched.chain_lp import (
    GAP_REL_TOL,
    ChainLpError,
    build_compressed_timeline,
    solve_chain_lp,
    solve_chain_lp_compressed,
    validate_chain_solution,
)
from alphasched.chains import Chain
from alphasched.instance import Instance, horizon, load_instance, normalize_weights
from alphasched.interval_lp import IntervalLpError, _pairs, list_schedule, solve_interval_lp
from alphasched.oracle import brute_force_preemptive
from alphasched.simplex import LpError, solve_lp
from chain_reference import enumerate_chains, price_chain
from lp_rows import lp_from_rows


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


def test_masters_resume_across_rounds(monkeypatch):
    calls = []
    solve_lp = chain_lp.solve_lp

    def recording_solve_lp(lp, start=None):
        res = solve_lp(lp, start)
        calls.append((lp, lp.num_vars, start is not None))
        return res

    monkeypatch.setattr(chain_lp, "solve_lp", recording_solve_lp)
    inst = random_instance(np.random.default_rng(0), 8, 2, p_max=8, r_max=12)
    sol = solve_chain_lp(inst)
    exact = calls[:]
    comp = solve_chain_lp_compressed(inst, 0.5)
    assert len(exact) == sol.iterations > 3 and len(calls) == sol.iterations + comp.iterations
    # Each solve keeps one live master LP, which only grows.  Each solve's
    # first master is given a start and the later ones none: they resume
    # the previous optimum.
    first = [k in (0, len(exact)) for k in range(len(calls))]
    assert [lp is not calls[k - 1][0] for k, (lp, _, _) in enumerate(calls)] == first
    assert all(b >= a for (_, a, _), (_, b, _), new in zip(calls, calls[1:], first[1:]) if not new)
    assert [given for _, _, given in calls] == first


def test_stats_sum_the_master_solves(monkeypatch):
    masters, lps = [], []
    solve_lp = chain_lp.solve_lp

    def recording_solve_lp(lp, start=None):
        masters.append(solve_lp(lp, start))
        lps.append(lp)
        return masters[-1]

    monkeypatch.setattr(chain_lp, "solve_lp", recording_solve_lp)
    inst = random_instance(np.random.default_rng(0), 8, 2, p_max=8, r_max=12)
    sol = solve_chain_lp(inst)
    assert len(masters) == sol.iterations
    summed = {key: sum(res.stats[key] for res in masters) for key in simplex.STATS}
    # The seed counters: the start-time LP's chains that neither the list
    # schedule nor the earliest chains hold, and that LP's own pivots, which
    # ``pivots`` leaves out.  In unit blocks every such chain is contiguous.
    start = solve_interval_lp(inst)

    def contiguous(i, j, s):
        return Chain(i, j, range(s + 1, s + inst.size(j, i) + 1))

    machine, first = list_schedule(inst)
    held = set(map(contiguous, machine, range(inst.num_jobs), first))
    jobs, machines, _, releases = _pairs(inst)
    held.update(map(contiguous, machines, jobs, releases))
    seeded = set(map(contiguous, start.machine, start.job, start.start))
    seed = {"seed_columns": len(seeded - held), "seed_pivots": start.stats["pivots"]}
    # The last master's shift columns are its zero-cost columns (a chain
    # costs w_j C > 0) and its chains the others; its chains already meet
    # every slot's capacity, so the recovery moves nothing.
    shifts = int((lps[-1].objective == 0.0).sum())
    last = {"columns": lps[-1].num_vars - shifts, "shift_columns": shifts, "recovery_moves": 0}
    assert sol.stats == {**summed, "rounds": sol.iterations, **seed, **last}
    assert sol.stats["pivots"] == sum(res.iterations for res in masters) > 0
    assert min(seed.values()) > 0


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
    c = Chain(0, 0, range(2 + 1, 2 + 3 + 1))  # release 2, size 3
    assert c.slots == (3, 4, 5)
    c.validate(release=2, horizon=10, size=3)
    with pytest.raises(ValueError):
        Chain(machine=0, job=0, slots=(3, 3, 4)).validate(0, 10, 3)
    with pytest.raises(ValueError):
        Chain(machine=0, job=0, slots=(1, 2)).validate(1, 10, 2)


def _shift_pairs(inst, ends, blocks):
    """The consecutive blocks (i, k), (i, k + 1) that both appear in
    ``blocks``, a set of (machine, block), where block k starts at or after
    the latest release of a job allowed on machine i."""
    rel = inst.release_matrix()
    latest = [max(int(rel[j, i]) for j in range(inst.num_jobs) if inst.allowed(j, i)) for i in range(inst.num_machines)]
    start = np.concatenate(([0], ends[:-1]))
    return sorted((i, k) for i, k in blocks if (i, k + 1) in blocks and start[k] >= latest[i])


def _fresh_master(inst, ends, columns):
    """The master built from nothing: job rows, then one capacity row per
    (machine, block) in key order, as {key: {column: coefficient}}, with
    each row's right-hand side and each column's cost.  The chains are
    columns 0, 1, ..., and the shift columns of ``_shift_pairs`` follow,
    +1 in the earlier block's row and -1 in the later one's; the pairs are
    returned too."""
    rows = {("job", j): {} for j in range(inst.num_jobs)}
    capacity = {}
    for k, c in enumerate(columns):
        rows[("job", c.job)][k] = 1.0
        for t in c.slots:
            key = (c.machine, int(np.searchsorted(ends, t, side="left")))
            capacity.setdefault(key, {})
            capacity[key][k] = capacity[key].get(k, 0.0) + 1.0
    pairs = _shift_pairs(inst, ends, set(capacity))
    for k, (i, b) in enumerate(pairs, start=len(columns)):
        capacity[i, b][k], capacity[i, b + 1][k] = 1.0, -1.0
    rows.update(sorted(capacity.items()))
    lengths = np.diff(ends, prepend=0)
    rhs = [1.0 if key[0] == "job" else float(lengths[key[1]]) for key in rows]
    costs = [inst.weights[c.job] * ends[np.searchsorted(ends, c.completion, side="left")] for c in columns]
    return rows, rhs, costs + [0.0] * len(pairs), pairs


def test_incremental_master_matches_fresh_build(monkeypatch):
    checked = []
    solve = chain_lp._Master.solve

    def checking_solve(master, start=None):
        lp, keys = master.lp, master.keys
        n, K = master.inst.num_jobs, master.ends.size
        rows, rhs, costs, pairs = _fresh_master(master.inst, master.ends, master.columns)
        decoded = [("job", int(k)) if k < n else (int(k - n) // K, int(k - n) % K) for k in keys]
        # The live LP numbers the chains and the shift columns as they were
        # appended; a shift column's pair is the row of its +1 entry.
        shift = set(master.shift_col.tolist())
        earlier = {k: key for (idx, val, _, _), key in zip(lp.rows, decoded)
                   for k, v in zip(idx.tolist(), val.tolist()) if k in shift and v == 1.0}
        shifts = [earlier[k] for k in master.shift_col.tolist()]
        assert sorted(shifts) == pairs
        col = np.empty(len(costs), dtype=np.int64)
        col[: len(master.columns)] = master.chain_col
        col[[len(master.columns) + pairs.index(pair) for pair in shifts]] = master.shift_col
        assert sorted(col.tolist()) == list(range(lp.num_vars))
        rows = {key: {int(col[k]): v for k, v in row.items()} for key, row in rows.items()}
        costs = np.array(costs)[np.argsort(col)].tolist()
        want_rhs = dict(zip(rows, rhs))
        # The live LP appends rows as columns open them: the same rows as a
        # fresh build, possibly in another order.
        assert len(decoded) == len(set(decoded)) == lp.num_rows and set(decoded) == set(rows)
        for (idx, val, sense, b), key in zip(lp.rows, decoded):
            assert dict(zip(idx.tolist(), val.tolist())) == rows[key]
            assert idx.tolist() == sorted(rows[key])
            assert sense == (">=" if key[0] == "job" else "<=") and b == want_rhs[key]
        assert lp.objective.tolist() == costs
        fresh = lp_from_rows(costs, [(list(rows[key]), list(rows[key].values()), ">=" if key[0] == "job" else "<=", b)
                                     for key, b in zip(rows, rhs)])
        res = solve(master, start)
        # The list schedule's chains, columns 0..n-1, start the fresh build
        # as they start the run's first master.
        assert res[0].objective == pytest.approx(solve_lp(fresh, np.arange(n)).objective, rel=1e-9, abs=1e-9)
        checked.append((len(master.columns), len(pairs)))
        return res

    monkeypatch.setattr(chain_lp._Master, "solve", checking_solve)
    inst = random_instance(np.random.default_rng(0), 8, 2, p_max=8, r_max=12)
    sol = solve_chain_lp(inst)
    assert len(checked) == sol.iterations > 3
    assert checked[-1] == (sol.stats["columns"], sol.stats["shift_columns"]) and min(checked[-1]) > 0
    comp = solve_chain_lp_compressed(inst, 0.5)
    assert len(checked) == sol.iterations + comp.iterations
    assert checked[-1] == (comp.stats["columns"], comp.stats["shift_columns"]) and min(checked[-1]) > 0


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "chain-cg"
LADDER_BEFORE_SHIFTS = Path(__file__).resolve().parents[1] / "BENCH_pr29-ladder.jsonl"


def test_recovery_repairs_an_overloaded_final_master():
    # The ladder's (8, 2) s = 11.  Its final master's chains meet only the
    # prefix capacities that the shift columns leave, and overload a slot;
    # the recovery pass moves slots into earlier free ones.  The objective
    # is the one the ladder recorded before the master had shift columns.
    inst = random_instance(np.random.default_rng(8011), 8, 2, p_max=40, r_max=40)
    lines = map(json.loads, LADDER_BEFORE_SHIFTS.read_text(encoding="utf-8").splitlines())
    want = next(float.fromhex(d["objective"]) for d in lines if (d["n"], d["m"], d["s"]) == (8, 2, 11))
    sol = solve_chain_lp(inst)
    assert sol.objective == pytest.approx(want, rel=1e-9, abs=0.0)
    validate_chain_solution(inst, sol)
    assert sol.stats["recovery_moves"] > 0


def _block_counts(chain, ends):
    return chain.job, chain.machine, tuple(np.bincount(np.searchsorted(ends, chain.slots), minlength=ends.size))


def test_master_columns_differ_in_block_counts(monkeypatch):
    # Every column, the list schedule's included, enters in the
    # earliest-slots-per-block form, so a priced chain with the same slot
    # counts per block is never a second column.
    masters = []
    solve = chain_lp._Master.solve

    def checking_solve(master, start=None):
        counts = [_block_counts(c, master.ends) for c in master.columns]
        assert len(counts) == len(set(counts))
        # The LP's other columns are the shift columns, which no chain is.
        assert master.lp.num_vars == len(counts) + master.shift_col.size
        assert (master.lp.objective[master.chain_col] > 0).all() and not master.lp.objective[master.shift_col].any()
        masters.append(len(counts))
        return solve(master, start)

    monkeypatch.setattr(chain_lp._Master, "solve", checking_solve)
    for seed in (9006, 9007):
        sol = solve_chain_lp_compressed(random_instance(np.random.default_rng(seed), 6, 2), 0.5)
        assert len(masters) == sol.iterations
        masters.clear()
    sol = solve_chain_lp_compressed(load_instance(CORPUS / "chain-0002.inst.json"), 0.2)
    assert len(masters) == sol.iterations and masters[-1] > 40


def test_master_appends_each_new_chain_once():
    # Job 0 has size 2 and release 0 on the one machine; job 1 is released
    # at 10, so no shift column opens before slot 11.  Duals 10 at slots 3
    # and 6 put the pricer's valleys at completions 2, 4 and 7.  The master
    # holds the first and the last chain found; given them again, with a
    # new chain twice and the middle one twice, it appends the new ones
    # once each, in order, and says which it appended.
    inst = make([[2], [2]], [0, 10], [1.0, 1.0])
    ends = np.arange(1, 21)
    master = chain_lp._Master(inst, ends)
    xi = np.zeros((1, ends.size))
    xi[0, [2, 5]] = 10.0
    found, _, _ = chain_lp.price_chain_multi(xi, [0], [0], [100.0], [1.0], [2], [0], ends)
    first, middle, last = (chain for chain, _ in found)
    assert [c.slots for c in (first, middle, last)] == [(1, 2), (1, 4), (1, 7)]
    assert master.add([first, last]) == [True, True]
    num_vars = master.lp.num_vars
    other = Chain(0, 0, (4, 5))
    assert master.add([middle, last, other, middle, other, first]) == [True, False, True, False, False, False]
    assert list(master.columns) == [first, last, middle, other]
    assert master.lp.num_vars == num_vars + 2 and not master.shift_col.size
    assert master.chain_col.tolist() == [0, 1, 2, 3]
    assert master.lp.objective.tolist() == [2.0, 7.0, 4.0, 5.0]
    assert master.add([last, first]) == [False, False] and master.lp.num_vars == num_vars + 2


def test_first_master_opens_with_the_list_schedule(monkeypatch):
    # The first master's first n chains are the list schedule's, job by job:
    # job j's slots s_j + 1, ..., s_j + p on its machine, each block's share
    # moved to the block's earliest slots after the release.  They load no
    # block past its length, so with every capacity row's slack they are a
    # feasible basis, which the first master solve starts from: no phase 1.
    # Later masters are given no start and resume.
    inst = load_instance(CORPUS / "chain-0002.inst.json")
    n, rel = inst.num_jobs, inst.release_matrix()
    machine, start = list_schedule(inst)
    added, solves = [], []
    add, solve_lp = chain_lp._Master.add, chain_lp.solve_lp

    def recording_add(master, chains):
        added.append((master.ends, chains))
        return add(master, chains)

    def recording_solve_lp(lp, start=None):
        solves.append((start, solve_lp(lp, start)))
        return solves[-1][1]

    monkeypatch.setattr(chain_lp._Master, "add", recording_add)
    monkeypatch.setattr(chain_lp, "solve_lp", recording_solve_lp)
    for solve in (solve_chain_lp, lambda inst: solve_chain_lp_compressed(inst, 0.2)):
        added.clear()
        solves.clear()
        sol = solve(inst)
        ends, chains = added[0]
        lengths = np.diff(ends, prepend=0)
        assert [(c.machine, c.job) for c in chains[:n]] == list(zip(machine.tolist(), range(n)))
        load = np.zeros((inst.num_machines, ends.size), dtype=np.int64)
        for c, s in zip(chains[:n], start.tolist()):
            slots = np.arange(s + 1, s + inst.size(c.job, c.machine) + 1)
            count = np.bincount(np.searchsorted(ends, slots), minlength=ends.size)
            first = np.maximum(ends - lengths, rel[c.job, c.machine]) + 1
            assert c.slots == tuple(t for k in np.flatnonzero(count) for t in range(first[k], first[k] + count[k]))
            load[c.machine] += count
        assert (load <= lengths).all()
        # The opening appends its chains first, so they are columns 0..n-1.
        assert len(solves) == sol.iterations > 1
        assert solves[0][0].tolist() == list(range(n))
        assert all(given is None for given, _ in solves[1:])
    assert ends.size < ends[-1]  # the compressed solve's blocks are not all unit ones


def _largest_master(monkeypatch, inst):
    rows = []
    solve = chain_lp._Master.solve

    def recording_solve(master, start=None):
        rows.append(master.lp.num_rows)
        return solve(master, start)

    monkeypatch.setattr(chain_lp._Master, "solve", recording_solve)
    sol = solve_chain_lp(inst)
    monkeypatch.setattr(chain_lp._Master, "solve", solve)
    return sol, max(rows)


def test_master_size_guard(monkeypatch):
    inst = _instance_9005()
    sol, rows = _largest_master(monkeypatch, inst)
    # The limit is inclusive: the largest master's inverse fits exactly.
    # The start-time LP has more rows than that master and is refused at
    # this budget, so this solve runs unseeded, on another pivot path to
    # the same optimum.
    monkeypatch.setattr(simplex, "MAX_BASIS_INVERSE_BYTES", 8 * rows * rows)
    unseeded = solve_chain_lp(inst)
    assert unseeded.stats["seed_columns"] == 0
    assert unseeded.objective == pytest.approx(sol.objective, rel=1e-9, abs=0.0)
    monkeypatch.setattr(simplex, "MAX_BASIS_INVERSE_BYTES", 8 * rows * rows - 1)
    with pytest.raises(LpError, match=f"too large: {rows} rows"):
        solve_chain_lp(inst)
    # The compressed master has fewer rows, and the guard covers it too.
    assert solve_chain_lp_compressed(inst, 0.5).objective >= sol.objective - 1e-6
    monkeypatch.setattr(simplex, "MAX_BASIS_INVERSE_BYTES", 8 * inst.num_jobs**2)
    with pytest.raises(LpError, match="too large"):
        solve_chain_lp_compressed(inst, 0.5)


def _master_objectives(monkeypatch, inst):
    """Record each master solve's objective, on the instance's own weights."""
    objectives, shift = [], normalize_weights(inst)[1]
    solve = chain_lp._Master.solve

    def recording_solve(master, start=None):
        res = solve(master, start)
        objectives.append(float(np.ldexp(res[0].objective, -shift)))
        return res

    monkeypatch.setattr(chain_lp._Master, "solve", recording_solve)
    return objectives


def test_seeded_master_opens_at_or_below_the_start_time_lp(monkeypatch):
    # frac-0039's start-time LP optimum is fractional, and the chain LP's
    # lies 2% below it.  The start-time LP's support, as contiguous chains,
    # is a feasible solution of the first master, so column generation
    # opens at or below that LP's objective.
    inst = load_instance(CORPUS.parent / "np-round" / "frac-0039.inst.json")
    start = solve_interval_lp(inst)
    assert ((start.value > 1e-6) & (start.value < 1.0 - 1e-6)).any()
    masters = _master_objectives(monkeypatch, inst)
    sol = solve_chain_lp(inst)
    assert masters[0] <= start.objective * (1.0 + 1e-12)
    assert sol.stats["seed_columns"] > 0 and sol.stats["seed_pivots"] == start.stats["pivots"] > 0


def test_refused_start_time_lp_skips_the_seed(monkeypatch):
    # Refused for its size, the start-time LP seeds nothing: the master
    # starts from the list schedule's and the earliest chains alone, well
    # above that LP's objective, and column generation reaches the same
    # optimum.
    inst = load_instance(CORPUS / "chain-0015.inst.json")
    seeded, start = solve_chain_lp(inst), solve_interval_lp(inst)

    def refused(inst):
        raise LpError("linear program too large")

    monkeypatch.setattr(chain_lp, "solve_interval_lp", refused)
    masters = _master_objectives(monkeypatch, inst)
    sol = solve_chain_lp(inst)
    assert sol.objective == pytest.approx(seeded.objective, rel=1e-9, abs=0.0)
    assert sol.stats["seed_columns"] == sol.stats["seed_pivots"] == 0
    assert masters[0] > 1.1 * start.objective and sol.iterations > seeded.iterations

    # Any other failure of the start-time LP is the solve's.
    def failed(inst):
        raise IntervalLpError("interval LP is infeasible")

    monkeypatch.setattr(chain_lp, "solve_interval_lp", failed)
    with pytest.raises(IntervalLpError):
        solve_chain_lp(inst)


def test_compressed_solves_take_no_seed():
    # The compressed master starts from the list schedule's and the
    # earliest chains alone, and its pivot path is pinned: 14 rounds and 81
    # pivots.
    sol = solve_chain_lp_compressed(load_instance(CORPUS / "chain-0002.inst.json"), 0.2)
    assert sol.stats["seed_columns"] == sol.stats["seed_pivots"] == 0
    assert (sol.stats["rounds"], sol.stats["pivots"]) == (14, 81)


def test_resumed_masters_perturb_at_their_first_stall(monkeypatch):
    # A degenerate ladder instance, (8, 2) s = 10.  Its masters after the
    # first resume the previous optimum, and a resume perturbs as any solve
    # does, at its first pivot that does not lower the objective.  When
    # resumes waited for 3 m + 50 such pivots, this solve never perturbed.
    masters = []
    solve_lp = chain_lp.solve_lp

    def recording_solve_lp(lp, start=None):
        masters.append(solve_lp(lp, start))
        return masters[-1]

    monkeypatch.setattr(chain_lp, "solve_lp", recording_solve_lp)
    sol = solve_chain_lp(random_instance(np.random.default_rng(8010), 8, 2, p_max=40, r_max=40))
    assert sol.stats["perturbations"] > 0
    assert sum(res.stats["perturbations"] for res in masters[1:]) > 0


def _smoothing_by_round(monkeypatch, inst, solve):
    """Solve ``inst`` with spies on the master solves and the pricer, and
    replay the run: the stability center moves to a pass's duals when its
    Lagrangian bound beats the best so far, and alpha starts at 0.5 and
    after each round's first pass falls by 0.1 (not below 0) when the
    pricer's subgradient load - lengths points from that pass's duals
    toward the raw ones, else rises by a tenth of 1 - alpha (at most 0.99).
    Each pass must price at the duals the replay predicts: the round's
    alpha for its first pass, the raw duals for a second.  Returns [alpha,
    pricing passes] per round."""
    events = []
    solve_master, price = chain_lp._Master.solve, chain_lp.price_chain_multi

    def recording_solve(master, start=None):
        res = solve_master(master, start)
        events.append((res[1], res[2], master.lengths))
        return res

    def recording_price(xi, machines, jobs, eta, *rest):
        found, best, load = price(xi, machines, jobs, eta, *rest)
        events.append((xi, np.asarray(jobs), np.asarray(eta), best, load))
        return found, best, load

    monkeypatch.setattr(chain_lp._Master, "solve", recording_solve)
    monkeypatch.setattr(chain_lp, "price_chain_multi", recording_price)
    solve(inst)
    monkeypatch.undo()

    rounds, alpha, best_lb, center = [], 0.5, -np.inf, None
    for event in events:
        if len(event) == 3:
            eta, xi, lengths = event
            center = center or (eta, xi)
            rounds.append([alpha, 0])
            continue
        xi_s, jobs, eta_pairs, best, load = event
        a = rounds[-1][0] if rounds[-1][1] == 0 else 0.0
        eta_s = a * center[0] + (1 - a) * eta
        assert np.array_equal(xi_s, a * center[1] + (1 - a) * xi)
        assert np.array_equal(eta_pairs, eta_s[jobs])
        if rounds[-1][1] == 0:
            if ((load - lengths) * (xi - xi_s)).sum() > 0.0:
                alpha = max(alpha - 0.1, 0.0)
            else:
                alpha = min(alpha + 0.1 * (1.0 - alpha), 0.99)
        mu = np.full(inst.num_jobs, np.inf)
        np.minimum.at(mu, jobs, best + eta_pairs)
        lb = mu.sum() - (xi_s * lengths).sum()
        if lb > best_lb:
            best_lb, center = lb, (eta_s, xi_s)
        rounds[-1][1] += 1
    return rounds


def test_smoothing_weight_adapts_every_round(monkeypatch):
    # The corpus's chain-0002 and the ladder's (8, 2) s = 3 and s = 7, all
    # at eps 0.2.  In s = 7 alpha falls to 0 in round 11 of 12: that round
    # prices once, at the raw master duals.
    corpus, ladder, falls = (
        _smoothing_by_round(monkeypatch, inst, lambda inst: solve_chain_lp_compressed(inst, 0.2))
        for inst in (
            load_instance(CORPUS / "chain-0002.inst.json"),
            random_instance(np.random.default_rng(8003), 8, 2, p_max=40, r_max=40),
            random_instance(np.random.default_rng(8007), 8, 2, p_max=40, r_max=40),
        )
    )
    for rounds in (corpus, ladder, falls):
        alpha = np.array([a for a, _ in rounds])
        assert alpha[0] == 0.5 and ((alpha >= 0.0) & (alpha <= 0.99)).all()
        assert (np.diff(alpha) > 0.0).any() and (np.diff(alpha) < 0.0).any()
        assert all(calls == 1 if a == 0.0 else calls in (1, 2) for a, calls in rounds)
    assert (len(corpus), len(ladder), len(falls)) == (14, 7, 12)
    assert [k for k, (a, _) in enumerate(falls) if a == 0.0] == [10]
