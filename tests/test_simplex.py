from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from alphasched import simplex
from alphasched.simplex import LinearProgram, LpError, solve_lp


def test_min_x_geq_one():
    lp = LinearProgram(1, objective=np.array([1.0]))
    lp.add_row([0], [1.0], ">=", 1.0)
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0)
    assert res.objective == pytest.approx(1.0)
    assert res.duals[0] == pytest.approx(1.0)


def test_two_variable_lp():
    lp = LinearProgram(2, objective=np.array([1.0, 1.0]))
    lp.add_row([0, 1], [1.0, 1.0], ">=", 2.0)
    lp.add_row([0], [1.0], "<=", 0.5)
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)


def test_infeasible():
    lp = LinearProgram(1, objective=np.array([1.0]))
    lp.add_row([0], [1.0], "<=", -1.0)
    assert solve_lp(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(2, objective=np.array([-1.0, 0.0]))
    lp.add_row([1], [1.0], "<=", 5.0)
    assert solve_lp(lp).status == "unbounded"


def test_equality_row_and_duality():
    lp = LinearProgram(2, objective=np.array([2.0, 3.0]))
    lp.add_row([0, 1], [1.0, 1.0], "==", 4.0)
    lp.add_row([0], [1.0], "<=", 3.0)
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2 * 3 + 3 * 1)
    # strong duality on the original data
    dual_obj = res.duals[0] * 4.0 + res.duals[1] * 3.0
    assert dual_obj == pytest.approx(res.objective, abs=1e-6)


def test_dimension_errors():
    lp = LinearProgram(2)
    with pytest.raises(LpError):
        lp.add_row([0, 5], [1.0, 1.0], "<=", 1.0)
    with pytest.raises(LpError):
        lp.add_row([0], [1.0], "<>", 1.0)
    with pytest.raises(LpError):
        lp.add_columns([0, 1], [0], [1.0], [1.0, 2.0])


def test_size_budget_counts_rows_and_finite_upper_bounds(monkeypatch):
    # Standard-form rows: the LP's rows plus one per finite upper bound.
    monkeypatch.setattr(simplex, "MAX_BASIS_INVERSE_BYTES", 8 * 3 * 3)
    lp = LinearProgram(1, upper=[1.0])
    lp.add_rows([0, 1, 2], [0, 0], [1.0, 1.0], ["<=", ">="], [2.0, 0.0])
    with pytest.raises(LpError, match="too large: 4 rows"):
        lp.add_columns([0, 0], [], [], [1.0], upper=[5.0])
    with pytest.raises(LpError, match="too large: 4 rows"):
        lp.add_row([0], [1.0], "<=", 1.0)
    assert (lp.num_vars, lp.num_rows) == (1, 2)  # nothing was appended
    lp.add_columns([0, 1, 2], [0, 1], [1.0, 1.0], [1.0, 1.0])  # unbounded: no row
    assert solve_lp(lp).status == "optimal"
    with pytest.raises(LpError, match="too large: 4 rows"):
        LinearProgram(4, upper=np.ones(4))


def test_size_budget_holds_for_bounds_edited_in_place(monkeypatch):
    # Finite upper bounds set in place add standard-form rows that no append
    # saw; the solve refuses them, also when it would resume.
    monkeypatch.setattr(simplex, "MAX_BASIS_INVERSE_BYTES", 8 * 3 * 3)
    lp = LinearProgram(4)
    lp.upper[:] = 1.0
    with pytest.raises(LpError, match="too large: 4 rows"):
        solve_lp(lp)
    lp = LinearProgram(3, objective=[1.0, 2.0, 3.0])
    lp.add_row([0, 1, 2], [1.0, 1.0, 1.0], ">=", 1.5)
    assert solve_lp(lp).objective == pytest.approx(1.5)
    lp.upper[:] = 1.0
    with pytest.raises(LpError, match="too large: 4 rows"):
        solve_lp(lp)
    lp.upper[2] = np.inf
    assert solve_lp(lp).objective == pytest.approx(2.0)


def test_variable_bounds():
    lp = LinearProgram(1, objective=np.array([1.0]), lower=np.array([2.0]))
    res = solve_lp(lp)
    assert res.status == "optimal" and res.x[0] == pytest.approx(2.0)
    lp = LinearProgram(1, objective=np.array([-1.0]), upper=np.array([7.0]))
    res = solve_lp(lp)
    assert res.objective == pytest.approx(-7.0)


MALFORMED_ROWS = [
    ([0, 5], [1.0, 1.0], "<=", 1.0),  # index out of range
    ([-1], [1.0], "<=", 1.0),  # negative index
    ([0], [1.0], "<>", 1.0),  # unknown sense
    ([0], [1.0], None, 1.0),
    ([0, 1], [1.0], "<=", 1.0),  # misaligned
    ([[0, 1]], [[1.0, 1.0]], "<=", 1.0),  # not 1-d
    ([0], [np.nan], ">=", 1.0),  # non-finite coefficient
    ([0], [1.0], ">=", np.inf),  # non-finite rhs
]


@pytest.mark.parametrize("row", MALFORMED_ROWS)
def test_add_rows_rejects_what_add_row_rejects(row):
    idx, val, sense, rhs = row
    lp = LinearProgram(2)
    with pytest.raises(LpError):
        lp.add_row(idx, val, sense, rhs)
    # The same row after a good one, as one block: nothing is appended.
    good_idx = np.concatenate(([0, 1], np.ravel(idx)))
    good_val = np.concatenate(([1.0, 2.0], np.ravel(val)))
    if np.ndim(idx) == 1 and np.size(idx) == np.size(val):
        with pytest.raises(LpError):
            lp.add_rows([0, 2, good_idx.size], good_idx, good_val, ["==", sense], [3.0, rhs])
    with pytest.raises(LpError):
        lp.add_rows([0, np.size(idx)], idx, val, [sense], [rhs])
    assert lp.rows == []


def test_add_rows_block_shape_checks_and_equivalence():
    lp = LinearProgram(3)
    for ptr, senses, rhs in [
        ([1, 2], ["<="], [1.0]),  # does not start at 0
        ([0, 2, 1, 3], ["<="] * 3, [1.0] * 3),  # decreasing
        ([0, 2], ["<="], [1.0]),  # does not end at the entry count
        ([0, 1, 3], ["<="], [1.0, 1.0]),  # a sense short
        ([0, 1, 3], ["<=", ">="], [1.0]),  # a rhs short
    ]:
        with pytest.raises(LpError):
            lp.add_rows(ptr, [0, 1, 2], [1.0, 2.0, 3.0], senses, rhs)
    assert lp.rows == []
    assert lp.add_rows([0, 1, 1, 3], [2, 0, 1], [1.0, 2.0, 3.0], ["<=", "==", ">="], [4, 0, 5]) == range(3)
    one_by_one = LinearProgram(3)
    for idx, val, sense, rhs in [([2], [1.0], "<=", 4), ([], [], "==", 0), ([0, 1], [2.0, 3.0], ">=", 5)]:
        one_by_one.add_row(idx, val, sense, rhs)
    for got, want in zip(lp.rows, one_by_one.rows):
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
        assert got[2:] == want[2:] and type(got[2]) is str and type(got[3]) is float
    assert lp.add_rows([0], [], [], [], []) == range(3, 3)


def test_add_columns_builds_the_same_lp_as_add_rows():
    by_rows = LinearProgram(3, objective=np.array([1.0, 2.0, -1.0]), upper=np.array([np.inf, np.inf, 2.0]))
    by_rows.add_rows([0, 2, 5], [0, 2, 0, 1, 2], [1.0, 1.0, 2.0, 1.0, -1.0], [">=", "<="], [1.0, 6.0])
    by_cols = LinearProgram(0)
    assert by_cols.add_rows([0, 0, 0], [], [], [">=", "<="], [1.0, 6.0]) == range(2)
    assert by_cols.add_columns([0, 2, 3, 5], [0, 1, 1, 0, 1], [1.0, 2.0, 1.0, 1.0, -1.0], [1.0, 2.0, -1.0],
                               upper=[np.inf, np.inf, 2.0]) == range(3)
    for got, want in zip(by_cols.rows, by_rows.rows):
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
        assert got[2:] == want[2:]
    assert by_cols.lower.tolist() == by_rows.lower.tolist() and by_cols.upper.tolist() == by_rows.upper.tolist()
    assert solve_lp(by_cols).objective == pytest.approx(solve_lp(by_rows).objective)
    for bad in [
        ([0, 1], [2], [1.0], [1.0]),  # row out of range
        ([0, 2], [0], [1.0], [1.0]),  # pointers do not end at the entry count
        ([0, 1], [0], [np.nan], [1.0]),  # non-finite coefficient
        ([0, 1], [0], [1.0], [1.0, 2.0]),  # a cost too many
        ([0, 1], [0], [1.0], [np.inf]),  # non-finite cost
    ]:
        with pytest.raises(LpError):
            by_cols.add_columns(*bad)
    with pytest.raises(LpError):
        by_cols.add_columns([0, 1], [0], [1.0], [1.0], lower=[-np.inf])
    assert by_cols.num_vars == 3 and by_cols.objective.size == 3 and len(by_cols.rows[0][0]) == 2


def _lp_with_redundant_equation():
    """x0 >= 0 and an empty row '== 0', solved once: the optimum keeps the
    empty row's artificial basic at zero."""
    lp = LinearProgram(1)
    lp.add_row([0], [1.0], ">=", 0.0)
    lp.add_row([], [], "==", 0.0)
    first = solve_lp(lp)
    assert first.status == "optimal" and first.objective == 0.0
    assert first.basis.columns.size + first.basis.slack_rows.size == 1  # a row short
    return lp


def test_appended_column_on_a_redundant_row_does_not_resume():
    # The new column's entry in the empty row forces x1 = 0; resuming would
    # let x1 grow against the locked artificial and report unbounded.
    lp = _lp_with_redundant_equation()
    lp.add_columns([0, 1], [1], [-1.0], [-1.0])
    res = solve_lp(lp)
    assert res.status == "optimal" and not res.warm
    assert res.objective == pytest.approx(0.0, abs=1e-12)
    assert res.x[1] == pytest.approx(0.0, abs=1e-12)


def test_lower_bound_shift_on_a_redundant_row_does_not_resume(monkeypatch):
    # -x1 + x2 == 0 with x1 >= 1: the shift would set the basic artificial
    # to 1, which only the final certificate catches.  The solve must start
    # cold at once, in its one and only pass, not fail and recover.
    lp = _lp_with_redundant_equation()
    lp.add_columns([0, 1, 2], [1, 1], [-1.0, 1.0], [1.0, 1.0], lower=[1.0, 0.0])
    hints = []
    solve = simplex._solve

    def recording(lp, hint):
        hints.append(hint)
        return solve(lp, hint)

    monkeypatch.setattr(simplex, "_solve", recording)
    res = solve_lp(lp)
    assert hints == [None]
    assert res.status == "optimal" and not res.warm
    assert res.objective == pytest.approx(2.0)
    assert res.x[1:].tolist() == pytest.approx([1.0, 1.0])


def test_appended_row_on_old_variables_starts_cold():
    # min -x0 - 2 x1  s.t.  x0 + x1 <= 4, then x0 + x1 <= 10 appended: the
    # new row has entries on basic variables, so the solve does not resume.
    lp = LinearProgram(2, objective=[-1.0, -2.0])
    lp.add_row([0, 1], [1.0, 1.0], "<=", 4.0)
    first = solve_lp(lp)
    lp.add_row([0, 1], [1.0, 1.0], "<=", 10.0)
    res = solve_lp(lp)
    assert res.status == "optimal" and not res.warm
    assert res.x.tolist() == first.x.tolist() == [0.0, 4.0]
    assert res.objective == first.objective == -8.0


def test_nan_upper_bound_is_refused_when_added():
    # NaN is no "no bound": x <= NaN next to x <= 5 would solve to x = 5.
    with pytest.raises(LpError, match="NaN"):
        LinearProgram(2, objective=[-1.0, -1.0], upper=[np.nan, 5.0])
    lp = LinearProgram(1)
    with pytest.raises(LpError, match="NaN"):
        lp.add_columns([0, 0], [], [], [-1.0], upper=[np.nan])
    assert lp.num_vars == 1


def _lp_solved_once():
    lp = LinearProgram(2, objective=[-1.0, -1.0], upper=[3.0, 5.0])
    lp.add_row([0, 1], [1.0, 1.0], "<=", 6.0)
    assert solve_lp(lp).objective == -6.0
    return lp


@pytest.mark.parametrize(
    "name, value", [("objective", np.nan), ("lower", np.nan), ("lower", -np.inf), ("upper", np.nan)]
)
def test_solve_refuses_costs_and_bounds_edited_out_of_range(name, value):
    # The arrays may be edited in place, so the solve checks them again,
    # also when it would resume.
    lp = _lp_solved_once()
    getattr(lp, name)[0] = value
    with pytest.raises(LpError, match="finite|NaN"):
        solve_lp(lp)


def test_solve_refuses_costs_and_bounds_replaced_by_a_wrong_shape():
    lp = _lp_solved_once()
    lp.lower = np.zeros(3)
    with pytest.raises(LpError, match="shape"):
        solve_lp(lp)


def test_stats_count_one_solve():
    # min x0 + x1 + 2 x2  s.t.  x0 + x1 + x2 >= 2,  x0 + x1 <= 3,  x2 <= 4
    lp = LinearProgram(3, objective=np.array([1.0, 1.0, 2.0]))
    lp.add_row([0, 1, 2], [1.0, 1.0, 1.0], ">=", 2.0)
    lp.add_row([0, 1], [1.0, 1.0], "<=", 3.0)
    lp.add_row([2], [1.0], "<=", 4.0)
    first = solve_lp(lp)
    assert set(first.stats) == set(simplex.STATS)
    assert first.stats["pivots"] == first.iterations > 0
    # From its optimal basis the LP never pivots: nothing is counted, not
    # even the factorization of the starting basis.
    again = solve_lp(lp, first.basis)
    assert again.warm and again.iterations == 0
    assert again.stats == dict.fromkeys(simplex.STATS, 0)
    assert solve_lp(LinearProgram(2)).stats == dict.fromkeys(simplex.STATS, 0)


# A chain-LP master of random_instance(default_rng(8010), 8, 2, p_max=40,
# r_max=40), the 39th of its exact column generation: a degenerate set
# partitioning LP (224 capacity rows <= 1, 8 job rows >= 1, 877 chains), on
# which Dantzig pivoting stalls until the right-hand side is perturbed.  Its
# optimum by HiGHS (scipy 1.17.1):
DEGENERATE_MASTER = Path(__file__).parent / "data" / "degenerate-chain-master.npz"
DEGENERATE_MASTER_OPTIMUM = 264.95326712517266


def test_degenerate_chain_master_solves_and_certifies():
    d = np.load(DEGENERATE_MASTER)
    lp = LinearProgram(0)
    lp.add_rows(np.zeros(d["rhs"].size + 1, dtype=int), [], [], [simplex._SENSES[k] for k in d["sense"]], d["rhs"])
    order = np.argsort(d["col"], kind="stable")
    ptr = np.concatenate(([0], np.cumsum(np.bincount(d["col"], minlength=d["objective"].size))))
    lp.add_columns(ptr, d["row"][order], d["val"][order], d["objective"], d["lower"], d["upper"])
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(DEGENERATE_MASTER_OPTIMUM, rel=1e-9)
    # About 7,500 pivots; without the perturbation Dantzig's rule stalls
    # for about 88,000.
    assert res.iterations < 20_000
    assert res.stats["pivots"] == res.iterations and res.stats["perturbations"] >= 1
    # The certificate, from the LP's data alone: primal feasible, dual
    # feasible with the right signs, and no duality gap.
    row, col, val = d["row"].astype(int), d["col"].astype(int), d["val"]
    activity = np.bincount(row, weights=val * res.x[col], minlength=lp.num_rows)
    le, ge = d["sense"] == simplex._LE, d["sense"] == simplex._GE
    assert (res.x >= -1e-9).all()
    assert (activity[le] <= d["rhs"][le] + 1e-9).all() and (activity[ge] >= d["rhs"][ge] - 1e-9).all()
    assert (res.duals[le] <= 1e-9).all() and (res.duals[ge] >= -1e-9).all()
    reduced = d["objective"] - np.bincount(col, weights=val * res.duals[row], minlength=lp.num_vars)
    assert reduced.min() >= -1e-7
    assert res.duals @ d["rhs"] == pytest.approx(res.objective, rel=1e-9)


def _vertex_oracle(c, rows):
    """Exact optimum of min c.x over {A x <= b, x >= 0} by enumerating basic
    points: every vertex makes n constraints tight."""
    n = len(c)
    A = np.array([r[0] for r in rows])
    b = np.array([r[1] for r in rows])
    stacked = np.vstack([A, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    best = None
    for combo in combinations(range(stacked.shape[0]), n):
        M = stacked[list(combo)]
        try:
            x = np.linalg.solve(M, rhs[list(combo)])
        except np.linalg.LinAlgError:
            continue
        if (A @ x <= b + 1e-8).all() and (x >= -1e-8).all():
            val = float(c @ x)
            if best is None or val < best:
                best = val
    return best


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(2024)
    solved = 0
    infeasible = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 6))
        c = rng.uniform(-2, 3, size=n)
        rows = []
        for _ in range(k):
            a = rng.uniform(-2, 2, size=n)
            rows.append((a, float(rng.uniform(-1, 4))))
        box = float(rng.uniform(2, 8))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append((e, box))  # keeps the polytope bounded

        lp = LinearProgram(n, objective=c)
        for a, rhs in rows:
            lp.add_row(np.arange(n), a, "<=", rhs)
        res = solve_lp(lp)
        expected = _vertex_oracle(c, rows)
        if expected is None:
            assert res.status == "infeasible"
            infeasible += 1
        else:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(expected, abs=1e-6)
            solved += 1
    assert solved >= 50  # the generator must actually exercise the solver


def test_complementary_slackness_and_feasibility():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        lp = LinearProgram(n, objective=rng.uniform(0.1, 3, size=n))
        rows = []
        for _ in range(k):
            a = rng.uniform(0, 2, size=n)
            rhs = float(rng.uniform(0.5, 4))
            sense = rng.choice([">=", "<="])
            lp.add_row(np.arange(n), a, sense, rhs)
            rows.append((a, sense, rhs))
        res = solve_lp(lp)
        if res.status != "optimal":
            continue
        scale = 1.0 + abs(res.objective)
        for (a, sense, rhs), y in zip(rows, res.duals):
            slack = rhs - float(a @ res.x)
            if sense == "<=":
                assert slack >= -1e-7
                assert y <= 1e-7
            else:
                assert slack <= 1e-7
                assert y >= -1e-7
            assert abs(slack * y) <= 1e-6 * scale


def test_rows_are_kept_until_the_next_append():
    # Rows read between interleaved appends match an LP built in one go,
    # and a read after an append sees it.
    lp = LinearProgram(2, objective=np.array([1.0, 2.0]))
    lp.add_rows([0, 2], [0, 1], [1.0, 1.0], [">="], [1.0])
    first = lp.rows
    lp.add_columns([0, 1, 1], [0], [3.0], [0.5, 1.0])
    lp.add_rows([0, 1], [3], [2.0], ["<="], [4.0])
    read = lp.rows
    lp.add_columns([0, 2], [0, 1], [1.0, 5.0], [2.0])
    fresh = LinearProgram(5, objective=np.array([1.0, 2.0, 0.5, 1.0, 2.0]))
    fresh.add_rows([0, 4, 6], [0, 1, 2, 4, 3, 4], [1.0, 1.0, 3.0, 1.0, 2.0, 5.0], [">=", "<="], [1.0, 4.0])
    for rows in (lp.rows, lp.rows):
        assert len(rows) == len(fresh.rows) == 2
        for got, want in zip(rows, fresh.rows):
            assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
            assert got[2:] == want[2:]
            assert not got[0].flags.writeable and not got[1].flags.writeable
    assert [r[0].tolist() for r in read] == [[0, 1, 2], [3]]
    assert [r[0].tolist() for r in first] == [[0, 1]]
    lp.rows.clear()  # the caller's list, not the one kept
    assert len(lp.rows) == 2


def test_rows_read_between_random_appends_match_a_sort_of_all_entries():
    rng = np.random.default_rng(3)
    lp = LinearProgram(3)
    for step in range(60):
        if rng.random() < 0.4 or lp.num_rows == 0:
            count = int(rng.integers(1, 4))
            sizes = rng.integers(0, 3, count)
            idx = rng.integers(0, lp.num_vars, sizes.sum())
            lp.add_rows(np.concatenate(([0], np.cumsum(sizes))), idx, rng.normal(size=idx.size),
                        rng.choice(["<=", "==", ">="], count), rng.normal(size=count))
        else:
            count = int(rng.integers(1, 4))
            sizes = rng.integers(0, 4, count)
            idx = rng.integers(0, lp.num_rows, sizes.sum())
            lp.add_columns(np.concatenate(([0], np.cumsum(sizes))), idx, rng.normal(size=idx.size), np.ones(count))
        if rng.random() < 0.5:
            order = np.argsort(lp._row, kind="stable")
            per_row = np.split(order, np.cumsum(np.bincount(lp._row, minlength=lp.num_rows))[:-1])
            got = lp.rows
            assert len(got) == lp.num_rows
            for (idx, coef, sense, rhs), entries, s, b in zip(got, per_row, lp._sense, lp._rhs):
                assert idx.tolist() == lp._col[entries].tolist() and coef.tolist() == lp._val[entries].tolist()
                assert (sense, rhs) == (("<=", "==", ">=")[s], b)


def test_basis_read_later_equals_the_basis_at_the_solve():
    # Each solution's basis is computed when first read.  Reading it after
    # later resumes, which extend the model and pivot the live basis, and
    # after a solve from a given basis, gives what reading it at once would
    # have.  The LP grows as a chain master does: columns with a 1 in one
    # covering row and counts in capacity rows appended empty; some columns
    # have an upper bound, whose row is numbered after every LP row.
    rng = np.random.default_rng(11)
    jobs = 4
    lp = LinearProgram(0)
    lp.add_rows(np.zeros(jobs + 1, dtype=np.int64), [], [], [">="] * jobs, np.ones(jobs))
    solutions, at_once = [], []
    for round in range(8):
        if round % 3 == 1:
            lp.add_rows(np.zeros(3, dtype=np.int64), [], [], ["<="] * 2, [1.0, 2.0])
        rows, vals = [], []
        for _ in range(5):
            cap = rng.choice(np.arange(jobs, lp.num_rows), size=min(2, lp.num_rows - jobs), replace=False)
            rows.append(np.concatenate(([rng.integers(jobs)], np.sort(cap))))
            vals.append(np.concatenate(([1.0], rng.integers(1, 3, cap.size).astype(float))))
        ptr = np.concatenate(([0], np.cumsum([r.size for r in rows])))
        upper = np.where(rng.random(5) < 0.4, 3.0, np.inf)  # upper-bound rows number after the LP's rows
        lp.add_columns(ptr, np.concatenate(rows), np.concatenate(vals), rng.uniform(1.0, 5.0, 5), upper=upper)
        res = solve_lp(lp)
        if res.status != "optimal":  # a job row no column covers yet
            continue
        state = lp._live
        at_once.append(state.model.basis_reader(state.basis)())
        solutions.append(res)
    assert len(solutions) > 4 and sum(res.warm for res in solutions) > 3
    again = solve_lp(lp, solutions[-1].basis)
    assert again.status == "optimal" and again.warm
    for res, want in zip(solutions, at_once):
        got = res.basis
        assert got is res.basis  # computed once
        assert got.columns.tolist() == want.columns.tolist()
        assert got.slack_rows.tolist() == want.slack_rows.tolist()
