from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from alphasched import simplex
from alphasched.simplex import LinearProgram, LpError, NumericalError, solve_lp
from lp_rows import live_basis, lp_from_rows, starts


def test_min_x_geq_one():
    lp = lp_from_rows([1.0], [([0], [1.0], ">=", 1.0)])
    res = solve_lp(lp, [0])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0)
    assert res.objective == pytest.approx(1.0)
    assert res.duals[0] == pytest.approx(1.0)


def test_two_variable_lp():
    lp = lp_from_rows([1.0, 1.0], [([0, 1], [1.0, 1.0], ">=", 2.0), ([0], [1.0], "<=", 0.5)])
    res = solve_lp(lp, [1])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)


def test_infeasible():
    # The row takes a start, and its only one, x0 = -1, is infeasible; with
    # no start and nothing to resume the solve takes the empty one.
    lp = lp_from_rows([1.0], [([0], [1.0], "<=", -1.0)])
    with pytest.raises(LpError, match="start names one variable per row that takes a start, 1, not 0"):
        solve_lp(lp)
    with pytest.raises(LpError, match="primal feasible"):
        solve_lp(lp, [0])


def test_unbounded():
    lp = lp_from_rows([-1.0, 0.0], [([1], [1.0], "<=", 5.0)])
    assert solve_lp(lp).status == "unbounded"


def test_equality_row_and_duality():
    lp = lp_from_rows([2.0, 3.0], [([0, 1], [1.0, 1.0], "==", 4.0), ([0], [1.0], "<=", 3.0)])
    res = solve_lp(lp, [1])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2 * 3 + 3 * 1)
    # strong duality on the original data
    dual_obj = res.duals[0] * 4.0 + res.duals[1] * 3.0
    assert dual_obj == pytest.approx(res.objective, abs=1e-6)


def test_dimension_errors():
    lp = lp_from_rows(np.zeros(2), [([0, 1], [1.0, 1.0], "<=", 1.0)])
    with pytest.raises(LpError):
        lp.add_columns([0, 2], [0, 5], [1.0, 1.0], [0.0])
    with pytest.raises(LpError):
        lp.add_rows(["<>"], [1.0])
    with pytest.raises(LpError):
        lp.add_columns([0, 1], [0], [1.0], [1.0, 2.0])


def test_size_budget_counts_rows(monkeypatch):
    # The basis inverse is rows x rows; variables add no row.
    monkeypatch.setattr(simplex, "MAX_BASIS_INVERSE_BYTES", 8 * 3 * 3)
    lp = lp_from_rows(np.zeros(1), [([0], [1.0], "<=", 2.0), ([0], [1.0], ">=", 0.0), ([0], [1.0], "<=", 1.0)])
    with pytest.raises(LpError, match="too large: 4 rows"):
        lp.add_rows(["<="], [1.0])
    with pytest.raises(LpError, match="too large: 5 rows"):
        lp.add_rows(["<=", "<="], [1.0, 1.0])
    with pytest.raises(LpError, match="too large: 4 rows"):
        lp.reserve(1)
    assert (lp.num_vars, lp.num_rows) == (1, 3)  # nothing was appended
    lp.add_columns([0, 1, 2], [0, 1], [1.0, 1.0], [1.0, 1.0])
    assert lp.num_vars == 3 and solve_lp(lp).status == "optimal"


def test_variable_bounds():
    # x >= 0 is every variable's only bound; an upper bound is a row.
    lp = lp_from_rows([1.0, 0.0])
    res = solve_lp(lp)
    assert res.status == "optimal" and res.x.tolist() == [0.0, 0.0]
    lp = lp_from_rows([-1.0], [([0], [1.0], "<=", 7.0)])
    res = solve_lp(lp)
    assert res.objective == pytest.approx(-7.0) and res.duals.tolist() == pytest.approx([-1.0])
    assert lp.upper.tolist() == [np.inf] and not lp.upper.flags.writeable


def test_objective_is_read_only():
    # Costs come with their variables and stay as they came: a solve can
    # resume from the last optimum without checking them again.
    lp = lp_from_rows([-1.0, -1.0], [([0, 1], [1.0, 1.0], "<=", 3.0)])
    assert solve_lp(lp).objective == -3.0
    with pytest.raises(ValueError, match="read-only"):
        lp.objective[0] = np.nan
    with pytest.raises(AttributeError):
        lp.objective = np.zeros(2)
    assert lp.objective.tolist() == [-1.0, -1.0]
    res = solve_lp(lp)
    assert res.iterations == 0 and res.objective == -3.0


# A malformed row as (indices, coefficients, sense, rhs).  Rows come with no
# entries, so ``add_rows`` refuses a row's sense and rhs, and
# ``add_columns`` its entries, given as one column's.
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
    lp = LinearProgram()
    lp.add_rows(["==", "<="], [3.0, 1.0])
    if sense in ("<=", ">=") and np.isfinite(rhs):  # the entries are at fault
        with pytest.raises(LpError):
            lp.add_columns([0, np.size(idx)], idx, val, [1.0])
        # The same column after a good one, as one block: nothing is appended.
        if np.ndim(idx) == 1 and np.size(idx) == np.size(val):
            good_idx = np.concatenate(([0, 1], idx))
            good_val = np.concatenate(([1.0, 2.0], val))
            with pytest.raises(LpError):
                lp.add_columns([0, 2, good_idx.size], good_idx, good_val, [1.0, 1.0])
    else:
        with pytest.raises(LpError):
            lp.add_rows([sense], [rhs])
        with pytest.raises(LpError):
            lp.add_rows(["==", sense], [3.0, rhs])
    assert (lp.num_rows, lp.num_vars) == (2, 0)


def test_add_rows_block_shape_checks_and_equivalence():
    lp = LinearProgram()
    for senses, rhs in [
        (["<="], [1.0, 1.0]),  # a sense short
        (["<=", ">="], [1.0]),  # a rhs short
        (["<="], [[1.0]]),  # rhs not 1-d
    ]:
        with pytest.raises(LpError):
            lp.add_rows(senses, rhs)
    assert lp.rows == []
    assert lp.add_rows(["<=", "==", ">="], [4, 0, 5]) == range(3)
    for ptr in [
        [1, 2],  # does not start at 0
        [0, 2, 1, 3],  # decreasing
        [0, 2],  # does not end at the entry count
    ]:
        with pytest.raises(LpError):
            lp.add_columns(ptr, [0, 1, 2], [1.0, 2.0, 3.0], np.zeros(len(ptr) - 1))
    assert lp.num_vars == 0
    assert lp.add_columns([0, 1, 2, 3], [1, 1, 2], [2.0, 3.0, 1.0], np.zeros(3)) == range(3)
    one_by_one = LinearProgram()
    for sense, rhs in [("<=", 4), ("==", 0), (">=", 5)]:
        one_by_one.add_rows([sense], [rhs])
    for row, coef in [(1, 2.0), (1, 3.0), (2, 1.0)]:
        one_by_one.add_columns([0, 1], [row], [coef], [0.0])
    for got, want in zip(lp.rows, one_by_one.rows):
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
        assert got[2:] == want[2:] and type(got[2]) is str and type(got[3]) is float
    assert [r[0].tolist() for r in lp.rows] == [[], [0, 1], [2]]
    assert lp.add_rows([], []) == range(3, 3)
    assert lp.add_columns([0], [], [], []) == range(3, 3)


def test_add_columns_builds_the_same_lp_as_add_rows():
    by_rows = lp_from_rows([1.0, 2.0, -1.0], [
        ([0, 2], [1.0, 1.0], ">=", 1.0),
        ([0, 1, 2], [2.0, 1.0, -1.0], "<=", 6.0),
        ([2], [1.0], "<=", 2.0),
    ])
    by_cols = LinearProgram()
    assert by_cols.add_rows([">=", "<=", "<="], [1.0, 6.0, 2.0]) == range(3)
    assert by_cols.add_columns([0, 2, 3, 6], [0, 1, 1, 0, 1, 2], [1.0, 2.0, 1.0, 1.0, -1.0, 1.0],
                               [1.0, 2.0, -1.0]) == range(3)
    for got, want in zip(by_cols.rows, by_rows.rows):
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
        assert got[2:] == want[2:]
    assert solve_lp(by_cols, [0]).objective == pytest.approx(solve_lp(by_rows, [0]).objective)
    for bad in [
        ([0, 1], [3], [1.0], [1.0]),  # row out of range
        ([0, 2], [0], [1.0], [1.0]),  # pointers do not end at the entry count
        ([0, 1], [0], [np.nan], [1.0]),  # non-finite coefficient
        ([0, 1], [0], [1.0], [1.0, 2.0]),  # a cost too many
        ([0, 1], [0], [1.0], [np.inf]),  # non-finite cost
    ]:
        with pytest.raises(LpError):
            by_cols.add_columns(*bad)
    assert by_cols.num_vars == 3 and by_cols.objective.size == 3 and len(by_cols.rows[0][0]) == 2


def test_start_on_a_redundant_equation_row_is_singular():
    # x0 >= 0 and an empty row '== 0', which takes a start: no variable has
    # an entry in it, so the start x0 leaves it to no basic column.
    lp = lp_from_rows(np.zeros(1), [([0], [1.0], ">=", 0.0), ([], [], "==", 0.0)])
    with pytest.raises(NumericalError, match="singular"):
        solve_lp(lp, [0])
    # A column with an entry there starts it, and the row forces x1 = 0.
    lp.add_columns([0, 1], [1], [-1.0], [-1.0])
    res = solve_lp(lp, [1])
    assert res.status == "optimal" and res.objective == pytest.approx(0.0, abs=1e-12)
    assert res.x[1] == pytest.approx(0.0, abs=1e-12)


def test_column_store_holds_the_lps_own_entry_arrays():
    # The standard form keeps the LP's entry arrays, not copies, after a
    # solve from the empty start and after resumed appends alike.
    lp = lp_from_rows([-1.0, -2.0], [([0, 1], [1.0, 1.0], "<=", 4.0), ([1], [1.0], "<=", 3.0)])
    for step in range(3):
        if step:
            lp.add_rows(["<="], [2.0])
            lp.add_columns([0, 2], [0, lp.num_rows - 1], [1.0, 1.0], [-3.0])
        state = lp._live
        res = solve_lp(lp)
        assert res.status == "optimal" and (lp._live is state) == (step > 0)  # resumed after the first
        cols = lp._live.cols
        assert cols.rows is lp._row and cols.vals is lp._val
    assert res.objective == -12.0  # x2 = x3 = 2 fill row 0


def test_add_columns_copies():
    # Every append copies: read-only and writable caller arrays both stay
    # the caller's, and the LP's own arrays are read-only.
    for writeable in (True, False):
        rows, vals = np.array([0]), np.array([2.0])
        rows.flags.writeable = vals.flags.writeable = writeable
        lp = LinearProgram()
        lp.add_rows([">="], [1.0])
        lp.add_columns([0, 1], rows, vals, [1.0])
        assert rows.flags.writeable == vals.flags.writeable == writeable
        assert not np.shares_memory(rows, lp._row) and not np.shares_memory(vals, lp._val)
        assert not lp._row.flags.writeable and not lp._val.flags.writeable
        if writeable:
            vals[0] = 3.0
        assert lp.rows[0][1].tolist() == [2.0] and solve_lp(lp, [0]).objective == 0.5


def test_lp_without_rows_takes_the_one_solve_path():
    # Positive costs: x = 0, with no dual and an empty basis, which the
    # empty start names, as a solve with no start does.
    lp = lp_from_rows([1.0, 0.5, 2.0])
    assert solve_lp(lp, []).objective == 0.0
    res = solve_lp(lp)
    assert res.status == "optimal" and res.x.tolist() == [0.0, 0.0, 0.0] and res.objective == 0.0
    assert res.duals.shape == (0,)
    assert all(part.size == 0 for part in live_basis(lp))
    # A negative cost is unbounded.
    assert solve_lp(lp_from_rows([1.0, -1.0])).status == "unbounded"
    # Rows and then columns appended to the solved LP: the solve resumes
    # and agrees with a fresh solve of the same LP.
    lp.add_rows(["<=", "<="], [2.0, 3.0])
    lp.add_columns([0, 2, 3], [0, 1, 0], [1.0, 1.0, 1.0], [-1.0, 1.0])
    state = lp._live
    res = solve_lp(lp)
    assert lp._live is state
    fresh = solve_lp(lp_from_rows(lp.objective, [([3, 4], [1.0, 1.0], "<=", 2.0), ([3], [1.0], "<=", 3.0)]))
    assert res.status == fresh.status == "optimal" and res.objective == fresh.objective == -2.0
    assert res.x.tolist() == fresh.x.tolist() == [0.0, 0.0, 0.0, 2.0, 0.0]
    assert res.duals.tolist() == fresh.duals.tolist()


def test_stats_count_one_solve():
    # min x0 + x1 + 2 x2  s.t.  x0 + x1 + x2 == 2,  x0 + x1 <= 3,  x2 <= 4
    lp = lp_from_rows([1.0, 1.0, 2.0], [
        ([0, 1, 2], [1.0, 1.0, 1.0], "==", 2.0),
        ([0, 1], [1.0, 1.0], "<=", 3.0),
        ([2], [1.0], "<=", 4.0),
    ])
    first = solve_lp(lp, [2])
    assert set(first.stats) == set(simplex.STATS)
    assert first.stats["pivots"] == first.iterations > 0
    # From an optimal start (x0 = 2, both slacks basic) the LP never pivots:
    # nothing is counted, not even the factorization of the starting basis.
    again = solve_lp(lp, [0])
    assert again.iterations == 0
    assert again.stats == dict.fromkeys(simplex.STATS, 0)
    assert solve_lp(lp_from_rows(np.zeros(2))).stats == dict.fromkeys(simplex.STATS, 0)


def test_start_covers_a_covering_row():
    # min x0 + x1 + 2 x2  s.t.  x0 + x1 + x2 >= 2,  x0 + x1 <= 3,  x2 <= 4.
    # Row 0's surplus alone is infeasible at x = 0, so it takes a start, a
    # variable named for it: x0 = 2, with the slacks of rows 1 and 2 basic,
    # is optimal and takes no pivot.
    lp = lp_from_rows([1.0, 1.0, 2.0], [
        ([0, 1, 2], [1.0, 1.0, 1.0], ">=", 2.0),
        ([0, 1], [1.0, 1.0], "<=", 3.0),
        ([2], [1.0], "<=", 4.0),
    ])
    res = solve_lp(lp, [0])
    assert res.status == "optimal" and res.iterations == 0
    assert res.objective == 2.0 and res.x.tolist() == [2.0, 0.0, 0.0]
    basic, slack_rows = live_basis(lp)
    assert basic.tolist() == [0] and slack_rows.tolist() == [1, 2]
    # The LP has no equation row, but a start sized by equation rows alone
    # names no variable for row 0.
    with pytest.raises(LpError, match="start names"):
        solve_lp(lp, [])
    # x2 = 2 is a feasible start too, and the solve pivots to x0 or x1.
    res = solve_lp(lp, [2])
    assert res.iterations > 0 and res.objective == 2.0


# A chain-LP master of random_instance(default_rng(8010), 8, 2, p_max=40,
# r_max=40), the 39th of its exact column generation: a degenerate set
# partitioning LP (224 capacity rows <= 1, 8 job rows >= 1, 877 chains), on
# which Dantzig pivoting stalls until the right-hand side is perturbed.  Its
# optimum by HiGHS (scipy 1.17.1):
DEGENERATE_MASTER = Path(__file__).parent / "data" / "degenerate-chain-master.npz"
DEGENERATE_MASTER_OPTIMUM = 264.95326712517266


def test_degenerate_chain_master_solves_and_certifies():
    d = np.load(DEGENERATE_MASTER)
    lp = LinearProgram()
    lp.add_rows([simplex._SENSES[k] for k in d["sense"]], d["rhs"])
    order = np.argsort(d["col"], kind="stable")
    ptr = np.concatenate(([0], np.cumsum(np.bincount(d["col"], minlength=d["objective"].size))))
    # The fixture stores bounds, which are those of x >= 0.
    assert (d["lower"] == 0.0).all() and np.isposinf(d["upper"]).all()
    lp.add_columns(ptr, d["row"][order], d["val"][order], d["objective"])
    # Columns 0..7 are the list schedule's chains, one per job row: the
    # start of the run's first master.
    res = solve_lp(lp, np.arange(8))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(DEGENERATE_MASTER_OPTIMUM, rel=1e-9)
    # 3,298 pivots, perturbing at each stalled one, 16 times.
    assert res.iterations < 5_000
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
    # Every start of each LP is tried: one that is a feasible basis reaches
    # the oracle's optimum, and any other raises.  An LP the oracle finds
    # empty has no feasible start.
    rng = np.random.default_rng(2024)
    solved = 0
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

        lp = lp_from_rows(c, [(np.arange(n), a, "<=", rhs) for a, rhs in rows])
        expected = _vertex_oracle(c, rows)
        feasible = 0
        for start, ok in starts(lp):
            if not ok:
                with pytest.raises((LpError, NumericalError)):
                    solve_lp(lp, start)
                continue
            assert expected is not None
            res = solve_lp(lp, start)
            assert res.status == "optimal"
            assert res.objective == pytest.approx(expected, abs=1e-6)
            feasible += 1
        solved += feasible > 0
    assert solved >= 50  # the generator must actually exercise the solver


def test_complementary_slackness_and_feasibility():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(30):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        c = rng.uniform(0.1, 3, size=n)
        rows = []
        for _ in range(k):
            a = rng.uniform(0, 2, size=n)
            rhs = float(rng.uniform(0.5, 4))
            sense = rng.choice([">=", "<="])
            rows.append((a, sense, rhs))
        lp = lp_from_rows(c, [(np.arange(n), a, sense, rhs) for a, sense, rhs in rows])
        for start, ok in starts(lp):
            if not ok:
                continue
            res = solve_lp(lp, start)
            if res.status != "optimal":
                continue
            checked += 1
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
    assert checked >= 30


def test_rows_read_between_random_appends_match_a_sort_of_all_entries():
    # Rows are read off the columns: each row lists its entries by variable,
    # and within a variable in the order they were given.
    rng = np.random.default_rng(3)
    lp = LinearProgram()
    entries = []  # (row, variable, coefficient), as appended
    for step in range(60):
        if rng.random() < 0.4 or lp.num_rows == 0:
            count = int(rng.integers(1, 4))
            lp.add_rows(rng.choice(["<=", "==", ">="], count), rng.normal(size=count))
        else:
            count = int(rng.integers(1, 4))
            sizes = rng.integers(0, 4, count)
            idx, coef = rng.integers(0, lp.num_rows, sizes.sum()), rng.normal(size=sizes.sum())
            first = lp.add_columns(np.concatenate(([0], np.cumsum(sizes))), idx, coef, np.ones(count))[0]
            entries += zip(idx.tolist(), (first + np.repeat(np.arange(count), sizes)).tolist(), coef.tolist())
        if rng.random() < 0.5:
            got = lp.rows
            assert len(got) == lp.num_rows
            for r, (idx, coef, sense, rhs) in enumerate(got):
                want = [(j, v) for row, j, v in entries if row == r]
                assert list(zip(idx.tolist(), coef.tolist())) == want
                assert (sense, rhs) == (("<=", "==", ">=")[lp._sense[r]], lp._rhs[r])
                assert not idx.flags.writeable and not coef.flags.writeable
