from itertools import combinations

import numpy as np
import pytest

from alphasched.simplex import LinearProgram, LpError, lp_to_text, solve_lp


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
        lp.set_objective([1.0])


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
    # cold at once, not fail and take the conservative retry.
    import alphasched.simplex as simplex

    lp = _lp_with_redundant_equation()
    lp.add_columns([0, 1, 2], [1, 1], [-1.0, 1.0], [1.0, 1.0], lower=[1.0, 0.0])
    modes = []
    solve = simplex._solve

    def recording(lp, hint, bland):
        modes.append(bland)
        return solve(lp, hint, bland)

    monkeypatch.setattr(simplex, "_solve", recording)
    res = solve_lp(lp)
    assert modes == [False]
    assert res.status == "optimal" and not res.warm
    assert res.objective == pytest.approx(2.0)
    assert res.x[1:].tolist() == pytest.approx([1.0, 1.0])


def test_lp_text_dump_mentions_rows():
    lp = LinearProgram(2, objective=np.array([1.0, -2.0]))
    lp.add_row([0, 1], [1.0, 3.0], "<=", 4.0)
    text = lp_to_text(lp)
    assert "Minimize" in text and "c0:" in text and "3 x1" in text


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
