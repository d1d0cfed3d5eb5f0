"""Test helpers: a ``LinearProgram`` stated by rows, as tests write LPs,
the starts it takes, and the basis of its last optimal solve."""

from itertools import combinations

import numpy as np

from alphasched.simplex import LinearProgram


def lp_from_rows(objective, rows=()) -> LinearProgram:
    """The LP ``min objective . x`` over ``rows``, each (variable indices,
    coefficients, sense, rhs).  The rows are appended empty and the
    variables then as the rows' transpose: each variable's column lists its
    entries in row order."""
    rows = list(rows)
    lp = LinearProgram()
    lp.add_rows([sense for _, _, sense, _ in rows], [rhs for _, _, _, rhs in rows])
    var = np.concatenate([np.asarray(idx, dtype=np.int64) for idx, _, _, _ in rows] + [np.zeros(0, dtype=np.int64)])
    val = np.concatenate([np.asarray(coef, dtype=float) for _, coef, _, _ in rows] + [np.zeros(0)])
    row = np.repeat(np.arange(len(rows)), np.array([np.size(idx) for idx, _, _, _ in rows], dtype=np.int64))
    order = np.argsort(var, kind="stable")
    ptr = np.concatenate(([0], np.cumsum(np.bincount(var, minlength=np.size(objective)))))
    lp.add_columns(ptr, row[order], val[order], objective)
    return lp


def row_matrix(lp) -> np.ndarray:
    """The LP's rows as a dense matrix."""
    A = np.zeros((len(lp.rows), lp.num_vars))
    for k, (idx, val, _, _) in enumerate(lp.rows):
        np.add.at(A[k], idx, val)
    return A


def own_slack_rows(lp) -> np.ndarray:
    """The rows whose slack or surplus alone is feasible at x = 0: the
    inequality rows that take no start."""
    own = [sense == "<=" and rhs >= 0 or sense == ">=" and rhs <= 0 for _, _, sense, rhs in lp.rows]
    return np.flatnonzero(own)


def is_feasible_basis(lp, columns, slack_rows) -> bool:
    """Independent check: the variables ``columns`` and the slacks of the
    rows ``slack_rows`` form a nonsingular basis whose basic solution is
    non-negative."""
    A = row_matrix(lp)
    m = len(lp.rows)
    senses = [s for _, _, s, _ in lp.rows]
    b = np.array([r for _, _, _, r in lp.rows])
    if any(senses[r] == "==" for r in slack_rows):
        return False
    B = np.zeros((m, m))
    B[:, : columns.size] = A[:, columns]
    for k, r in enumerate(slack_rows):
        B[r, columns.size + k] = 1.0 if senses[r] == "<=" else -1.0
    if np.linalg.matrix_rank(B) < m:
        return False
    return bool((np.linalg.solve(B, b) >= -1e-7).all())


def starts(lp):
    """Every start ``solve_lp`` takes for ``lp``: each set of distinct
    variables, one per row that takes a start, in increasing order, and
    whether it forms with the other rows' slacks a basis that
    ``is_feasible_basis`` accepts."""
    slacks = own_slack_rows(lp)
    for start in combinations(range(lp.num_vars), len(lp.rows) - slacks.size):
        start = np.array(start, dtype=np.int64)
        yield start, is_feasible_basis(lp, start, slacks)


def live_basis(lp) -> tuple[np.ndarray, np.ndarray]:
    """The basis of ``lp``'s last optimal solve, from the solver state the
    LP keeps until its next solve: the basic variables and the rows whose
    slack or surplus is basic, each sorted."""
    state = lp._live
    model, total = state.model, state.cols.total
    var = np.full(total, -1, dtype=np.int64)
    var[model.var_col] = np.arange(model.n)
    has = np.flatnonzero(model.slack_col >= 0)
    slack_row = np.full(total, -1, dtype=np.int64)
    slack_row[model.slack_col[has]] = has
    basic_var, rows = var[state.basis], slack_row[state.basis]
    return np.sort(basic_var[basic_var >= 0]), np.sort(rows[rows >= 0])
