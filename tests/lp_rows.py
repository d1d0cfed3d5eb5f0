"""Test helpers: a ``LinearProgram`` stated by rows, as tests write LPs,
and the basis of its last optimal solve."""

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


def live_basis(lp) -> tuple[np.ndarray, np.ndarray]:
    """The basis of ``lp``'s last optimal solve, from the solver state the
    LP keeps until its next solve: the basic variables and the rows whose
    slack or surplus is basic, each sorted.  A basis that keeps an
    artificial basic on a redundant row names a row fewer than the LP has."""
    state = lp._live
    model, total = state.model, state.cols.total
    var = np.full(total, -1, dtype=np.int64)
    var[model.var_col] = np.arange(model.n)
    has = np.flatnonzero(model.slack_col >= 0)
    slack_row = np.full(total, -1, dtype=np.int64)
    slack_row[model.slack_col[has]] = has
    basic_var, rows = var[state.basis], slack_row[state.basis]
    return np.sort(basic_var[basic_var >= 0]), np.sort(rows[rows >= 0])
