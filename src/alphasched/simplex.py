"""Sparse two-phase revised simplex with dual values, warm starts and resumes.

Solves ``min c.x  s.t.  rows, lb <= x <= ub`` and returns primal and dual
optima together with the optimal basis.  The implementation is deliberately
self-contained: dual values per row are needed downstream for column
generation, and the library depends on numpy alone.

A ``LinearProgram`` holds its constraint entries natively as flat numpy
arrays and only grows: ``add_rows`` appends rows, ``add_columns`` appends
variables with their entries in existing rows.  The solver works on its
standard form: variables shifted to lower bound zero, finite upper bounds as
extra rows, rows oriented so the right-hand side starts non-negative, and
slack, surplus and artificial unit columns.  That matrix is held column-wise
and sparse (numpy ``colptr``, row index and value arrays); only the basis
inverse is dense (m x m).  Pricing computes ``y . a_j`` over the nonzeros,
the entering direction is ``binv[:, rows] @ vals``, each pivot applies a
rank-one update to the inverse in place and updates the basic values, and
refactorization inverts only the block of basic columns that are not unit
columns.

After an optimal solve the LP keeps the solver's state: the standard form
with its column store, the basis, the basis inverse and the basic values.
The next ``solve_lp(lp)`` resumes from it when the LP has only grown since.
Appended variables join the column store as nonbasic columns without a
re-sort, appended rows (and the upper-bound rows of appended variables)
enter with their slack basic, and the inverse grows by the block formula
``[[B^-1, 0], [-S^-1 R B^-1, S^-1]]``, with R the new rows' entries on the
basic columns and S the new slacks' diagonal.  A solve from nothing is the
same extension of an empty state, followed by the cold two-phase start.

A solve does not resume, and starts from the given basis or cold instead,
when a basis is given (``solve_lp(lp, basis)``), when the objective or the
bounds of existing variables were edited in place (a comparison with the
copies the state keeps detects it; entries, senses and right-hand sides are
read-only), when the last optimum keeps an artificial basic on a redundant
equation row (an appended column may have an entry there), when an
appended row is an equation (it has no slack to enter with), or when the
extended basis is not primal feasible.  A given basis of the wrong size, a
singular one or a primal infeasible one falls back to the cold start.

Pivoting uses Dantzig's rule with an automatic switch to Bland's rule once a
degeneracy stall is detected; optimality is only declared against a fresh
factorization.  Every answer, resumed, warm or cold, passes the same final
certificate: primal residual, no positive artificial, duality gap.
Numerical failure raises, never returns silently wrong answers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
OPT_TOL = 1e-7
REFACTOR_EVERY = 120
# Entries per row chunk of a dense rank-one update of the basis inverse.
UPDATE_CHUNK = 8192
# Largest dense basis inverse a model builder may ask for: 512 MiB, 8192
# rows.  A solve holds up to about three matrices of that size at once (the
# inverse, and during a refactorization the gathered basis columns and the
# inverse of their block).
MAX_BASIS_INVERSE_BYTES = 2**29

_SENSES = ("<=", "==", ">=")
_LE, _GE = _SENSES.index("<="), _SENSES.index(">=")


class LpError(ValueError):
    """Malformed linear program (dimension mismatch, bad sense, non-finite)."""


class NumericalError(RuntimeError):
    """Simplex failed to converge or the factorization went bad."""


class LinearProgram:
    """Sparse LP in minimization form that grows by appending.

    Variables default to ``x >= 0``; ``objective``, ``lower`` and ``upper``
    are per-variable arrays and may be edited in place.  The constraint
    entries (row, variable, coefficient) and each row's sense and right-hand
    side are read-only arrays, in the order they were added; ``rows`` lists
    them per row as (indices, coefficients, sense, rhs).
    """

    def __init__(self, num_vars: int, objective=None, lower=None, upper=None):
        n = int(num_vars)
        if n < 0:
            raise LpError("the number of variables must be non-negative")
        self.num_vars = n
        self.objective = _vector(objective, 0.0, n, "objective")
        self.lower = _vector(lower, 0.0, n, "lower bounds")
        self.upper = _vector(upper, np.inf, n, "upper bounds")
        if not np.isfinite(self.objective).all() or not np.isfinite(self.lower).all():
            raise LpError("objective and lower bounds must be finite")
        self._row = self._col = _frozen(np.zeros(0, dtype=np.int64))
        self._val = self._rhs = _frozen(np.zeros(0))
        self._sense = _frozen(np.zeros(0, dtype=np.int8))  # index into _SENSES
        self._live = None  # solver state after the last optimal solve

    @property
    def num_rows(self) -> int:
        return self._rhs.size

    @property
    def rows(self) -> list:
        """(indices, coefficients, sense, rhs) per row, entries in the order
        they were added."""
        order = np.argsort(self._row, kind="stable")
        col, val = self._col[order], self._val[order]
        ends = np.cumsum(np.bincount(self._row, minlength=self.num_rows)).tolist()
        return [
            (col[lo:hi], val[lo:hi], _SENSES[s], rhs)
            for lo, hi, s, rhs in zip([0] + ends, ends, self._sense.tolist(), self._rhs.tolist())
        ]

    def set_objective(self, coeffs) -> None:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.num_vars,):
            raise LpError("objective dimension mismatch")
        self.objective = coeffs

    def add_row(self, indices, coeffs, sense: str, rhs: float) -> int:
        """Append a constraint row; returns its index."""
        return self.add_rows((0, np.size(indices)), indices, coeffs, (sense,), (rhs,))[0]

    def add_rows(self, indptr, indices, coeffs, senses, rhs) -> range:
        """Append a block of rows in compressed form: row k holds
        ``indices[indptr[k]:indptr[k + 1]]`` with the matching ``coeffs``,
        sense ``senses[k]`` and right-hand side ``rhs[k]``.  Either the
        whole block is appended or, on malformed input, none of it; returns
        the new rows' indices."""
        idx, val, ptr = _compressed(indptr, indices, coeffs, "row")
        b = np.asarray(rhs, dtype=float)
        senses = list(senses)
        count = ptr.size - 1
        if len(senses) != count or b.shape != (count,):
            raise LpError("row pointers, senses and right-hand sides must describe the same rows")
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_vars):
            raise LpError("row index out of range")
        unknown = [s for s in senses if s not in _SENSES]
        if unknown:
            raise LpError(f"unknown sense {unknown[0]!r}")
        if not np.isfinite(val).all() or not np.isfinite(b).all():
            raise LpError("row coefficients and rhs must be finite")
        first = self.num_rows
        self._append_entries(first + np.repeat(np.arange(count), np.diff(ptr)), idx, val)
        codes = np.array([_SENSES.index(s) for s in senses], dtype=np.int8)
        self._sense = _frozen(np.concatenate((self._sense, codes)))
        self._rhs = _frozen(np.concatenate((self._rhs, b)))
        return range(first, self.num_rows)

    def add_columns(self, indptr, rows, coeffs, objective, lower=None, upper=None) -> range:
        """Append variables in compressed form: variable k has the
        coefficients ``coeffs[indptr[k]:indptr[k + 1]]`` in the existing
        rows ``rows[...]``, cost ``objective[k]`` and bounds ``lower[k] <=
        x <= upper[k]`` (by default 0 and inf).  Either every variable is
        appended or, on malformed input, none; returns their indices."""
        idx, val, ptr = _compressed(indptr, rows, coeffs, "column")
        count = ptr.size - 1
        cost = _vector(objective, 0.0, count, "objective")
        lo = _vector(lower, 0.0, count, "lower bounds")
        hi = _vector(upper, np.inf, count, "upper bounds")
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_rows):
            raise LpError("column row index out of range")
        if not np.isfinite(val).all() or not np.isfinite(cost).all() or not np.isfinite(lo).all():
            raise LpError("column coefficients, costs and lower bounds must be finite")
        first = self.num_vars
        self._append_entries(idx, first + np.repeat(np.arange(count), np.diff(ptr)), val)
        self.objective = np.concatenate((self.objective, cost))
        self.lower = np.concatenate((self.lower, lo))
        self.upper = np.concatenate((self.upper, hi))
        self.num_vars += count
        return range(first, self.num_vars)

    def _append_entries(self, rows, cols, vals) -> None:
        self._row = _frozen(np.concatenate((self._row, rows)))
        self._col = _frozen(np.concatenate((self._col, cols)))
        self._val = _frozen(np.concatenate((self._val, vals)))


def _vector(values, fill: float, size: int, name: str) -> np.ndarray:
    out = np.full(size, fill) if values is None else np.asarray(values, dtype=float)
    if out.shape != (size,):
        raise LpError(f"{name} must have shape ({size},)")
    return out


def _compressed(indptr, indices, coeffs, kind: str):
    """Checked (indices, coefficients, pointers) of a compressed block."""
    idx = np.asarray(indices, dtype=np.int64)
    val = np.asarray(coeffs, dtype=float)
    if idx.shape != val.shape or idx.ndim != 1:
        raise LpError(f"{kind} indices and coefficients must be 1-d and aligned")
    ptr = np.asarray(indptr, dtype=np.int64)
    if ptr.ndim != 1 or ptr.size < 1:
        raise LpError(f"{kind} pointers must be a non-empty 1-d array")
    if ptr[0] != 0 or ptr[-1] != idx.size or (ptr[1:] < ptr[:-1]).any():
        raise LpError(f"{kind} pointers must rise from 0 to the number of entries")
    return idx, val, ptr


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Basis:
    """A simplex basis: the basic structural variables and the rows whose
    slack (or surplus) variable is basic.  Rows number ``lp.rows`` first,
    then one row per finite upper bound, in variable order.  An optimal
    basis that keeps an artificial variable on a redundant row is a row
    short, and does not warm-start."""

    columns: np.ndarray
    slack_rows: np.ndarray


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray = None
    objective: float = np.nan
    duals: np.ndarray = None
    iterations: int = 0  # pivots
    basis: Basis | None = None  # optimal basis, to warm-start a related LP
    warm: bool = False  # resumed the LP's last optimum, or started from the given basis


def lp_to_text(lp: LinearProgram) -> str:
    """Debug dump in LP text format for cross-checking with other solvers."""
    out = ["Minimize", " obj: " + _expr(np.arange(lp.num_vars), lp.objective)]
    out.append("Subject To")
    op = {"<=": "<=", ">=": ">=", "==": "="}
    for k, (idx, val, sense, rhs) in enumerate(lp.rows):
        out.append(f" c{k}: " + _expr(idx, val) + f" {op[sense]} {rhs:.12g}")
    out.append("Bounds")
    for j in range(lp.num_vars):
        hi = "+inf" if not np.isfinite(lp.upper[j]) else f"{lp.upper[j]:.12g}"
        out.append(f" {lp.lower[j]:.12g} <= x{j} <= {hi}")
    out.append("End")
    return "\n".join(out) + "\n"


def _expr(idx, val) -> str:
    terms = []
    for j, v in zip(idx, val):
        if v == 0:
            continue
        sign = "-" if v < 0 else ("+" if terms else "")
        terms.append(f"{sign} {abs(v):.12g} x{int(j)}")
    return " ".join(terms) if terms else "0 x0"


def solve_lp(lp: LinearProgram, basis: Basis | None = None) -> LpSolution:
    """Solve the LP; on ``optimal`` the solution carries a dual value per
    original row (>= rows have non-negative duals, <= rows non-positive)
    and the optimal basis.

    Without ``basis`` the solve resumes from the LP's last optimum when the
    LP has only grown since, and otherwise starts cold.  ``basis`` names a
    starting basis instead; if it does not fit the LP, is singular or is
    primal infeasible the solve starts cold.  A numerically troubled run is
    retried once, cold and with Bland's rule from the first pivot, before
    giving up.
    """
    try:
        return _solve(lp, basis, bland=False)
    except NumericalError:
        return _solve(lp, None, bland=True)


class _Columns:
    """Column-wise sparse matrix that grows: column j holds
    ``vals[colptr[j]:colptr[j+1]]`` in rows ``rows[...]``; ``cols`` repeats
    each entry's column index."""

    def __init__(self):
        self.rows = np.zeros(0, dtype=np.int64)
        self.vals = np.zeros(0)
        self.colptr = np.zeros(1, dtype=np.int64)
        self.m = self.total = 0
        self._index()

    def append(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, m: int, total: int) -> None:
        """Add entries and grow to ``m`` rows and ``total`` columns.  The
        entries of existing columns go to the end of their column and those
        of new columns after all others, sorted stably by column: the store
        is never re-sorted."""
        old = cols < self.total
        if old.any():
            order = np.argsort(cols[old], kind="stable")
            at = self.colptr[cols[old][order] + 1]
            self.rows = np.insert(self.rows, at, rows[old][order])
            self.vals = np.insert(self.vals, at, vals[old][order])
            grown = np.cumsum(np.bincount(cols[old], minlength=self.total))
            self.colptr = self.colptr + np.concatenate(([0], grown))
            rows, cols, vals = rows[~old], cols[~old], vals[~old]
        order = np.argsort(cols, kind="stable")
        self.rows = np.concatenate((self.rows, rows[order]))
        self.vals = np.concatenate((self.vals, vals[order]))
        counts = np.bincount(cols - self.total, minlength=total - self.total)
        self.colptr = np.concatenate((self.colptr, self.colptr[-1] + np.cumsum(counts)))
        self.m, self.total = m, total
        self._index()

    def _index(self) -> None:
        self.cols = np.repeat(np.arange(self.total), np.diff(self.colptr))
        # Segment starts for np.add.reduceat, which reads one entry for an
        # empty column; those columns are zeroed after the sum.
        self.starts = np.minimum(self.colptr[:-1], self.rows.size - 1)
        self.empty = np.flatnonzero(self.colptr[:-1] == self.colptr[1:])

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.colptr[j], self.colptr[j + 1]
        return self.rows[lo:hi], self.vals[lo:hi]

    def left_multiply(self, y: np.ndarray) -> np.ndarray:
        """y @ A, one entry per column."""
        out = np.add.reduceat(y[self.rows] * self.vals, self.starts)
        out[self.empty] = 0.0
        return out

    def right_multiply(self, x: np.ndarray) -> np.ndarray:
        """A @ x, one entry per row."""
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.m)

    def gather(self, basis: np.ndarray) -> np.ndarray:
        """Dense matrix of the columns in ``basis``, in that order."""
        pos = np.full(self.total, -1, dtype=np.int64)
        pos[basis] = np.arange(basis.size)
        at = pos[self.cols]
        sel = at >= 0
        B = np.zeros((self.m, basis.size))
        np.add.at(B, (self.rows[sel], at[sel]), self.vals[sel])
        return B


class _Model:
    """The standard form of the part of an LP it was built from.

    Variables are shifted to lower bound zero and finite upper bounds become
    extra <= rows; each row is oriented so that its right-hand side starts
    non-negative, and gets a slack (+1) or surplus (-1) column when it is an
    inequality and an artificial column when it is not <= after
    orientation.  Rows and columns are numbered in the order they were
    added, so extending the model by what was appended to the LP leaves
    every existing index in place.  Built from nothing the rows are the
    LP's rows, then the upper-bound rows in variable order, and the columns
    are structural | slack | artificial.
    """

    def __init__(self):
        self.n = self.R = self.e = 0  # LP variables, rows and entries covered
        # Copies of what the LP had at the last extension, to detect edits.
        self.objective = self.lower = self.upper = np.zeros(0)
        self.cols = _Columns()
        self.b = np.zeros(0)  # oriented, shifted right-hand side per row
        self.flip = np.zeros(0, dtype=bool)  # row negated by the orientation
        self.lp_row = np.zeros(0, dtype=np.int64)  # row of each LP row
        self.row_var = np.zeros(0, dtype=np.int64)  # variable of an upper-bound row, else -1
        self.slack_col = np.zeros(0, dtype=np.int64)  # per row, -1 for none
        self.var_col = np.zeros(0, dtype=np.int64)  # column of each variable
        self.art = np.zeros(0, dtype=bool)  # artificial columns
        self.c = np.zeros(0)  # phase-2 cost per column

    def covers(self, lp: LinearProgram) -> bool:
        """Whether ``lp`` has only grown since this model was built from it."""
        n = self.n
        return (
            lp.num_vars >= n
            and lp.num_rows >= self.R
            and np.array_equal(lp.objective[:n], self.objective)
            and np.array_equal(lp.lower[:n], self.lower)
            and np.array_equal(lp.upper[:n], self.upper)
        )

    def extend(self, lp: LinearProgram) -> None:
        """Add what ``lp`` gained since the last extension: its new
        variables as structural columns, its new rows and its new
        variables' upper bounds as rows, and their slack and artificial
        columns."""
        n0, R0, e0, m0, t0 = self.n, self.R, self.e, self.cols.m, self.cols.total
        n, R = lp.num_vars, lp.num_rows
        bounded = n0 + np.flatnonzero(np.isfinite(lp.upper[n0:]))
        m = m0 + (R - R0) + bounded.size
        self.lp_row = np.concatenate((self.lp_row, m0 + np.arange(R - R0)))
        # The new entries, then one unit entry per new upper-bound row.
        row = np.concatenate((self.lp_row[lp._row[e0:]], m - bounded.size + np.arange(bounded.size)))
        var = np.concatenate((lp._col[e0:], bounded))
        val = np.concatenate((lp._val[e0:], np.ones(bounded.size)))
        shift = np.bincount(row, weights=val * lp.lower[var], minlength=m)
        raw = np.concatenate((lp._rhs[R0:], lp.upper[bounded])) - shift[m0:]
        self.flip = np.concatenate((self.flip, raw < 0))
        sign = np.where(self.flip, -1.0, 1.0)
        self.b = np.concatenate((self.b - sign[:m0] * shift[:m0], np.abs(raw)))
        val *= sign[row]
        sense = np.concatenate((lp._sense[R0:], np.full(bounded.size, _LE, dtype=np.int8)))
        flip = self.flip[m0:]
        le = np.where(flip, sense == _GE, sense == _LE)
        ge = np.where(flip, sense == _LE, sense == _GE)

        # Column layout of the extension: structural | slack | artificial.
        slack_rows = np.flatnonzero(le | ge)
        art_rows = np.flatnonzero(~le)
        k_var, k_slack, k_art = n - n0, slack_rows.size, art_rows.size
        total = t0 + k_var + k_slack + k_art
        self.var_col = np.concatenate((self.var_col, t0 + np.arange(k_var)))
        slack_col = np.full(m - m0, -1, dtype=np.int64)
        slack_col[slack_rows] = t0 + k_var + np.arange(k_slack)
        self.slack_col = np.concatenate((self.slack_col, slack_col))
        self.cols.append(
            np.concatenate((row, m0 + slack_rows, m0 + art_rows)),
            np.concatenate((self.var_col[var], slack_col[slack_rows], total - k_art + np.arange(k_art))),
            np.concatenate((val, np.where(le[slack_rows], 1.0, -1.0), np.ones(k_art))),
            m,
            total,
        )
        self.row_var = np.concatenate((self.row_var, np.full(R - R0, -1), bounded))
        self.art = np.concatenate((self.art, np.zeros(k_var + k_slack, dtype=bool), np.ones(k_art, dtype=bool)))
        self.c = np.concatenate((self.c, lp.objective[n0:], np.zeros(k_slack + k_art)))
        self.n, self.R, self.e = n, R, lp._row.size
        self.objective, self.lower, self.upper = lp.objective.copy(), lp.lower.copy(), lp.upper.copy()

    def cold_basis(self) -> np.ndarray:
        """Each row's artificial, or its slack where it has none: unit
        columns of value +1, so the inverse is the identity."""
        basis = self.slack_col.copy()
        art = np.flatnonzero(self.art)
        basis[self.cols.rows[self.cols.colptr[art]]] = art
        return basis

    def public_basis(self, basis: np.ndarray) -> Basis:
        """``basis`` (column indices) as LP variables and as rows numbered
        LP rows first, then upper-bound rows in variable order."""
        total = self.cols.total
        var = np.full(total, -1, dtype=np.int64)
        var[self.var_col] = np.arange(self.n)
        has = np.flatnonzero(self.slack_col >= 0)
        slack_row = np.full(total, -1, dtype=np.int64)
        slack_row[self.slack_col[has]] = has
        basic_var, rows = var[basis], slack_row[basis]
        rows = rows[rows >= 0]
        public = np.empty(self.cols.m, dtype=np.int64)
        public[self.lp_row] = np.arange(self.R)
        bound = np.flatnonzero(self.row_var >= 0)
        public[bound] = self.R + np.cumsum(np.isfinite(self.upper))[self.row_var[bound]] - 1
        return Basis(columns=np.sort(basic_var[basic_var >= 0]), slack_rows=np.sort(public[rows]))


def _solve(lp: LinearProgram, hint: Basis | None, bland: bool) -> LpSolution:
    live, lp._live = lp._live, None
    if (lp.upper - lp.lower < -FEAS_TOL).any():
        return LpSolution(status="infeasible")
    if lp.num_rows == 0 and not np.isfinite(lp.upper).any():
        # Only bounds: optimum at lower bound (or unbounded if a negative
        # cost variable has no upper bound, which would have made a row).
        if (lp.objective < -OPT_TOL).any():
            return LpSolution(status="unbounded")
        x = lp.lower.copy()
        return LpSolution(status="optimal", x=x, objective=float(lp.objective @ x), duals=np.zeros(0))

    state = live.resume(lp) if live is not None and hint is None else None
    warm = state is not None
    if not warm:
        model = _Model()
        model.extend(lp)
        state = _warm_state(model, hint)
        warm = state is not None
    if not warm:
        state = _State(model, model.cold_basis())
        if model.art.any():
            c1 = model.art.astype(float)
            status = _iterate(state, c1, locked=np.zeros(model.cols.total, dtype=bool), bland=bland)
            if status == "unbounded":  # cannot happen: phase-1 objective >= 0
                raise NumericalError("phase 1 reported unbounded")
            if state.objective(c1) > FEAS_TOL:
                return LpSolution(status="infeasible", iterations=state.iters)
            _evict_artificials(state, model.art)

    model = state.model
    status = _iterate(state, model.c, locked=model.art, bland=bland)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=state.iters, warm=warm)

    # _iterate declares optimality only right after a refactorization.
    x_full = np.zeros(model.cols.total)
    x_full[state.basis] = state.xb
    if x_full[model.art].max(initial=0.0) > FEAS_TOL:
        raise NumericalError("artificial variable positive at optimum")
    x = x_full[model.var_col] + model.lower

    resid = model.cols.right_multiply(x_full) - model.b
    if np.abs(resid).max(initial=0.0) > 1e2 * FEAS_TOL:
        raise NumericalError(f"feasibility residual {np.abs(resid).max():.3e}")

    y = model.c[state.basis] @ state.binv
    dual_obj = float(y @ model.b) + float(model.objective @ model.lower)
    primal_obj = float(model.objective @ x)
    gap = abs(primal_obj - dual_obj)
    if gap > 1e-6 * (1.0 + abs(primal_obj)):
        raise NumericalError(f"duality gap {gap:.3e} at objective {primal_obj:.6g}")

    y = y[model.lp_row]
    lp._live = state
    return LpSolution(
        status="optimal",
        x=x,
        objective=primal_obj,
        duals=np.where(model.flip[model.lp_row], -y, y),
        iterations=state.iters,
        basis=model.public_basis(state.basis),
        warm=warm,
    )


def _warm_state(model: _Model, hint: Basis | None):
    """Simplex state at the hinted basis, or None when the hint is not a
    primal feasible basis of the model, which is built from nothing (so its
    rows and columns are numbered as in ``Basis``)."""
    if hint is None:
        return None
    m, n = model.cols.m, model.n
    columns = np.asarray(hint.columns, dtype=np.int64).reshape(-1)
    rows = np.asarray(hint.slack_rows, dtype=np.int64).reshape(-1)
    if columns.size + rows.size != m:
        return None
    if columns.size and (columns.min() < 0 or columns.max() >= n):
        return None
    if rows.size and (rows.min() < 0 or rows.max() >= m or (model.slack_col[rows] < 0).any()):
        return None
    basis = np.concatenate([model.var_col[columns], model.slack_col[rows]])
    if np.unique(basis).size != m:
        return None
    try:
        state = _State(model, basis, factor=True)
    except NumericalError:
        return None
    if not np.isfinite(state.xb).all() or state.xb.min() < -FEAS_TOL:
        return None
    x_full = np.zeros(model.cols.total)
    x_full[basis] = state.xb
    if np.abs(model.cols.right_multiply(x_full) - model.b).max() > FEAS_TOL:
        return None
    return state


class _State:
    """Basis, dense basis inverse and basic values of a model.  A cold start
    begins at a basis of unit columns, whose inverse is the identity."""

    def __init__(self, model: _Model, basis: np.ndarray, factor: bool = False):
        self.model = model
        self.cols = model.cols
        self.basis = basis
        self.m = model.cols.m
        self.iters = 0
        self.since_refactor = 0
        self.binv = None
        if factor:
            self.refactor()
        else:
            self.binv = np.eye(self.m)
            self.xb = model.b.copy()

    def resume(self, lp: LinearProgram):
        """This state carried over to what ``lp`` gained since it was
        solved: the model is extended, each new row enters with its slack
        basic and the inverse grows by the block formula.  None when the LP
        changed otherwise, an artificial is still basic, a new row has no
        slack, or the extended basis is not primal feasible."""
        model = self.model
        if not model.covers(lp) or model.art[self.basis].any():
            # A basic artificial sits on a redundant row, where no column had
            # an entry; an appended column may have one, and phase 2 (which
            # never prices artificials) would not keep the row satisfied.
            return None
        m0 = self.m
        model.extend(lp)
        m = model.cols.m
        slack = model.slack_col[m0:]
        if (slack < 0).any():
            return None
        if m > m0:
            # R: the new rows' entries on the basic columns, by position.
            cols = model.cols
            pos = np.full(cols.total, -1, dtype=np.int64)
            pos[self.basis] = np.arange(m0)
            at = pos[cols.cols]
            sel = (cols.rows >= m0) & (at >= 0)
            R = np.zeros((m - m0, m0))
            np.add.at(R, (cols.rows[sel] - m0, at[sel]), cols.vals[sel])
            s = cols.vals[cols.colptr[slack]]
            binv = np.zeros((m, m))
            binv[:m0, :m0] = self.binv
            binv[m0:, :m0] = -(R @ self.binv) / s[:, None]
            binv[np.arange(m0, m), np.arange(m0, m)] = 1.0 / s
            self.binv, self.m = binv, m
            self.basis = np.concatenate((self.basis, slack))
        self.xb = self.binv @ model.b
        # Optimality is declared against a fresh factorization only.
        self.iters, self.since_refactor = 0, 1
        if not np.isfinite(self.xb).all() or self.xb.min(initial=0.0) < -FEAS_TOL:
            return None
        return self

    def objective(self, c: np.ndarray) -> float:
        return float(c[self.basis] @ self.xb)

    def direction(self, col: int) -> np.ndarray:
        rows, vals = self.cols.column(col)
        return self.binv[:, rows] @ vals

    def refactor(self) -> None:
        """Invert the basis by blocks.  Basic columns with a single nonzero
        (slacks, artificials, one-row variables) in distinct rows make the
        basis block triangular up to permutation, so only the square block of
        the other columns on the other rows needs a dense inverse.  The
        inverse is written into the current one's buffer when it fits."""
        cols, basis, m = self.cols, self.basis, self.m
        lo = cols.colptr[basis]
        single = np.flatnonzero((cols.colptr[basis + 1] - lo == 1) & (cols.vals[lo] != 0.0))
        _, first = np.unique(cols.rows[lo[single]], return_index=True)
        unit_pos = single[first]
        unit_row = cols.rows[lo[unit_pos]]
        scale = cols.vals[lo[unit_pos]]
        other_pos = _others(unit_pos, m)
        other_row = _others(unit_row, m)
        if other_pos.size:
            B_other = cols.gather(basis[other_pos])
            try:
                inner = np.linalg.inv(B_other[other_row])
            except np.linalg.LinAlgError as exc:
                raise NumericalError("singular basis during refactorization") from exc
        binv = self.binv
        if binv is None or binv.shape != (m, m):
            binv = np.zeros((m, m))
        else:
            binv.fill(0.0)
        binv[unit_pos, unit_row] = 1.0 / scale
        if other_pos.size:
            binv[np.ix_(other_pos, other_row)] = inner
            binv[np.ix_(unit_pos, other_row)] = -(B_other[unit_row] @ inner) / scale[:, None]
        self.binv = binv
        self.xb = binv @ self.model.b
        self.since_refactor = 0

    def pivot(self, row: int, col: int, direction: np.ndarray) -> None:
        """Basis change; ``direction`` (binv @ a_col) is consumed."""
        piv = direction[row]
        if abs(piv) < PIVOT_TOL:
            raise NumericalError("pivot element below tolerance")
        theta = self.xb[row] / piv
        self.xb -= theta * direction
        self.xb[row] = theta
        binv = self.binv
        binv[row] /= piv
        direction[row] = 0.0
        # Rank-one update in place, restricted to the nonzero block when it
        # is small (entries outside it would subtract exact zeros).
        lhs = np.flatnonzero(direction)
        rhs = np.flatnonzero(binv[row])
        if 3 * lhs.size * rhs.size < self.m * self.m:
            binv[np.ix_(lhs, rhs)] -= np.outer(direction[lhs], binv[row, rhs])
        else:
            # By row chunks, so that no m x m temporary is allocated.
            pivot_row = binv[row].copy()
            step = max(1, UPDATE_CHUNK // self.m)
            for top in range(0, self.m, step):
                binv[top : top + step] -= np.multiply.outer(direction[top : top + step], pivot_row)
        self.basis[row] = col
        self.iters += 1
        self.since_refactor += 1
        if self.since_refactor >= REFACTOR_EVERY:
            self.refactor()


def _iterate(state: _State, c: np.ndarray, locked: np.ndarray, bland: bool = False) -> str:
    """Run simplex iterations to optimality of cost vector ``c``.

    Dantzig pricing; Bland's rule engages permanently after the objective
    stalls (anti-cycling).  The ratio test breaks ties toward the largest
    pivot element, which keeps the basis inverse well conditioned.  Locked
    columns never enter.  The duals ``y`` get a rank-one update per pivot
    and are recomputed at each refactorization; optimality is confirmed
    against a fresh factorization.
    """
    m = state.m
    total = state.cols.total
    stall = 0
    stall_limit = 3 * m + 50
    max_iters = 60 * (m + total) + 10_000
    last_obj = np.inf
    start_iters = state.iters

    y = None
    while True:
        if state.iters - start_iters > max_iters:
            raise NumericalError("simplex iteration limit exceeded")
        if y is None or state.since_refactor == 0:
            y = c[state.basis] @ state.binv
        reduced = c - state.cols.left_multiply(y)
        reduced[locked] = 0.0
        candidates = np.flatnonzero(reduced < -OPT_TOL)
        if candidates.size == 0:
            if state.since_refactor == 0:
                return "optimal"
            state.refactor()
            continue
        if bland:
            enter = int(candidates[0])
        else:
            enter = int(candidates[np.argmin(reduced[candidates])])

        direction = state.direction(enter)
        positive = np.flatnonzero(direction > PIVOT_TOL)
        if positive.size == 0:
            return "unbounded"
        xb = np.maximum(state.xb, 0.0)
        ratios = xb[positive] / direction[positive]
        best = ratios.min()
        ties = positive[np.flatnonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))]
        if bland:
            leave = int(ties[np.argmin(state.basis[ties])])
        else:
            leave = int(ties[np.argmax(direction[ties])])
        state.pivot(leave, enter, direction)
        y += reduced[enter] * state.binv[leave]

        obj = state.objective(c)
        if obj < last_obj - 1e-12:
            last_obj = obj
            stall = 0
        else:
            stall += 1
            if stall > stall_limit and not bland:
                bland = True
                stall = 0


def _evict_artificials(state: _State, art_mask: np.ndarray) -> None:
    """Pivot basic artificials out where possible; redundant rows keep a
    zero-level artificial which stays locked for phase 2."""
    for row in range(state.m):
        col = state.basis[row]
        if not art_mask[col]:
            continue
        entries = state.cols.left_multiply(state.binv[row])
        entries[art_mask] = 0.0
        nz = np.flatnonzero(np.abs(entries) > 1e3 * PIVOT_TOL)
        nz = nz[nz != col]
        if nz.size:
            enter = int(nz[0])
            state.pivot(row, enter, state.direction(enter))


def _others(idx: np.ndarray, m: int) -> np.ndarray:
    """0..m-1 without ``idx``, in increasing order."""
    keep = np.ones(m, dtype=bool)
    keep[idx] = False
    return np.flatnonzero(keep)
