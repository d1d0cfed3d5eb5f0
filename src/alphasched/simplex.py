"""Sparse two-phase revised simplex with dual values and warm starts.

Solves ``min c.x  s.t.  rows, lb <= x <= ub`` and returns primal and dual
optima together with the optimal basis.  The implementation is deliberately
self-contained: dual values per row are needed downstream for column
generation, and the library depends on numpy alone.

The constraint matrix is held column-wise and sparse (numpy ``colptr``, row
index and value arrays); slack, surplus and artificial columns are unit
columns.  Only the basis inverse is dense (m x m).  Pricing computes
``y . a_j`` over the nonzeros, the entering direction is
``binv[:, rows] @ vals``, each pivot applies a rank-one update to the inverse
in place and updates the basic values, and refactorization gathers the basic
columns into a dense matrix and inverts it.

A solve can start from a given basis (``solve_lp(lp, basis)``), such as the
optimum of the previous round of a column-generation master: the basic
structural variables plus the rows whose slack is basic.  A basis of the
wrong size, a singular one or a primal infeasible one falls back to the cold
two-phase start.

Pivoting uses Dantzig's rule with an automatic switch to Bland's rule once a
degeneracy stall is detected; optimality is only declared against a fresh
factorization.  Every answer, warm or cold, passes the same final
certificate: primal residual, no positive artificial, duality gap.
Numerical failure raises, never returns silently wrong answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
OPT_TOL = 1e-7
REFACTOR_EVERY = 120

_SENSES = ("<=", "==", ">=")


class LpError(ValueError):
    """Malformed linear program (dimension mismatch, bad sense, non-finite)."""


class NumericalError(RuntimeError):
    """Simplex failed to converge or the factorization went bad."""


@dataclass
class LinearProgram:
    """Sparse-row LP in minimization form.

    Rows are (indices, coefficients, sense, rhs).  Variables default to
    ``x >= 0``; per-variable lower/upper bounds may be set.
    """

    num_vars: int
    objective: np.ndarray = None
    rows: list = field(default_factory=list)
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        n = int(self.num_vars)
        if n < 1:
            raise LpError("LP needs at least one variable")
        if self.objective is None:
            self.objective = np.zeros(n)
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (n,):
            raise LpError(f"objective must have shape ({n},)")
        if self.lower is None:
            self.lower = np.zeros(n)
        self.lower = np.asarray(self.lower, dtype=float)
        if self.upper is None:
            self.upper = np.full(n, np.inf)
        self.upper = np.asarray(self.upper, dtype=float)
        if not np.isfinite(self.objective).all() or not np.isfinite(self.lower).all():
            raise LpError("objective and lower bounds must be finite")

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
        idx = np.asarray(indices, dtype=np.int64)
        val = np.asarray(coeffs, dtype=float)
        if idx.shape != val.shape or idx.ndim != 1:
            raise LpError("row indices and coefficients must be 1-d and aligned")
        ptr = np.asarray(indptr, dtype=np.int64)
        b = np.asarray(rhs, dtype=float)
        senses = list(senses)
        count = ptr.size - 1
        if ptr.ndim != 1 or count < 0 or len(senses) != count or b.shape != (count,):
            raise LpError("row pointers, senses and right-hand sides must describe the same rows")
        bounds = ptr.tolist()
        if bounds[0] != 0 or bounds[-1] != idx.size or (ptr[1:] < ptr[:-1]).any():
            raise LpError("row pointers must rise from 0 to the number of entries")
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_vars):
            raise LpError("row index out of range")
        unknown = [s for s in senses if s not in _SENSES]
        if unknown:
            raise LpError(f"unknown sense {unknown[0]!r}")
        if not np.isfinite(val).all() or not np.isfinite(b).all():
            raise LpError("row coefficients and rhs must be finite")
        first = len(self.rows)
        spans = list(zip(bounds, bounds[1:]))
        self.rows.extend(
            zip([idx[lo:hi] for lo, hi in spans], [val[lo:hi] for lo, hi in spans], senses, b.tolist())
        )
        return range(first, len(self.rows))


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
    warm: bool = False  # the solve started from the given basis


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

    ``basis`` optionally names a starting basis; if it does not fit the LP,
    is singular or is primal infeasible the solve starts cold.  A
    numerically troubled run is retried once, cold and in a conservative
    mode (Bland's rule throughout, frequent refactorization), before giving
    up.
    """
    try:
        return _solve(lp, basis, safe=False)
    except NumericalError:
        return _solve(lp, None, safe=True)


class _Columns:
    """Column-wise sparse matrix: column j holds ``vals[colptr[j]:colptr[j+1]]``
    in rows ``rows[...]``; ``cols`` repeats each entry's column index."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, m: int, total: int):
        order = np.argsort(cols, kind="stable")
        self.rows = rows[order]
        self.cols = cols[order]
        self.vals = vals[order]
        self.colptr = np.concatenate(([0], np.cumsum(np.bincount(self.cols, minlength=total))))
        self.m = m
        self.total = total
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


def _solve(lp: LinearProgram, hint: Basis | None, safe: bool) -> LpSolution:
    n = lp.num_vars
    n_rows = len(lp.rows)

    # Shift lower bounds to zero, turn finite upper bounds into extra rows.
    shift = lp.lower.copy()
    ub_vars = np.flatnonzero(np.isfinite(lp.upper))
    ub = lp.upper[ub_vars] - shift[ub_vars]
    if (ub < -FEAS_TOL).any():
        return LpSolution(status="infeasible")
    m = n_rows + ub_vars.size
    if m == 0:
        # Only bounds: optimum at lower bound (or unbounded if a negative
        # cost variable has no upper bound, which would have made a row).
        if (lp.objective < -OPT_TOL).any():
            return LpSolution(status="unbounded")
        x = shift.copy()
        return LpSolution(status="optimal", x=x, objective=float(lp.objective @ x), duals=np.zeros(0))

    # Entries (row, column, value) of the LP's rows, then one unit entry
    # per upper-bound row.
    lengths = np.array([idx.size for idx, _, _, _ in lp.rows], dtype=np.int64)
    nnz = int(lengths.sum())
    row_of = np.concatenate([np.repeat(np.arange(n_rows), lengths), n_rows + np.arange(ub_vars.size)])
    col_of = np.concatenate([idx for idx, _, _, _ in lp.rows] + [ub_vars])
    val = np.concatenate([v for _, v, _, _ in lp.rows] + [np.ones(ub_vars.size)])
    rhs = np.array([r for _, _, _, r in lp.rows], dtype=float)
    rhs -= np.bincount(row_of[:nnz], weights=val[:nnz] * shift[col_of[:nnz]], minlength=n_rows)
    b = np.concatenate([rhs, ub])
    senses = np.array([s for _, _, s, _ in lp.rows] + ["<="] * ub_vars.size)

    # Orient every row so b >= 0; remember flips to restore dual signs.
    flip = b < 0
    b[flip] *= -1.0
    val = np.where(flip[row_of], -val, val)
    le = np.where(flip, senses == ">=", senses == "<=")
    ge = np.where(flip, senses == "<=", senses == ">=")

    # Column layout: structural | slack/surplus | artificial.
    slack_rows = np.flatnonzero(le | ge)
    art_rows = np.flatnonzero(~le)
    n_slack, n_art = slack_rows.size, art_rows.size
    total = n + n_slack + n_art
    cols = _Columns(
        np.concatenate([row_of, slack_rows, art_rows]),
        np.concatenate([col_of, n + np.arange(n_slack + n_art)]),
        np.concatenate([val, np.where(le[slack_rows], 1.0, -1.0), np.ones(n_art)]),
        m,
        total,
    )
    slack_col = np.full(m, -1, dtype=np.int64)
    slack_col[slack_rows] = n + np.arange(n_slack)

    art_mask = np.zeros(total, dtype=bool)
    art_mask[n + n_slack :] = True
    c2 = np.zeros(total)
    c2[:n] = lp.objective
    refactor_every = 20 if safe else REFACTOR_EVERY

    state = _warm_state(cols, b, hint, slack_col, n, refactor_every)
    warm = state is not None
    if not warm:
        basis = np.empty(m, dtype=np.int64)
        basis[le] = slack_col[le]
        basis[art_rows] = n + n_slack + np.arange(n_art)
        state = _State(cols, b, basis, refactor_every)
        if n_art:
            c1 = art_mask.astype(float)
            status = _iterate(state, c1, locked=np.zeros(total, dtype=bool), bland=safe)
            if status == "unbounded":  # cannot happen: phase-1 objective >= 0
                raise NumericalError("phase 1 reported unbounded")
            if state.objective(c1) > FEAS_TOL:
                return LpSolution(status="infeasible", iterations=state.iters)
            _evict_artificials(state, art_mask)

    status = _iterate(state, c2, locked=art_mask, bland=safe)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=state.iters, warm=warm)

    # _iterate declares optimality only right after a refactorization.
    x_full = np.zeros(total)
    x_full[state.basis] = state.xb
    if x_full[art_mask].max(initial=0.0) > FEAS_TOL:
        raise NumericalError("artificial variable positive at optimum")
    x = x_full[:n] + shift

    resid = cols.right_multiply(x_full) - b
    if np.abs(resid).max(initial=0.0) > 1e2 * FEAS_TOL:
        raise NumericalError(f"feasibility residual {np.abs(resid).max():.3e}")

    y = c2[state.basis] @ state.binv
    dual_obj = float(y @ b) + float(lp.objective @ shift)
    primal_obj = float(lp.objective @ x)
    gap = abs(primal_obj - dual_obj)
    if gap > 1e-6 * (1.0 + abs(primal_obj)):
        raise NumericalError(f"duality gap {gap:.3e} at objective {primal_obj:.6g}")

    duals = np.where(flip[:n_rows], -y[:n_rows], y[:n_rows])
    basic = np.sort(state.basis)
    slack_basic = basic[(basic >= n) & (basic < n + n_slack)] - n
    return LpSolution(
        status="optimal",
        x=x,
        objective=primal_obj,
        duals=duals,
        iterations=state.iters,
        basis=Basis(columns=basic[basic < n], slack_rows=slack_rows[slack_basic]),
        warm=warm,
    )


def _warm_state(
    cols: _Columns, b: np.ndarray, hint: Basis | None, slack_col: np.ndarray, n: int, refactor_every: int
):
    """Simplex state at the hinted basis, or None when the hint is not a
    primal feasible basis of this LP."""
    if hint is None:
        return None
    m = cols.m
    columns = np.asarray(hint.columns, dtype=np.int64).reshape(-1)
    rows = np.asarray(hint.slack_rows, dtype=np.int64).reshape(-1)
    if columns.size + rows.size != m:
        return None
    if columns.size and (columns.min() < 0 or columns.max() >= n):
        return None
    if rows.size and (rows.min() < 0 or rows.max() >= m or (slack_col[rows] < 0).any()):
        return None
    basis = np.concatenate([columns, slack_col[rows]])
    if np.unique(basis).size != m:
        return None
    try:
        state = _State(cols, b, basis, refactor_every, factor=True)
    except NumericalError:
        return None
    if not np.isfinite(state.xb).all() or state.xb.min() < -FEAS_TOL:
        return None
    x_full = np.zeros(cols.total)
    x_full[basis] = state.xb
    if np.abs(cols.right_multiply(x_full) - b).max() > FEAS_TOL:
        return None
    return state


class _State:
    """Basis, dense basis inverse and basic values.  A cold start begins at
    a basis of unit columns, whose inverse is the identity."""

    def __init__(
        self, cols: _Columns, b: np.ndarray, basis: np.ndarray, refactor_every: int, factor: bool = False
    ):
        self.cols = cols
        self.b = b
        self.basis = basis
        self.m = cols.m
        self.iters = 0
        self.since_refactor = 0
        self.refactor_every = refactor_every
        if factor:
            self.refactor()
        else:
            self.binv = np.eye(self.m)
            self.xb = b.copy()

    def objective(self, c: np.ndarray) -> float:
        return float(c[self.basis] @ self.xb)

    def direction(self, col: int) -> np.ndarray:
        rows, vals = self.cols.column(col)
        return self.binv[:, rows] @ vals

    def refactor(self) -> None:
        """Invert the basis by blocks.  Basic columns with a single nonzero
        (slacks, artificials, one-row variables) in distinct rows make the
        basis block triangular up to permutation, so only the square block of
        the other columns on the other rows needs a dense inverse."""
        cols, basis, m = self.cols, self.basis, self.m
        lo = cols.colptr[basis]
        single = np.flatnonzero((cols.colptr[basis + 1] - lo == 1) & (cols.vals[lo] != 0.0))
        _, first = np.unique(cols.rows[lo[single]], return_index=True)
        unit_pos = single[first]
        unit_row = cols.rows[lo[unit_pos]]
        scale = cols.vals[lo[unit_pos]]
        other_pos = np.setdiff1d(np.arange(m), unit_pos)
        other_row = np.setdiff1d(np.arange(m), unit_row)
        binv = np.zeros((m, m))
        binv[unit_pos, unit_row] = 1.0 / scale
        if other_pos.size:
            B_other = cols.gather(basis[other_pos])
            try:
                inner = np.linalg.inv(B_other[other_row])
            except np.linalg.LinAlgError as exc:
                raise NumericalError("singular basis during refactorization") from exc
            binv[np.ix_(other_pos, other_row)] = inner
            binv[np.ix_(unit_pos, other_row)] = -(B_other[unit_row] @ inner) / scale[:, None]
        self.binv = binv
        self.xb = binv @ self.b
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
            binv -= np.multiply.outer(direction, binv[row])
        self.basis[row] = col
        self.iters += 1
        self.since_refactor += 1
        if self.since_refactor >= self.refactor_every:
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
