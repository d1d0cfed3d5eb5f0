"""Sparse revised simplex with dual values, from a given basis or a resume.

Solves ``min c.x  s.t.  rows, x >= 0`` and returns its primal and dual
optima.  The implementation is deliberately self-contained: dual values per
row are needed downstream for column generation, and the library depends on
numpy alone.

A ``LinearProgram`` only grows, and it is held column-wise, the way the
simplex reads it: ``add_rows`` appends rows, each a sense and a right-hand
side with no entries, and ``add_columns`` appends variables, each a cost
and its entries in existing rows, copied from the caller's arrays.  Every
variable is non-negative and has no other bound; a bound is a row.  It
refuses, with ``LpError`` and before it appends anything, growth whose rows
would need a basis inverse over ``MAX_BASIS_INVERSE_BYTES``.  The solver
works on its standard form: the LP's rows as they are, and slack and
surplus unit columns, +1 in a ``<=`` row and -1 in a ``>=`` row.  That
matrix is held column-wise and sparse: the variables' columns in the LP's
own ``colptr``, row index and value arrays, shared and not copied again,
and each unit column as its one row and value.  Only the basis inverse is
dense (m x m).  The store also indexes each column's runs, stretches of
entries in consecutive rows with one value.  Pricing computes ``y @ A``
from one prefix sum of y and one term per run, and ``A @ x`` is a
difference array over the runs, so both cost O(runs + rows): a start-time
variable's cover rows are one run, however long the job.  The entering
direction is ``binv[:, rows] @ vals``, each pivot applies a rank-one update
to the inverse in place and updates the basic values, and refactorization
inverts only the block of basic columns that are not unit columns.

Every solve starts from a basis its caller names, or resumes one; there is
no phase 1.  A row takes a start when its slack alone is infeasible at
x = 0: every equation row, a ``<=`` row with a negative right-hand side
and a ``>=`` row with a positive one.  ``solve_lp(lp, start)`` starts from
the variables ``start``, one per row that takes a start, in the order
given, followed by the slack or surplus of every other row, in row order;
``start = []`` is the all-slack basis.  A start that does not name a
primal feasible basis raises: ``LpError`` when a variable is missing or
repeated or the count is not the number of those rows, ``NumericalError``
when the basis is singular, and ``LpError`` when it is not primal
feasible.

After an optimal solve the LP keeps the solver's state: the standard form
with its column store, the basis, the basis inverse and the basic values.
The next ``solve_lp(lp)`` resumes from it: whatever the LP gained since,
rows with no entries and variables, is what a column-generation master
appends.  The new variables join the column store as nonbasic columns after
all others, and the new rows enter with their slack basic.  No basic column
has an entry in a new row, so the inverse grows by the new slacks' diagonal
``1/s``.  A resume raises ``LpError`` when an appended row takes a start or
the extended basis is not primal feasible.  ``solve_lp(lp)`` with no state
to resume is ``solve_lp(lp, [])``.

Pivoting uses Dantzig's rule; the ratio test breaks ties toward the largest
pivot element.  Degenerate bases, such as the chain-LP masters', are handled
by one mechanism (Wolfe, J. SIAM 11, 1963): at every pivot that does not
lower the objective the right-hand side is shifted along each basic column
whose value is below ``FEAS_TOL``, which lifts that value alone.  At the
perturbed optimum the shift is dropped, the basic values are recomputed on
the factorization at hand, and dual simplex pivots repair any basic value
left below ``-FEAS_TOL``.  Optimality is only declared against a fresh
factorization, and every answer passes the same final certificate: primal
residual and duality gap.  Numerical failure raises ``NumericalError``: no
retry, no silently wrong answer.

Each solution's ``stats`` counts, for that solve, its pivots (all of them,
as ``iterations``), perturbations, dual repair pivots and refactorizations
(after the starting basis was factorized).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Smallest pivot element: on 0/1 chain masters, round-off of a true zero
# reached 1e-8, and a pivot on it left the basis singular.
PIVOT_TOL = 1e-7
FEAS_TOL = 1e-7
OPT_TOL = 1e-7
REFACTOR_EVERY = 120
# The right-hand side is perturbed at each pivot that does not lower the
# objective; the lifted basic values grow by PERTURB times a factor in [1, 2).
PERTURB = 1e-6
# Entries per row chunk of a dense rank-one update of the basis inverse.
UPDATE_CHUNK = 8192
# Largest dense basis inverse a LinearProgram may grow to need: 512 MiB,
# 8192 standard-form rows.  A solve holds up to about three matrices of that
# size at once (the inverse, and during a refactorization the gathered basis
# columns and the inverse of their block).
MAX_BASIS_INVERSE_BYTES = 2**29

_SENSES = ("<=", "==", ">=")
_LE, _EQ, _GE = _SENSES.index("<="), _SENSES.index("=="), _SENSES.index(">=")
_CODES = {s: k for k, s in enumerate(_SENSES)}
# The counters of one solve, the keys of LpSolution.stats.
STATS = ("pivots", "perturbations", "dual_pivots", "refactorizations")


class LpError(ValueError):
    """Malformed linear program (dimension mismatch, bad sense, non-finite)
    or a start or resume that is not a primal feasible basis of it."""


class NumericalError(RuntimeError):
    """Simplex failed to converge or the factorization went bad."""


class LinearProgram:
    """Sparse LP in minimization form that grows by appending.

    Rows are appended with a sense and a right-hand side and no entries,
    variables with a cost and their entries in existing rows.  Every
    variable is ``x >= 0`` with no other bound.  The LP is held by columns:
    variable k has the coefficients ``_val[_ptr[k]:_ptr[k + 1]]`` in the
    rows ``_row[...]``.  Those arrays, the senses, the right-hand sides and
    ``objective`` are read-only copies, only replaced by longer ones, and a
    solve's standard form shares them.
    """

    def __init__(self):
        self._ptr = _frozen(np.zeros(1, dtype=np.int64))
        self._row = _frozen(np.zeros(0, dtype=np.int64))
        self._val = self._cost = self._rhs = _frozen(np.zeros(0))
        self._sense = _frozen(np.zeros(0, dtype=np.int8))  # index into _SENSES
        self._live = None  # solver state after the last optimal solve

    @property
    def num_vars(self) -> int:
        return self._ptr.size - 1

    @property
    def num_rows(self) -> int:
        return self._rhs.size

    @property
    def objective(self) -> np.ndarray:
        """One cost per variable, read-only."""
        return self._cost

    @property
    def upper(self) -> np.ndarray:
        """+inf per variable, read-only: no variable has an upper bound.
        Kept because the benchmark's tracer (``perfbench/spans.py``) reads
        it to count standard-form rows."""
        return _frozen(np.full(self.num_vars, np.inf))

    @property
    def rows(self) -> list:
        """(indices, coefficients, sense, rhs) per row, entries by variable;
        the arrays are read-only.  Built from the columns on every read."""
        # Row numbers in the smallest unsigned type: numpy's stable sort of
        # 16-bit integers is a radix sort.
        order = np.argsort(self._row.astype(np.min_scalar_type(self.num_rows)), kind="stable")
        var = np.repeat(np.arange(self.num_vars), np.diff(self._ptr))
        col, val = _frozen(var[order]), _frozen(self._val[order])
        ends = np.cumsum(np.bincount(self._row, minlength=self.num_rows)).tolist()
        return [
            (col[lo:hi], val[lo:hi], _SENSES[s], rhs)
            for lo, hi, s, rhs in zip([0] + ends, ends, self._sense.tolist(), self._rhs.tolist())
        ]

    def add_rows(self, senses, rhs) -> range:
        """Append rows with no entries: row k has sense ``senses[k]`` and
        right-hand side ``rhs[k]``.  Either every row is appended or, on
        malformed input, none; returns their indices."""
        b = np.asarray(rhs, dtype=float)
        senses = list(senses)
        if b.shape != (len(senses),):
            raise LpError("senses and right-hand sides must describe the same rows")
        self.reserve(b.size)
        try:  # one dict lookup per sense, all in C
            codes = np.fromiter(map(_CODES.__getitem__, senses), np.int8, b.size)
        except (KeyError, TypeError):
            unknown = next(s for s in senses if s not in _SENSES)
            raise LpError(f"unknown sense {unknown!r}") from None
        if not np.isfinite(b).all():
            raise LpError("right-hand sides must be finite")
        first = self.num_rows
        self._sense = _frozen(np.concatenate((self._sense, codes)))
        self._rhs = _frozen(np.concatenate((self._rhs, b)))
        return range(first, self.num_rows)

    def add_columns(self, indptr, rows, coeffs, objective) -> range:
        """Append variables ``x >= 0`` in compressed form: variable k has
        the coefficients ``coeffs[indptr[k]:indptr[k + 1]]`` in the existing
        rows ``rows[...]`` and cost ``objective[k]``.  Either every variable
        is appended or, on malformed input, none; returns their indices.
        Every append copies, so the caller's arrays stay the caller's."""
        idx = np.asarray(rows, dtype=np.int64)
        val = np.asarray(coeffs, dtype=float)
        if idx.shape != val.shape or idx.ndim != 1:
            raise LpError("column rows and coefficients must be 1-d and aligned")
        ptr = np.asarray(indptr, dtype=np.int64)
        if ptr.ndim != 1 or ptr.size < 1:
            raise LpError("column pointers must be a non-empty 1-d array")
        if ptr[0] != 0 or ptr[-1] != idx.size or (ptr[1:] < ptr[:-1]).any():
            raise LpError("column pointers must rise from 0 to the number of entries")
        cost = np.asarray(objective, dtype=float)
        if cost.shape != (ptr.size - 1,):
            raise LpError(f"objective must have shape ({ptr.size - 1},)")
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_rows):
            raise LpError("column row index out of range")
        if not np.isfinite(val).all() or not np.isfinite(cost).all():
            raise LpError("column coefficients and costs must be finite")
        first, e = self.num_vars, self._row.size
        self._row = _frozen(np.concatenate((self._row, idx)))
        self._val = _frozen(np.concatenate((self._val, val)))
        self._ptr = _frozen(np.concatenate((self._ptr, ptr[1:] + e)))
        self._cost = _frozen(np.concatenate((self._cost, cost)))
        return range(first, self.num_vars)

    def reserve(self, rows: int) -> None:
        """Raise LpError unless ``rows`` more rows keep the dense basis
        inverse within ``MAX_BASIS_INVERSE_BYTES`` (inclusive).  Appends
        check this themselves; a builder calls it first to refuse an
        oversized model before it allocates the model's arrays."""
        m = self.num_rows + int(rows)
        if 8 * m * m > MAX_BASIS_INVERSE_BYTES:
            raise LpError(
                f"linear program too large: {m} rows need a {8 * m * m / 2**20:.0f} MiB basis "
                f"inverse, over the {MAX_BASIS_INVERSE_BYTES / 2**20:.0f} MiB limit"
            )


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass
class LpSolution:
    status: str  # optimal | unbounded
    x: np.ndarray = None
    objective: float = np.nan
    duals: np.ndarray = None
    stats: dict = field(default_factory=lambda: dict.fromkeys(STATS, 0))  # counters, see STATS

    @property
    def iterations(self) -> int:
        """The pivots, ``stats["pivots"]``; the benchmark's tracer reads it."""
        return self.stats["pivots"]


def solve_lp(lp: LinearProgram, start: np.ndarray | None = None) -> LpSolution:
    """Solve the LP; on ``optimal`` the solution carries a dual value per
    original row (>= rows have non-negative duals, <= rows non-positive).

    ``start``, one LP variable per row that takes a start, names the
    starting basis; without it the solve resumes the LP's last optimum, or,
    with none, starts from ``[]``, the all-slack basis (see the module
    docstring for both, and for what raises).  However the solve starts,
    each pivot that does not lower the objective perturbs the right-hand
    side until the optimum, which dual simplex pivots then repair for the
    LP itself.  A numerical failure raises ``NumericalError``, with no
    retry.
    """
    live, lp._live = lp._live, None
    if live is not None and start is None:
        state = live.resume(lp)
    else:
        model = _Model()
        model.extend(lp)
        state = _State(model, model.start_basis([] if start is None else start))
    if not (np.isfinite(state.xb).all() and state.xb.min(initial=0.0) >= -FEAS_TOL):
        raise LpError("the starting basis is not primal feasible")

    model = state.model
    if _iterate(state, model.c) == "unbounded":
        return LpSolution(status="unbounded", stats=state.stats())

    # _iterate declares optimality only right after a refactorization.
    x_full = np.zeros(model.cols.total)
    x_full[state.basis] = state.xb
    x = x_full[model.var_col]

    resid = model.cols.right_multiply(x_full) - model.b
    if np.abs(resid).max(initial=0.0) > 1e2 * FEAS_TOL:
        raise NumericalError(f"feasibility residual {np.abs(resid).max():.3e}")

    y = model.c[state.basis] @ state.binv
    dual_obj = float(y @ model.b)
    primal_obj = float(lp.objective @ x)
    gap = abs(primal_obj - dual_obj)
    if gap > 1e-6 * (1.0 + abs(primal_obj)):
        raise NumericalError(f"duality gap {gap:.3e} at objective {primal_obj:.6g}")

    lp._live = state
    return LpSolution(
        status="optimal",
        x=x,
        objective=primal_obj,
        duals=y,
        stats=state.stats(),
    )


class _Columns:
    """Column-wise sparse matrix that grows: column j holds
    ``vals[colptr[j]:colptr[j+1]]`` in rows ``rows[...]``, or, if that is
    empty and ``head_row[j] >= 0``, it is a unit column (a slack or
    surplus) with its one entry ``head_val[j]`` in row ``head_row[j]``;
    ``head_*`` hold every column's only entry, row -1 where it has none or
    several.  ``rows`` and ``vals`` are the arrays the last append was
    given, never copied: a model's are its LP's.

    The products with a vector go by runs: maximal stretches of one
    column's entries that lie in consecutive rows and share one value.  Run
    r is in column ``run_col[r]`` with value ``run_val[r]``.  The first k =
    ``run_ends.shape[1]`` runs hold two or more entries, rows ``run_ends[0,
    r] .. run_ends[1, r] - 1``, and add ``v (Y[hi] - Y[lo])`` to ``y @ A``,
    with Y the prefix sums of y; the others are single entries in rows
    ``one_row[r - k]``, and add ``v y[row]``; each append's unit columns are
    the last of them.  Y sums y over the rows inside longer runs only
    (``in_run``), so rows outside them, such as the job rows of both LPs,
    add no round-off to the differences.  A start-time variable's cover rows
    form one run, so pricing costs O(runs + rows), not O(nonzeros).
    """

    def __init__(self):
        self.rows = self.run_col = self.one_row = self.head_row = np.zeros(0, dtype=np.int64)
        self.vals = self.run_val = self.head_val = np.zeros(0)
        self.run_ends = np.zeros((2, 0), dtype=np.int64)
        self.in_run = np.zeros(0)  # 1.0 on rows inside a run of two or more entries
        self.colptr = np.zeros(1, dtype=np.int64)
        self.m = self.total = 0

    def append(self, colptr, rows, vals, m: int, unit_rows=(), unit_vals=()) -> None:
        """Grow to ``m`` rows by ``colptr.size - 1`` columns, column k with
        the entries ``colptr[k]:colptr[k + 1]`` of ``rows`` and ``vals``,
        and then ``len(unit_rows)`` unit columns.  ``rows`` and ``vals``
        hold this store's entries (``colptr[0]`` of them) and then the new
        columns' (up to ``colptr[-1]``, their end), and replace its arrays.
        No run crosses a column, so only the new entries are split into
        runs."""
        unit_rows, unit_vals = np.asarray(unit_rows, dtype=np.int64), np.asarray(unit_vals, dtype=float)
        t0, e0, units = self.total, self.rows.size, unit_rows.size
        self.rows, self.vals = rows, vals
        rows, vals, ends = rows[e0:], vals[e0:], colptr - e0  # the new entries
        total = t0 + ends.size - 1 + units
        self.colptr = np.concatenate((self.colptr, colptr[1:], np.full(units, colptr[-1])))
        single = (np.diff(ends) == 1).nonzero()[0]  # new columns of one entry
        head_row, head_val = np.full(ends.size - 1, -1), np.zeros(ends.size - 1)
        head_row[single], head_val[single] = rows[ends[single]], vals[ends[single]]
        self.head_row = np.concatenate((self.head_row, head_row, unit_rows))
        self.head_val = np.concatenate((self.head_val, head_val, unit_vals))
        self.m, self.total = m, total
        self.in_run = np.concatenate((self.in_run, np.zeros(m - self.in_run.size)))

        # Entry e closes a run unless entry e + 1 is in the same column, the
        # next row (rows < m < 2**31: int32 differences), with the same value.
        joins = np.subtract(rows[1:], rows[:-1], dtype=np.int32) == 1
        joins &= vals[1:] == vals[:-1]
        starts = ends[1:-1]  # of the new columns after the first
        joins[starts[(starts > 0) & (starts < rows.size)] - 1] = False
        last = np.flatnonzero(np.concatenate((~joins, [True])))[: rows.size]
        first = np.concatenate(([0], last + 1))[: last.size]
        long = last > first
        run, one = first[long], first[~long]
        k = self.run_ends.shape[1]
        run_col = t0 + np.searchsorted(ends, first, side="right") - 1  # each run's column
        unit_cols = np.arange(total - units, total)
        self.run_col = np.concatenate((self.run_col[:k], run_col[long], self.run_col[k:], run_col[~long], unit_cols))
        self.run_val = np.concatenate((self.run_val[:k], vals[run], self.run_val[k:], vals[one], unit_vals))
        lo, hi = rows[run], rows[last[long]] + 1
        self.run_ends = np.concatenate((self.run_ends, (lo, hi)), axis=1)
        self.one_row = np.concatenate((self.one_row, rows[one], unit_rows))
        # Rows inside the new runs, by a difference array over the runs.
        inside = np.bincount(lo, minlength=m + 1) - np.bincount(hi, minlength=m + 1)
        self.in_run[np.cumsum(inside[:m]) > 0] = 1.0

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.colptr[j], self.colptr[j + 1]
        if lo == hi and self.head_row[j] >= 0:
            return self.head_row[j : j + 1], self.head_val[j : j + 1]
        return self.rows[lo:hi], self.vals[lo:hi]

    def left_multiply(self, y: np.ndarray) -> np.ndarray:
        """y @ A, one entry per column."""
        if not self.run_col.size:
            return np.zeros(self.total)
        k = self.run_ends.shape[1]
        Y = np.zeros(self.m + 1)
        np.multiply(y, self.in_run, out=Y[1:])
        np.add.accumulate(Y[1:], out=Y[1:])
        ends = Y[self.run_ends]
        terms = np.empty(self.run_col.size)
        np.subtract(ends[1], ends[0], out=terms[:k])
        y.take(self.one_row, out=terms[k:])
        terms *= self.run_val
        return np.bincount(self.run_col, weights=terms, minlength=self.total)

    def right_multiply(self, x: np.ndarray) -> np.ndarray:
        """A @ x, one entry per row: each run adds its value times x to a
        difference array at lo and takes it off at hi."""
        k = self.run_ends.shape[1]
        w = self.run_val * x[self.run_col]
        steps = np.bincount(self.run_ends[0], weights=w[:k], minlength=self.m + 1)
        steps -= np.bincount(self.run_ends[1], weights=w[:k], minlength=self.m + 1)
        out = np.add.accumulate(steps[: self.m], dtype=float)  # bincount of nothing is integer
        out += np.bincount(self.one_row, weights=w[k:], minlength=self.m)
        return out

    def gather(self, basis: np.ndarray) -> np.ndarray:
        """Dense matrix of the columns in ``basis``, in that order; entries
        of one column in one row add up.  Unit columns, which ``refactor``
        claims itself in a nonsingular basis, come out zero."""
        lo = self.colptr[basis]
        count = self.colptr[basis + 1] - lo
        owner = np.repeat(np.arange(basis.size), count)
        at = np.arange(owner.size) + np.repeat(lo - np.cumsum(count) + count, count)  # the columns' entries
        B = np.bincount(self.rows[at] * basis.size + owner, weights=self.vals[at], minlength=self.m * basis.size)
        return B.astype(float, copy=False).reshape(self.m, basis.size)  # bincount of nothing is integer


class _Model:
    """The standard form of the part of an LP it was built from.

    Its rows are the LP's rows.  An inequality row gets a slack (+1, ``<=``)
    or surplus (-1, ``>=``) column, and a row takes a start
    (``needs_start``) when that slack alone is infeasible at x = 0.
    Columns are numbered in the order they were added, so extending the
    model by what was appended to the LP leaves every existing index in
    place.  Each extension's columns are structural | slack.

    ``seed`` is each column's lift seed, which ``_State.perturb`` reads: its
    index plus the count of rows that took a start in earlier extensions,
    the index it had when each such row had an artificial column at the end
    of its extension, so the pivots stay those of that numbering.
    """

    def __init__(self):
        self.n = 0  # LP variables covered
        self.cols = _Columns()
        self.b = np.zeros(0)  # right-hand side per row, the LP's own array
        self.slack_col = np.zeros(0, dtype=np.int64)  # per row, -1 for none
        self.needs_start = np.zeros(0, dtype=bool)  # per row
        self.var_col = np.zeros(0, dtype=np.int64)  # column of each variable
        self.seed = np.zeros(0, dtype=np.int64)  # lift seed per column
        self.c = np.zeros(0)  # cost per column

    def extend(self, lp: LinearProgram) -> None:
        """Add what ``lp`` gained since the last extension: its new
        variables as structural columns, its new rows, and their slack
        columns."""
        n0, m0, t0 = self.n, self.cols.m, self.cols.total
        n, m = lp.num_vars, lp.num_rows
        rhs, sense = lp._rhs[m0:], lp._sense[m0:]
        self.b = lp._rhs
        feasible = np.where(sense == _LE, rhs >= 0, (sense == _GE) & (rhs <= 0))  # the slack alone, at x = 0

        slack_rows = (sense != _EQ).nonzero()[0]
        k_var = n - n0
        total = t0 + k_var + slack_rows.size
        self.var_col = np.concatenate((self.var_col, np.arange(t0, t0 + k_var)))
        slack_col = np.full(m - m0, -1, dtype=np.int64)
        slack_col[slack_rows] = np.arange(t0 + k_var, total)
        self.slack_col = np.concatenate((self.slack_col, slack_col))
        unit_vals = np.where(sense[slack_rows] == _LE, 1.0, -1.0)
        self.cols.append(lp._ptr[n0:], lp._row, lp._val, m, m0 + slack_rows, unit_vals)
        self.seed = np.concatenate((self.seed, np.arange(t0, total) + np.count_nonzero(self.needs_start)))
        self.needs_start = np.concatenate((self.needs_start, ~feasible))
        self.c = np.concatenate((self.c, lp.objective[n0:], np.zeros(slack_rows.size)))
        self.n = n

    def start_basis(self, start) -> np.ndarray:
        """The columns of the LP variables ``start``, in that order, and
        then the slack or surplus of every row that takes no start, in row
        order; ``LpError`` unless ``start`` names distinct variables, one
        per row that takes a start.  The model is built from nothing, so
        variable k is column k."""
        start = np.asarray(start, dtype=np.int64).reshape(-1)
        slacks = self.slack_col[~self.needs_start]
        if start.size + slacks.size != self.cols.m:
            raise LpError(
                f"a start names one variable per row that takes a start, {self.cols.m - slacks.size}, not {start.size}"
            )
        if start.size and (start.min() < 0 or start.max() >= self.n or np.unique(start).size < start.size):
            raise LpError("a start names distinct variables of the LP")
        return np.concatenate((self.var_col[start], slacks))


class _State:
    """Basis, dense basis inverse and basic values of a model, factorized
    at construction.  The basic values solve for ``b``, the model's
    right-hand side or a perturbed copy of it.  The counters cover one
    solve: construction and ``resume`` set them to zero."""

    def __init__(self, model: _Model, basis: np.ndarray):
        self.model = model
        self.cols = model.cols
        self.basis = basis
        self.b = model.b
        self.m = model.cols.m
        self.binv = None
        self.zero_counts()
        self.refactor()
        self.refactors = 0  # the starting basis's factorization is not counted

    def zero_counts(self) -> None:
        self.iters = self.perturbations = self.dual_pivots = self.refactors = 0

    def stats(self) -> dict:
        counts = (self.iters, self.perturbations, self.dual_pivots, self.refactors)
        return dict(zip(STATS, counts))

    def resume(self, lp: LinearProgram) -> _State:
        """This state carried over to what ``lp`` gained since it was
        solved: the model is extended and each new row enters with its slack
        basic.  Only new columns have entries in new rows, so the basis is
        block diagonal and the inverse grows by the slacks' ``1/s``.
        ``LpError`` when a new row takes a start; the caller checks that the
        basic values are feasible."""
        model = self.model
        m0 = self.m
        model.extend(lp)
        m = model.cols.m
        if model.needs_start[m0:].any():
            raise LpError("a resume needs every appended row's slack feasible at x = 0")
        if m > m0:
            slack = model.slack_col[m0:]
            binv = np.zeros((m, m))
            binv[:m0, :m0] = self.binv
            binv[np.arange(m0, m), np.arange(m0, m)] = 1.0 / model.cols.head_val[slack]
            self.binv, self.m = binv, m
            self.basis = np.concatenate((self.basis, slack))
        self.b, self.xb = model.b, self.binv @ model.b
        # Optimality is declared against a fresh factorization only.
        self.since_refactor = 1
        self.zero_counts()
        return self

    def objective(self, c: np.ndarray) -> float:
        return float(c[self.basis] @ self.xb)

    def direction(self, col: int) -> np.ndarray:
        rows, vals = self.cols.column(col)
        return self.binv[:, rows] @ vals

    def refactor(self) -> None:
        """Invert the basis by blocks.  Basic columns with a single nonzero
        (slacks, surpluses, one-row variables) in distinct rows make the
        basis block triangular up to permutation, so only the square block of
        the other columns on the other rows needs a dense inverse.  The
        inverse is written into the current one's buffer when it fits."""
        cols, basis, m = self.cols, self.basis, self.m
        row, val = cols.head_row[basis], cols.head_val[basis]
        single = ((row >= 0) & (val != 0.0)).nonzero()[0]
        _, first = np.unique(row[single], return_index=True)
        unit_pos = single[first]
        unit_row, scale = row[unit_pos], val[unit_pos]
        other_pos = np.flatnonzero(np.bincount(unit_pos, minlength=m) == 0)
        other_row = np.flatnonzero(np.bincount(unit_row, minlength=m) == 0)
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
            binv[other_pos[:, None], other_row] = inner
            binv[unit_pos[:, None], other_row] = -(B_other[unit_row] @ inner) / scale[:, None]
        self.binv = binv
        self.xb = binv @ self.b
        self.since_refactor = 0
        self.refactors += 1

    def perturb(self) -> None:
        """Lift each basic value below ``FEAS_TOL`` by PERTURB times a
        factor in [1, 2) read off its column's lift seed, through ``b``
        along that basic column: the other basic values do not move."""
        low = self.xb < FEAS_TOL
        lift = PERTURB * (1.0 + (0.6180339887 * self.model.seed[self.basis[low]]) % 1.0)
        self.b = self.b + self.cols.right_multiply(np.bincount(self.basis[low], lift, self.cols.total))
        self.xb[low] += lift
        self.perturbations += 1

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
        # Rank-one update in place.  In one call when the whole inverse fits
        # one chunk; otherwise restricted to the nonzero block when it is
        # small (entries outside it would subtract exact zeros), or by row
        # chunks, so that no m x m temporary is allocated.
        if self.m * self.m <= UPDATE_CHUNK:
            binv -= np.multiply.outer(direction, binv[row])
        else:
            lhs = direction.nonzero()[0]
            rhs = binv[row].nonzero()[0]
            if 3 * lhs.size * rhs.size < self.m * self.m:
                binv[lhs[:, None], rhs] -= direction[lhs, None] * binv[row, rhs]
            else:
                pivot_row = binv[row].copy()
                step = max(1, UPDATE_CHUNK // self.m)
                for top in range(0, self.m, step):
                    binv[top : top + step] -= np.multiply.outer(direction[top : top + step], pivot_row)
        self.basis[row] = col
        self.iters += 1
        self.since_refactor += 1
        if self.since_refactor >= REFACTOR_EVERY:
            self.refactor()


def _iterate(state: _State, c: np.ndarray) -> str:
    """Run simplex iterations to optimality of cost vector ``c``.

    Dantzig pricing; the ratio test breaks ties toward the largest pivot
    element, which keeps the basis inverse well conditioned.  Each pivot
    that does not lower the objective perturbs the right-hand side.  At the
    perturbed optimum, which is declared on a fresh factorization, the
    perturbation is dropped and the basic values are recomputed on that same
    factorization; dual simplex pivots then take any basic value left below
    ``-FEAS_TOL`` out of the basis.  The duals
    ``y`` get a rank-one update per primal pivot and are recomputed at each
    refactorization; optimality is confirmed against a fresh factorization.
    """
    max_iters = 60 * (state.m + state.cols.total) + 10_000
    last_obj = np.inf
    start_iters = state.iters

    y = None
    while True:
        if state.iters - start_iters > max_iters:
            raise NumericalError("simplex iteration limit exceeded")
        if y is None or state.since_refactor == 0:
            y = c[state.basis] @ state.binv
        reduced = c - state.cols.left_multiply(y)
        candidates = (reduced < -OPT_TOL).nonzero()[0]
        if candidates.size == 0:
            if state.since_refactor > 0:
                state.refactor()
                continue
            if state.b is not state.model.b:
                # The inverse is fresh: refactor() would recompute it as is.
                state.b = state.model.b
                state.xb = state.binv @ state.b
            if state.xb.min(initial=0.0) >= -FEAS_TOL:
                return "optimal"
            leave = int(np.argmin(state.xb))
            # Dual ratio test on the leaving row, ties toward the largest pivot.
            row = state.cols.left_multiply(state.binv[leave])
            eligible = np.flatnonzero(row < -PIVOT_TOL)
            if eligible.size == 0:
                raise NumericalError("no column repairs a negative basic value")
            ratios = np.maximum(reduced[eligible], 0.0) / -row[eligible]
            ties = eligible[ratios <= ratios.min() + 1e-9 * (1.0 + ratios.min())]
            enter = int(ties[np.argmin(row[ties])])
            state.pivot(leave, enter, state.direction(enter))
            state.dual_pivots += 1
            y = None
            continue
        enter = int(candidates[reduced[candidates].argmin()])

        direction = state.direction(enter)
        positive = (direction > PIVOT_TOL).nonzero()[0]
        if positive.size == 0:
            return "unbounded"
        xb = np.maximum(state.xb, 0.0)
        ratios = xb[positive] / direction[positive]
        best = ratios.min()
        ties = positive[(ratios <= best + 1e-9 * (1.0 + abs(best))).nonzero()[0]]
        leave = int(ties[direction[ties].argmax()])
        state.pivot(leave, enter, direction)
        y += reduced[enter] * state.binv[leave]

        obj = state.objective(c)
        if obj < last_obj - 1e-12:
            last_obj = obj
        else:
            state.perturb()
            last_obj = state.objective(c)

