"""Sparse two-phase revised simplex with dual values, warm starts and resumes.

Solves ``min c.x  s.t.  rows, x >= 0`` and returns primal and dual optima
together with the optimal basis.  The implementation is deliberately
self-contained: dual values per row are needed downstream for column
generation, and the library depends on numpy alone.

A ``LinearProgram`` holds its constraint entries natively as flat numpy
arrays and only grows: ``add_rows`` appends rows, ``add_columns`` appends
variables with their entries in existing rows.  Every variable is
non-negative and has no other bound; a bound is a row.  It refuses, with
``LpError`` and before it appends anything, growth whose rows would need a
basis inverse over ``MAX_BASIS_INVERSE_BYTES``.  The solver works on its
standard form: rows oriented so the right-hand side starts non-negative,
and slack, surplus and artificial unit columns.  That matrix is held
column-wise and sparse: the variables' columns in numpy ``colptr``, row
index and value arrays, the LP's own unless the orientation negates or
sorting reorders their entries, and each unit column as its one row and
value.  Only the basis inverse is dense (m x m).  The store also indexes
each column's runs, stretches of entries in consecutive rows with one
value.  Pricing computes ``y @ A`` from one prefix sum of y and one term per
run, and ``A @ x`` is a difference array over the runs, so both cost
O(runs + rows): a start-time variable's cover rows are one run, however
long the job.  The entering direction is ``binv[:, rows] @ vals``, each
pivot applies a rank-one update to the inverse in place and updates the
basic values, and refactorization inverts only the block of basic columns
that are not unit columns.

After an optimal solve the LP keeps the solver's state: the standard form
with its column store, the basis, the basis inverse and the basic values.
The solution's ``basis``, in the LP's own numbering, is worked out when it
is first read, from a copy of the basis and the model's arrays as they
stood at the solve (the model replaces its arrays as it grows).
The next ``solve_lp(lp)`` resumes from it when the LP grew as a
column-generation master does: rows appended with no entries, then
variables.  The new variables join the column store as nonbasic columns
after all others, and the new rows enter with their slack basic.  No basic
column has an entry in a new row, so the inverse grows by the new slacks'
diagonal ``1/s``.  A solve from nothing is the same extension of an empty
state, followed by the cold two-phase start.

A solve does not resume, and starts from the given basis or cold instead,
when a basis is given (``solve_lp(lp, basis)``), when the objective of
existing variables was edited in place (a comparison with the copy the
state keeps detects it; entries, senses and right-hand sides are
read-only), when an appended entry, zero or not, lies on a variable the
last solve already had, when the last optimum keeps an artificial basic on
a redundant equation row (an appended column may have an entry there), when
an appended row is an equation (it has no slack to enter with), or when the
extended basis is not primal feasible.  A given basis of the wrong size, a
singular one or a primal infeasible one falls back to the cold start.

Pivoting uses Dantzig's rule; the ratio test breaks ties toward the largest
pivot element.  Degenerate bases, such as the chain-LP masters', are handled
by one mechanism (Wolfe, J. SIAM 11, 1963): once the objective stalls, the
right-hand side is shifted along each basic column whose value is below
``FEAS_TOL``, which lifts that value alone.  How long a stall lasts before
that depends on how the solve started.  A solve from a given basis perturbs
at its first pivot that does not lower the objective: such a basis (a list
schedule, a master after a purge) tends to hold many basic values at zero.
A cold start or a resume waits for more than ``STALL_SCALE * (3 m + 50)``
stalled pivots.  At the perturbed optimum the shift is dropped, the basic
values are recomputed on the factorization at hand, and dual simplex pivots
repair any basic value left below ``-FEAS_TOL``.  Optimality is only
declared against a fresh factorization, and every answer passes the same
final certificate: primal residual, no positive artificial, duality gap.
Numerical failure raises ``NumericalError``: no retry, no silently wrong
answer.

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
# The right-hand side is perturbed once the objective has not improved for
# more than STALL_SCALE * (3 m + 50) pivots in a row (m rows), or for one
# pivot in a solve from a given basis; the lifted basic values grow by
# PERTURB times a factor in [1, 2).
STALL_SCALE = 1
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
    """Malformed linear program (dimension mismatch, bad sense, non-finite)."""


class NumericalError(RuntimeError):
    """Simplex failed to converge or the factorization went bad."""


class LinearProgram:
    """Sparse LP in minimization form that grows by appending.

    Every variable is ``x >= 0`` with no other bound.  ``objective`` holds
    one cost per variable and may be edited in place (``solve_lp`` checks it
    again).  The constraint entries (row, variable, coefficient) and each
    row's sense and right-hand side are read-only arrays, in the order they
    were added; ``rows`` lists them per row as (indices, coefficients,
    sense, rhs), built once per state of the LP.
    The first entries appended are kept, read-only, as the arrays given: a
    solve's standard form shares them.
    """

    def __init__(self, num_vars: int, objective=None):
        n = int(num_vars)
        if n < 0:
            raise LpError("the number of variables must be non-negative")
        self.num_vars = n
        self.objective = _costs(np.zeros(n) if objective is None else objective, n)
        self._row = self._col = _frozen(np.zeros(0, dtype=np.int64))
        self._val = self._rhs = _frozen(np.zeros(0))
        self._sense = _frozen(np.zeros(0, dtype=np.int8))  # index into _SENSES
        self._rows = None  # ``rows``, until the next append
        self._live = None  # solver state after the last optimal solve

    @property
    def num_rows(self) -> int:
        return self._rhs.size

    @property
    def upper(self) -> np.ndarray:
        """+inf per variable, read-only: no variable has an upper bound.
        Kept because the benchmark's tracer (``perfbench/spans.py``) reads
        it to count standard-form rows."""
        return _frozen(np.full(self.num_vars, np.inf))

    @property
    def rows(self) -> list:
        """(indices, coefficients, sense, rhs) per row, entries in the order
        they were added; the arrays are read-only.  The list is built on the
        first read after an append and kept until the next."""
        if self._rows is None:
            # Row numbers in the smallest unsigned type: numpy's stable sort
            # of 16-bit integers is a radix sort.
            order = np.argsort(self._row.astype(np.min_scalar_type(self.num_rows)), kind="stable")
            col, val = _frozen(self._col[order]), _frozen(self._val[order])
            ends = np.cumsum(np.bincount(self._row, minlength=self.num_rows)).tolist()
            self._rows = [
                (col[lo:hi], val[lo:hi], _SENSES[s], rhs)
                for lo, hi, s, rhs in zip([0] + ends, ends, self._sense.tolist(), self._rhs.tolist())
            ]
        return list(self._rows)

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
        count = ptr.size - 1
        self.reserve(count)
        b = np.asarray(rhs, dtype=float)
        senses = list(senses)
        if len(senses) != count or b.shape != (count,):
            raise LpError("row pointers, senses and right-hand sides must describe the same rows")
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_vars):
            raise LpError("row index out of range")
        try:  # one dict lookup per sense, all in C
            codes = np.fromiter(map(_CODES.__getitem__, senses), np.int8, count)
        except (KeyError, TypeError):
            unknown = next(s for s in senses if s not in _SENSES)
            raise LpError(f"unknown sense {unknown!r}") from None
        if not np.isfinite(val).all() or not np.isfinite(b).all():
            raise LpError("row coefficients and rhs must be finite")
        first = self.num_rows
        self._append_entries(np.repeat(np.arange(first, first + count), ptr[1:] - ptr[:-1]), idx, val)
        self._sense = _frozen(np.concatenate((self._sense, codes)))
        self._rhs = _frozen(np.concatenate((self._rhs, b)))
        return range(first, self.num_rows)

    def add_columns(self, indptr, rows, coeffs, objective) -> range:
        """Append variables ``x >= 0`` in compressed form: variable k has
        the coefficients ``coeffs[indptr[k]:indptr[k + 1]]`` in the existing
        rows ``rows[...]`` and cost ``objective[k]``.  Either every variable
        is appended or, on malformed input, none; returns their indices."""
        idx, val, ptr = _compressed(indptr, rows, coeffs, "column")
        count = ptr.size - 1
        cost = _costs(objective, count)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_rows):
            raise LpError("column row index out of range")
        if not np.isfinite(val).all():
            raise LpError("column coefficients must be finite")
        first = self.num_vars
        self._append_entries(idx, np.repeat(np.arange(first, first + count), ptr[1:] - ptr[:-1]), val)
        self.objective = np.concatenate((self.objective, cost))
        self.num_vars += count
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

    def _append_entries(self, *entries) -> None:
        self._rows = None
        if self._row.size:  # the first entries are kept as given
            entries = [np.concatenate(pair) for pair in zip((self._row, self._col, self._val), entries)]
        self._row, self._col, self._val = map(_frozen, entries)


def _costs(values, size: int) -> np.ndarray:
    """``values`` as float costs, checked: ``size`` of them, all finite."""
    out = np.asarray(values, dtype=float)
    if out.shape != (size,):
        raise LpError(f"objective must have shape ({size},)")
    if not np.isfinite(out).all():
        raise LpError("objective must be finite")
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
    slack (or surplus) variable is basic, numbered as in ``lp.rows``.  An
    optimal basis that keeps an artificial variable on a redundant row is a
    row short, and does not warm-start."""

    columns: np.ndarray
    slack_rows: np.ndarray


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray = None
    objective: float = np.nan
    duals: np.ndarray = None
    iterations: int = 0  # pivots, as stats["pivots"]; the benchmark's tracer reads it
    warm: bool = False  # resumed the LP's last optimum, or started from the given basis
    stats: dict = field(default_factory=lambda: dict.fromkeys(STATS, 0))  # counters, see STATS
    _basis: object = field(default=None, repr=False)  # the Basis, or the function that computes it

    @property
    def basis(self) -> Basis | None:
        """The optimal basis, to warm-start a related LP; None unless
        optimal.  Computed when first read, from what the solve held."""
        if callable(self._basis):
            self._basis = self._basis()
        return self._basis


def solve_lp(lp: LinearProgram, basis: Basis | None = None) -> LpSolution:
    """Solve the LP; on ``optimal`` the solution carries a dual value per
    original row (>= rows have non-negative duals, <= rows non-positive)
    and the optimal basis.

    Without ``basis`` the solve resumes from the LP's last optimum when the
    LP has only grown since, and otherwise starts cold.  ``basis`` names a
    starting basis instead; if it does not fit the LP, is singular or is
    primal infeasible the solve starts cold.  A stall perturbs the
    right-hand side until the optimum, which dual simplex pivots then repair
    for the LP itself; from a given basis the first pivot that does not
    lower the objective is a stall, otherwise more than ``STALL_SCALE * (3 m
    + 50)`` in a row are.  A numerical failure raises ``NumericalError``,
    with no retry.  The objective, which may be edited in place, is checked
    again (shape, finiteness): ``LpError`` is raised before any solver
    state exists.
    """
    _costs(lp.objective, lp.num_vars)
    return _solve(lp, basis)


class _Columns:
    """Column-wise sparse matrix that grows: column j holds
    ``vals[colptr[j]:colptr[j+1]]`` in rows ``rows[...]``, or, if that is
    empty and ``head_row[j] >= 0``, it is a unit column (a slack, surplus or
    artificial) with its one entry ``head_val[j]`` in row ``head_row[j]``;
    ``head_*`` hold every column's only entry, row -1 where it has none or
    several.  A first append's entries in column order are kept as the
    arrays given: a model shares its LP's.

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

    def append(self, rows, cols, vals, m: int, total: int, unit_rows=(), unit_vals=()) -> None:
        """Grow to ``m`` rows and ``total`` columns, the new ones holding the
        entries (every ``cols`` is new; sorted stably by column unless in
        column order), the last ``len(unit_rows)`` of them unit columns.  No
        run crosses a column, so only the new entries are split into runs."""
        unit_rows, unit_vals = np.asarray(unit_rows, dtype=np.int64), np.asarray(unit_vals, dtype=float)
        units = unit_rows.size
        if (cols[1:] < cols[:-1]).any():
            order = np.argsort(cols, kind="stable")
            rows, cols, vals = rows[order], cols[order], vals[order]
        e0 = self.rows.size
        ends = np.searchsorted(cols, np.arange(self.total, total - units), side="right")
        self.colptr = np.concatenate((self.colptr, e0 + ends, np.full(units, e0 + rows.size)))
        self.rows = np.concatenate((self.rows, rows)) if e0 else rows
        self.vals = np.concatenate((self.vals, vals)) if e0 else vals
        single = (ends - np.concatenate(([0], ends[:-1])) == 1).nonzero()[0]  # new columns of one entry
        head_row, head_val = np.full(ends.size, -1), np.zeros(ends.size)
        head_row[single], head_val[single] = rows[ends[single] - 1], vals[ends[single] - 1]
        self.head_row = np.concatenate((self.head_row, head_row, unit_rows))
        self.head_val = np.concatenate((self.head_val, head_val, unit_vals))
        self.m, self.total = m, total
        self.in_run = np.concatenate((self.in_run, np.zeros(m - self.in_run.size)))

        # Entry e closes a run unless entry e + 1 is in the same column, the
        # next row (rows < m < 2**31: int32 differences), with the same value.
        joins = np.subtract(rows[1:], rows[:-1], dtype=np.int32) == 1
        joins &= cols[1:] == cols[:-1]
        joins &= vals[1:] == vals[:-1]
        last = np.flatnonzero(np.concatenate((~joins, [True])))[: rows.size]
        first = np.concatenate(([0], last + 1))[: last.size]
        long = last > first
        run, one = first[long], first[~long]
        k = self.run_ends.shape[1]
        unit_cols = np.arange(total - units, total)
        self.run_col = np.concatenate((self.run_col[:k], cols[run], self.run_col[k:], cols[one], unit_cols))
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
        of one column in one row add up."""
        lo = self.colptr[basis]
        count = self.colptr[basis + 1] - lo
        owner = np.repeat(np.arange(basis.size), count)
        at = np.arange(owner.size) + np.repeat(lo - np.cumsum(count) + count, count)  # the columns' entries
        cell, weights = self.rows[at] * basis.size + owner, self.vals[at]
        unit = ((count == 0) & (self.head_row[basis] >= 0)).nonzero()[0]
        if unit.size:  # they hold no stored entry
            cell = np.concatenate((cell, self.head_row[basis[unit]] * basis.size + unit))
            weights = np.concatenate((weights, self.head_val[basis[unit]]))
        B = np.bincount(cell, weights=weights, minlength=self.m * basis.size)
        return B.astype(float, copy=False).reshape(self.m, basis.size)  # bincount of nothing is integer


class _Model:
    """The standard form of the part of an LP it was built from.

    Its rows are the LP's rows, each oriented so that its right-hand side
    starts non-negative; a row gets a slack (+1) or surplus (-1) column when
    it is an inequality and an artificial column when it is not <= after
    orientation.  Columns are numbered in the order they were added, so
    extending the model by what was appended to the LP leaves every existing
    index in place.  Built from nothing the columns are structural | slack |
    artificial.
    """

    def __init__(self):
        self.n = self.e = 0  # LP variables and entries covered
        self.objective = np.zeros(0)  # a copy of the LP's at the last extension, to detect edits
        self.cols = _Columns()
        self.b = np.zeros(0)  # oriented right-hand side per row
        self.flip = np.zeros(0, dtype=bool)  # row negated by the orientation
        self.slack_col = np.zeros(0, dtype=np.int64)  # per row, -1 for none
        self.var_col = np.zeros(0, dtype=np.int64)  # column of each variable
        self.art = np.zeros(0, dtype=bool)  # artificial columns
        self.c = np.zeros(0)  # phase-2 cost per column

    def covers(self, lp: LinearProgram) -> bool:
        """Whether ``lp`` has only grown since this model was built from it,
        with no appended entry on a variable it had then."""
        n = self.n
        return (
            lp.num_vars >= n
            and lp.num_rows >= self.cols.m
            and (lp.objective[:n] == self.objective).all()
            and not (lp._col[self.e :] < n).any()
        )

    def extend(self, lp: LinearProgram) -> None:
        """Add what ``lp`` gained since the last extension: its new
        variables as structural columns, its new rows, and their slack and
        artificial columns."""
        n0, e0, m0, t0 = self.n, self.e, self.cols.m, self.cols.total
        n, m = lp.num_vars, lp.num_rows
        # The new entries, on new variables only (see ``covers``).
        row, var, val = lp._row[e0:], lp._col[e0:], lp._val[e0:]
        rhs = lp._rhs[m0:]
        self.flip = np.concatenate((self.flip, rhs < 0))
        self.b = np.concatenate((self.b, np.abs(rhs)))
        val = val * np.where(self.flip, -1.0, 1.0)[row] if self.flip.any() else val
        sense = lp._sense[m0:]
        le = sense == np.where(self.flip[m0:], _GE, _LE)  # <= after orientation

        # Column layout of the extension: structural | slack | artificial.
        slack_rows = (sense != _EQ).nonzero()[0]
        art_rows = (~le).nonzero()[0]
        k_var, k_slack, k_art = n - n0, slack_rows.size, art_rows.size
        total = t0 + k_var + k_slack + k_art
        self.var_col = np.concatenate((self.var_col, np.arange(t0, t0 + k_var)))
        slack_col = np.full(m - m0, -1, dtype=np.int64)
        slack_col[slack_rows] = np.arange(t0 + k_var, total - k_art)
        self.slack_col = np.concatenate((self.slack_col, slack_col))
        unit_vals = np.concatenate((np.where(le[slack_rows], 1.0, -1.0), np.ones(k_art)))
        col = var if t0 == n0 else var + (t0 - n0)  # the new variables' columns follow t0
        self.cols.append(row, col, val, m, total, np.concatenate((m0 + slack_rows, m0 + art_rows)), unit_vals)
        self.art = np.concatenate((self.art, np.zeros(k_var + k_slack, dtype=bool), np.ones(k_art, dtype=bool)))
        self.c = np.concatenate((self.c, lp.objective[n0:], np.zeros(k_slack + k_art)))
        self.n, self.e = n, lp._row.size
        self.objective = lp.objective.copy()

    def cold_basis(self) -> np.ndarray:
        """Each row's artificial, or its slack where it has none: unit
        columns of value +1, so the inverse is the identity."""
        basis = self.slack_col.copy()
        art = np.flatnonzero(self.art)
        basis[self.cols.head_row[art]] = art
        return basis

    def basis_reader(self, basis: np.ndarray):
        """A function that returns ``basis`` (column indices) as LP
        variables and LP rows, for the model as it stands now.  The model
        replaces its arrays as it grows and never writes into them, so the
        ones held here keep their values."""
        basis, total, n, var_col, slack_col = basis.copy(), self.cols.total, self.n, self.var_col, self.slack_col

        def read() -> Basis:
            var = np.full(total, -1, dtype=np.int64)
            var[var_col] = np.arange(n)
            has = np.flatnonzero(slack_col >= 0)
            slack_row = np.full(total, -1, dtype=np.int64)
            slack_row[slack_col[has]] = has
            basic_var, rows = var[basis], slack_row[basis]
            return Basis(columns=np.sort(basic_var[basic_var >= 0]), slack_rows=np.sort(rows[rows >= 0]))

        return read


def _solve(lp: LinearProgram, hint: Basis | None) -> LpSolution:
    live, lp._live = lp._live, None
    state = live.resume(lp) if live is not None and hint is None else None
    warm = state is not None
    hinted = False
    if not warm:
        model = _Model()
        model.extend(lp)
        state = _warm_state(model, hint)
        warm = hinted = state is not None
    if not warm:
        state = _State(model, model.cold_basis())
        if model.art.any():
            c1 = model.art.astype(float)
            status = _iterate(state, c1, locked=np.zeros(model.cols.total, dtype=bool))
            if status == "unbounded":  # cannot happen: phase-1 objective >= 0
                raise NumericalError("phase 1 reported unbounded")
            if state.objective(c1) > FEAS_TOL:
                return LpSolution(status="infeasible", iterations=state.iters, stats=state.stats())
            _evict_artificials(state, model.art)

    model = state.model
    status = _iterate(state, model.c, locked=model.art, eager=hinted)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=state.iters, warm=warm, stats=state.stats())

    # _iterate declares optimality only right after a refactorization.
    x_full = np.zeros(model.cols.total)
    x_full[state.basis] = state.xb
    if x_full[model.art].max(initial=0.0) > FEAS_TOL:
        raise NumericalError("artificial variable positive at optimum")
    x = x_full[model.var_col]

    resid = model.cols.right_multiply(x_full) - model.b
    if np.abs(resid).max(initial=0.0) > 1e2 * FEAS_TOL:
        raise NumericalError(f"feasibility residual {np.abs(resid).max():.3e}")

    y = model.c[state.basis] @ state.binv
    dual_obj = float(y @ model.b)
    primal_obj = float(model.objective @ x)
    gap = abs(primal_obj - dual_obj)
    if gap > 1e-6 * (1.0 + abs(primal_obj)):
        raise NumericalError(f"duality gap {gap:.3e} at objective {primal_obj:.6g}")

    lp._live = state
    return LpSolution(
        status="optimal",
        x=x,
        objective=primal_obj,
        duals=np.where(model.flip, -y, y),
        iterations=state.iters,
        warm=warm,
        stats=state.stats(),
        _basis=model.basis_reader(state.basis),
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
        state = _State(model, basis)
    except NumericalError:
        return None
    if not np.isfinite(state.xb).all() or state.xb.min(initial=0.0) < -FEAS_TOL:
        return None
    x_full = np.zeros(model.cols.total)
    x_full[basis] = state.xb
    if np.abs(model.cols.right_multiply(x_full) - model.b).max(initial=0.0) > FEAS_TOL:
        return None
    return state


class _State:
    """Basis, dense basis inverse and basic values of a model, factorized
    at construction.  A cold start begins at a basis of unit columns, which
    refactorizes to the identity.  The basic values solve for ``b``, the
    model's right-hand side or a perturbed copy of it.  The counters cover
    one solve: construction and ``resume`` set them to zero."""

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

    def resume(self, lp: LinearProgram):
        """This state carried over to what ``lp`` gained since it was
        solved: the model is extended and each new row enters with its slack
        basic.  Only new columns have entries in new rows, so the basis is
        block diagonal and the inverse grows by the slacks' ``1/s``.  None
        when the LP changed otherwise (``_Model.covers``), an artificial is
        still basic, a new row has no slack, or the extended basis is not
        primal feasible."""
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
            binv = np.zeros((m, m))
            binv[:m0, :m0] = self.binv
            binv[np.arange(m0, m), np.arange(m0, m)] = 1.0 / model.cols.head_val[slack]
            self.binv, self.m = binv, m
            self.basis = np.concatenate((self.basis, slack))
        self.b, self.xb = model.b, self.binv @ model.b
        # Optimality is declared against a fresh factorization only.
        self.since_refactor = 1
        self.zero_counts()
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
        factor in [1, 2) read off its column index, through ``b`` along that
        basic column: the other basic values do not move."""
        low = self.xb < FEAS_TOL
        lift = PERTURB * (1.0 + (0.6180339887 * self.basis[low]) % 1.0)
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
        # Rank-one update in place, restricted to the nonzero block when it
        # is small (entries outside it would subtract exact zeros).
        lhs = direction.nonzero()[0]
        rhs = binv[row].nonzero()[0]
        if 3 * lhs.size * rhs.size < self.m * self.m:
            binv[lhs[:, None], rhs] -= direction[lhs, None] * binv[row, rhs]
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


def _iterate(state: _State, c: np.ndarray, locked: np.ndarray, eager: bool = False) -> str:
    """Run simplex iterations to optimality of cost vector ``c``.

    Dantzig pricing; the ratio test breaks ties toward the largest pivot
    element, which keeps the basis inverse well conditioned.  A stall
    perturbs the right-hand side: with ``eager`` (a solve from a given
    basis) the first pivot that does not lower the objective, otherwise more
    than ``STALL_SCALE * (3 m + 50)`` in a row.  At the perturbed optimum,
    which is declared on a fresh factorization, the perturbation is dropped
    and the basic values are recomputed on that same factorization; dual
    simplex pivots then take any basic value left below ``-FEAS_TOL`` out of
    the basis.  Locked columns never enter.  The duals ``y`` get a rank-one
    update per primal pivot and are recomputed at each refactorization;
    optimality is confirmed against a fresh factorization.
    """
    m = state.m
    stall = 0
    stall_limit = 0 if eager else STALL_SCALE * (3 * m + 50)
    max_iters = 60 * (m + state.cols.total) + 10_000
    last_obj = np.inf
    start_iters = state.iters
    locked = locked.nonzero()[0]  # few columns: indices set faster than a mask

    y = None
    while True:
        if state.iters - start_iters > max_iters:
            raise NumericalError("simplex iteration limit exceeded")
        if y is None or state.since_refactor == 0:
            y = c[state.basis] @ state.binv
        reduced = c - state.cols.left_multiply(y)
        reduced[locked] = 0.0
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
            row[locked] = 0.0
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
            last_obj, stall = obj, 0
        else:
            stall += 1
            if stall > stall_limit:
                state.perturb()
                last_obj, stall = state.objective(c), 0


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

