"""Property tests for solve_lp on random small LPs with mixed senses,
checked against an exhaustive vertex oracle, and for starts and resumes."""

from itertools import combinations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from alphasched import simplex  # noqa: E402
from alphasched.simplex import LinearProgram, LpError, NumericalError, solve_lp  # noqa: E402
from lp_rows import live_basis, lp_from_rows  # noqa: E402

TOL = 1e-6
BOX = 1e5  # far beyond any vertex of the generated LPs (integer data <= 5)


@st.composite
def small_lps(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, 4))
    coef = st.integers(-3, 3)
    c = np.array(draw(st.lists(coef, min_size=n, max_size=n)), dtype=float)
    boxes = draw(st.lists(st.one_of(st.none(), st.integers(0, 5)), min_size=n, max_size=n))
    rows = []
    for _ in range(k):
        a = draw(st.lists(coef, min_size=n, max_size=n))
        sense = draw(st.sampled_from(("<=", "==", ">=")))
        rows.append((np.arange(n), np.array(a, dtype=float), sense, float(draw(st.integers(-5, 5)))))
    # x_j <= box as a row of one entry: a unit column
    rows += [([j], [1.0], "<=", float(box)) for j, box in enumerate(boxes) if box is not None]
    return lp_from_rows(c, rows)


def _vertex_min(lp, box):
    """min c.x over the LP with 0 <= x <= box added, by enumerating basic
    points; None when empty."""
    n = lp.num_vars
    G, h = [], []  # G x <= h
    for idx, val, sense, rhs in lp.rows:
        a = np.zeros(n)
        np.add.at(a, idx, val)
        if sense in ("<=", "=="):
            G.append(a), h.append(rhs)
        if sense in (">=", "=="):
            G.append(-a), h.append(-rhs)
    G = np.vstack(G + [-np.eye(n), np.eye(n)])
    h = np.concatenate([h, np.zeros(n), np.full(n, box)])
    best = None
    for combo in combinations(range(G.shape[0]), n):
        M = G[list(combo)]
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, h[list(combo)])
        if (G @ x <= h + 1e-7 * (1 + np.abs(h))).all():
            value = float(lp.objective @ x)
            best = value if best is None else min(best, value)
    return best


def _oracle(lp):
    """(status, objective): a growing box moves the optimum of an unbounded
    LP and leaves a bounded one's alone."""
    near, far = _vertex_min(lp, BOX), _vertex_min(lp, 2 * BOX)
    if near is None:
        return "infeasible", None
    if far < near - TOL * (1 + abs(near)):
        return "unbounded", None
    return "optimal", near


def _row_matrix(lp):
    A = np.zeros((len(lp.rows), lp.num_vars))
    for k, (idx, val, _, _) in enumerate(lp.rows):
        np.add.at(A[k], idx, val)
    return A


def _check_certificate(lp, res):
    A = _row_matrix(lp)
    x, y = res.x, res.duals
    senses = [s for _, _, s, _ in lp.rows]
    rhs = np.array([r for _, _, _, r in lp.rows])
    scale = 1.0 + abs(res.objective)
    act = A @ x
    for k, sense in enumerate(senses):
        if sense == "<=":
            assert act[k] <= rhs[k] + TOL and y[k] <= TOL
        elif sense == ">=":
            assert act[k] >= rhs[k] - TOL and y[k] >= -TOL
        else:
            assert abs(act[k] - rhs[k]) <= TOL
    assert (x >= -TOL).all()
    # Reduced costs are non-negative, and the duals reach the objective.
    assert (lp.objective - A.T @ y >= -TOL).all()
    assert abs(res.objective - float(y @ rhs)) <= TOL * scale
    assert abs(res.objective - float(lp.objective @ x)) <= TOL * scale


def _own_slack_rows(lp):
    """The rows whose slack or surplus alone is feasible at x = 0: the
    inequality rows a cold start gives no artificial."""
    own = [sense == "<=" and rhs >= 0 or sense == ">=" and rhs <= 0 for _, _, sense, rhs in lp.rows]
    return np.flatnonzero(own)


def _hint_is_feasible_basis(lp, columns, slack_rows):
    """Independent check: the variables ``columns`` and the slacks of the
    rows ``slack_rows`` form a nonsingular basis whose basic solution is
    non-negative."""
    A = _row_matrix(lp)
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_lps(), st.randoms(use_true_random=False))
def test_solve_lp_matches_oracle_and_certifies(lp, rnd):
    res = solve_lp(lp)
    status, value = _oracle(lp)
    assert res.status == status
    if status != "optimal":
        return
    assert res.objective == pytest.approx(value, abs=TOL * (1 + abs(value)))
    _check_certificate(lp, res)

    # A start of one variable per row that a cold start gives an
    # artificial, with every other row's slack or surplus, solves warm to
    # the same optimum if it is a nonsingular, primal feasible basis, and
    # raises otherwise.
    slacks = _own_slack_rows(lp)
    covered = len(lp.rows) - slacks.size
    if covered > lp.num_vars:
        return
    start = np.array(rnd.sample(range(lp.num_vars), covered), dtype=np.int64)
    if not _hint_is_feasible_basis(lp, start, slacks):
        with pytest.raises((LpError, NumericalError)):
            solve_lp(lp, start)
        return
    other = solve_lp(lp, start)
    assert other.warm and other.status == "optimal"
    assert other.objective == pytest.approx(value, abs=TOL * (1 + abs(value)))
    _check_certificate(lp, other)


def _two_column_lp():
    # min x0 + x1 + 2 x2  s.t.  x0 + x1 + x2 >= 2,  x0 + x1 <= 3,  x2 <= 4
    return lp_from_rows([1.0, 1.0, 2.0], [
        ([0, 1, 2], [1.0, 1.0, 1.0], ">=", 2.0),
        ([0, 1], [1.0, 1.0], "<=", 3.0),
        ([2], [1.0], "<=", 4.0),
    ])


def _two_equation_lp():
    # min x0 + x1 + 2 x2  s.t.  x0 + x1 + x2 == 2,  x1 + x2 == 1,  x0 <= 3
    return lp_from_rows([1.0, 1.0, 2.0], [
        ([0, 1, 2], [1.0, 1.0, 1.0], "==", 2.0),
        ([1, 2], [1.0, 1.0], "==", 1.0),
        ([0], [1.0], "<=", 3.0),
    ])


def test_singular_start_raises():
    # x1 and x2 have the same entries in both equation rows, and row 2's
    # slack is basic: a basis holding both is singular.
    lp = _two_equation_lp()
    with pytest.raises(NumericalError, match="singular"):
        solve_lp(lp, [1, 2])
    # x0 and x1 with row 2's slack: x1 = 1, x0 = 1 and the slack 2.
    res = solve_lp(lp, [0, 1])
    assert res.warm and res.status == "optimal" and res.objective == pytest.approx(2.0)
    # x0 == 1 and x0 + x1 <= 2: the start x1 holds row 1 with that row's
    # slack and leaves row 0 to no basic column.
    lp = lp_from_rows([1.0, 1.0], [([0], [1.0], "==", 1.0), ([0, 1], [1.0, 1.0], "<=", 2.0)])
    with pytest.raises(NumericalError, match="singular"):
        solve_lp(lp, [1])


def test_infeasible_start_raises():
    # min x0 + x1 + 2 x2  s.t.  x0 + x1 + x2 == 2,  x1 + x2 == 1,  x2 <= 0.5.
    # Basic x0 and x2, with row 2's slack: row 1 forces x2 = 1, so the
    # slack is -0.5.  The LP itself is feasible, at x0 = x1 = 1.
    lp = lp_from_rows([1.0, 1.0, 2.0], [
        ([0, 1, 2], [1.0, 1.0, 1.0], "==", 2.0),
        ([1, 2], [1.0, 1.0], "==", 1.0),
        ([2], [1.0], "<=", 0.5),
    ])
    with pytest.raises(LpError, match="primal feasible"):
        solve_lp(lp, [0, 2])
    assert solve_lp(lp, [0, 1]).objective == solve_lp(_copy(lp)).objective == 2.0


def test_malformed_start_raises():
    lp = _two_equation_lp()
    for start in ([0], [0, 1, 2], [0, 3], [-1, 0], [0, 0]):
        with pytest.raises(LpError, match="start names"):
            solve_lp(lp, start)
    # An LP with no equation row takes only the empty start.
    ineq = lp_from_rows([1.0, 2.0], [([0, 1], [1.0, 1.0], "<=", 1.0)])
    with pytest.raises(LpError, match="start names"):
        solve_lp(ineq, [0])
    assert solve_lp(ineq, []).warm


def _copy(lp):
    """The same LP, built afresh: it carries no solver state."""
    return lp_from_rows(lp.objective, lp.rows)


def _assert_same_answer(res, cold, lp):
    assert res.status == cold.status
    if cold.status == "optimal":
        assert abs(res.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective))
        _check_certificate(lp, res)


@st.composite
def appended_columns(draw, lp):
    """Up to three variables appended to ``lp``, with entries in any of its
    rows."""
    coef = st.integers(-3, 3)
    k = draw(st.integers(0, 3))
    ptr, idx, val = [0], [], []
    for _ in range(k):
        rows = draw(st.lists(st.integers(0, lp.num_rows - 1), unique=True, max_size=lp.num_rows)) if lp.num_rows else []
        idx += rows
        val += [float(draw(coef)) for _ in rows]
        ptr.append(len(idx))
    lp.add_columns(ptr, idx, val, np.array(draw(st.lists(coef, min_size=k, max_size=k)), dtype=float))


@st.composite
def appended(draw, lp):
    """Columns, then rows, or rows, then columns, appended to ``lp``; returns
    whether an equation row was among them.  Rows come with no entries; the
    columns appended after them may have entries in them."""
    equation = False

    def columns():
        draw(appended_columns(lp))

    def rows():
        nonlocal equation
        for _ in range(draw(st.integers(0, 3))):
            sense = draw(st.sampled_from(("<=", "==", ">=")))
            equation |= sense == "=="
            lp.add_rows([sense], [float(draw(st.integers(-5, 5)))])

    for step in (columns, rows) if draw(st.booleans()) else (rows, columns):
        step()
    return equation


def _resumed_start(basis, lp, R0):
    """The basis a resume starts from, as (variables, slack rows): the old
    optimal basis plus the slacks of the new rows."""
    columns, slack_rows = basis
    return columns, np.concatenate((slack_rows, np.arange(R0, lp.num_rows)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_lps(), st.data())
def test_resume_after_appending_matches_cold_solve(lp, data):
    first = solve_lp(lp)
    basis = live_basis(lp) if first.status == "optimal" else None
    n0, R0 = lp.num_vars, lp.num_rows
    equation = data.draw(appended(lp))
    res = solve_lp(lp)
    _assert_same_answer(res, solve_lp(_copy(lp)), lp)
    if res.status == "optimal":
        columns, slack_rows = live_basis(lp)
        if columns.size + slack_rows.size == lp.num_rows and slack_rows.tolist() == _own_slack_rows(lp).tolist():
            # No artificial, and the slack of every row without one is
            # basic: the resumed optimum's variables are a start of the
            # grown LP, at its optimum.
            again = solve_lp(_copy(lp), columns)
            assert again.warm and again.iterations == 0
    if first.status != "optimal":
        assert not res.warm  # nothing to resume from
        return
    if basis[0].size + basis[1].size < R0:
        # An artificial stays basic, which blocks a resume: an appended
        # column may have an entry in its row.
        assert not res.warm
        return
    # An appended equation has no slack to enter the basis with.
    assert res.warm == (not equation and _hint_is_feasible_basis(lp, *_resumed_start(basis, lp, R0)))
    if lp.num_vars == n0 and lp.num_rows == R0:
        assert res.warm and res.iterations == 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_lps(), st.data())
def test_resume_after_empty_rows_then_columns_matches_cold_solve(lp, data):
    # A column-generation round: inequality rows open with no entries, then
    # new variables get entries in new and old rows.  The solve resumes
    # whenever the old basis plus the new slacks is primal feasible.
    first = solve_lp(lp)
    basis = live_basis(lp) if first.status == "optimal" else None
    R0 = lp.num_rows
    k = data.draw(st.integers(0, 3))
    senses = data.draw(st.lists(st.sampled_from(("<=", ">=")), min_size=k, max_size=k))
    rhs = data.draw(st.lists(st.integers(-2, 5), min_size=k, max_size=k))
    lp.add_rows(senses, np.array(rhs, dtype=float))
    data.draw(appended_columns(lp))
    res = solve_lp(lp)
    _assert_same_answer(res, solve_lp(_copy(lp)), lp)
    full = basis is not None and basis[0].size + basis[1].size == R0
    assert res.warm == (full and _hint_is_feasible_basis(lp, *_resumed_start(basis, lp, R0)))


@st.composite
def set_partitioning_lps(draw):
    """min c.x over 0/1 columns covering each row exactly once (==) or at
    least once (>=), x >= 0: most basic values sit at 0 or 1, and small
    integer costs tie."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(2, 5))
    cover = draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k).filter(any), min_size=n, max_size=n))
    cost = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    sense = draw(st.sampled_from(("==", ">=")))
    rows = []
    for r in range(k):
        idx = [j for j in range(n) if cover[j][r]]
        rows.append((idx, np.ones(len(idx)), sense, 1.0))
    return lp_from_rows(np.array(cost, dtype=float), rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lp=set_partitioning_lps())
def test_degenerate_set_partitioning_matches_oracle(lp):
    # The first pivot without progress perturbs the right-hand side, so the
    # perturbed optimum and its dual repair run on LPs whose optimum is
    # known.
    res = solve_lp(lp)
    value = _vertex_min(lp, BOX)  # costs >= 1 and x >= 0: never unbounded
    if value is None:
        assert res.status == "infeasible"
        return
    assert res.status == "optimal"
    assert res.objective == pytest.approx(value, abs=TOL * (1 + abs(value)))
    _check_certificate(lp, res)


@st.composite
def chain_masters(draw, job_senses=("==", ">=")):
    """Chain-LP masters in miniature: a column puts one job on a run of
    slots; slot rows are <= 1, job rows >= 1 or == 1 (a sense of
    ``job_senses``).  Job j's column on slots 2j, 2j + 1 keeps every LP
    feasible."""
    jobs = draw(st.integers(2, 4))
    slots = draw(st.integers(2 * jobs, 2 * jobs + 6))
    weight = draw(st.lists(st.integers(1, 3), min_size=jobs, max_size=jobs))
    runs = draw(st.lists(st.tuples(st.integers(0, jobs - 1), st.integers(0, slots - 1), st.integers(1, 3)),
                         min_size=4, max_size=16))
    runs = [(j, s, min(n, slots - s)) for j, s, n in runs]
    columns = list(dict.fromkeys([(j, 2 * j, 2) for j in range(jobs)] + runs))
    lp = LinearProgram()
    job_sense = draw(st.sampled_from(job_senses))
    lp.add_rows(["<="] * slots + [job_sense] * jobs, np.ones(slots + jobs))
    rows = [[*range(s, s + n), slots + j] for j, s, n in columns]
    lp.add_columns(np.cumsum([0] + [len(r) for r in rows]), np.concatenate(rows), np.ones(sum(map(len, rows))),
                   [weight[j] * (s + n) for j, s, n in columns])
    return lp


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lp=chain_masters())
def test_large_perturbations_repair_to_the_certified_optimum(lp):
    # Shifts of 0.3 against right-hand sides of 1 make the perturbed optimum
    # often infeasible for the LP itself, so the dual repair has real work.
    # Every LP is feasible and bounded; the certificate proves optimality.
    expected = solve_lp(_copy(lp))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "PERTURB", 0.3)
        res = solve_lp(lp)
    assert res.status == expected.status == "optimal"
    assert res.objective == pytest.approx(expected.objective, abs=TOL * (1 + abs(expected.objective)))
    _check_certificate(lp, res)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lp=chain_masters(job_senses=("==",)))
def test_degenerate_given_basis_perturbs_to_the_certified_optimum(lp):
    # Job j's column on slots 2j, 2j + 1, with every slot row's slack, is a
    # feasible start with the slacks of those slots basic at zero: a solve
    # from it perturbs at its first stalled pivot.
    jobs = sum(sense == "==" for _, _, sense, _ in lp.rows)
    expected = solve_lp(_copy(lp))
    res = solve_lp(lp, np.arange(jobs))
    assert res.warm and res.status == expected.status == "optimal"
    assert res.objective == pytest.approx(expected.objective, abs=TOL * (1 + abs(expected.objective)))
    _check_certificate(lp, res)


@st.composite
def column_batches(draw):
    """Batches for a growing column store: per batch the row count it grows
    to and each new column's (row, value) entries in stored order.  A column
    is a few stretches of consecutive rows with one value each, which may
    meet with the same or another value, overlap, or be single entries;
    some columns are empty."""
    value = st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0]) | st.floats(-4.0, 4.0, allow_nan=False)
    m, batches = 0, []
    for _ in range(draw(st.integers(1, 4))):
        m += draw(st.integers(0, 6))
        columns = []
        for _ in range(draw(st.integers(0, 5))):
            entries = []
            for _ in range(draw(st.integers(0, 3)) if m else 0):
                lo = draw(st.integers(0, m - 1))
                v = draw(value)
                entries += [(r, v) for r in range(lo, lo + draw(st.integers(1, m - lo)))]
            columns.append(entries)
        batches.append((m, columns))
    return batches


_INDEX = ("rows", "vals", "colptr", "head_row", "head_val", "run_col", "run_val", "run_ends", "one_row", "in_run")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(column_batches(), st.randoms(use_true_random=False))
def test_run_products_match_dense_products(batches, rnd):
    # Prefix sums carry an error of about eps * sum |y| over the rows inside
    # runs, not just a column's, so the operands stay in [-1, 1] and the
    # bound below holds with room to spare.
    store, total = simplex._Columns(), 0
    rows, cols, vals, colptr = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), [0]
    for m, columns in batches:
        if rnd.random() < 0.3:  # any entry order within a column makes a valid store, with fewer runs
            columns = [rnd.sample(c, len(c)) for c in columns]
        new = colptr[-1] + np.cumsum([0] + [len(c) for c in columns])
        rows = np.concatenate((rows, np.array([r for c in columns for r, _ in c], dtype=np.int64)))
        cols = np.concatenate((cols, np.array([total + k for k, c in enumerate(columns) for _ in c], dtype=np.int64)))
        vals = np.concatenate((vals, np.array([v for c in columns for _, v in c], dtype=float)))
        store.append(new, rows, vals, m)
        total += len(columns)
        colptr += new[1:].tolist()

        A = np.zeros((m, total))
        np.add.at(A, (rows, cols), vals)
        y = np.array([rnd.uniform(-1.0, 1.0) for _ in range(m)])
        x = np.array([rnd.uniform(-1.0, 1.0) for _ in range(total)])
        left, right = store.left_multiply(y), store.right_multiply(x)
        assert left.shape == (total,) and right.shape == (m,)
        assert (np.abs(left - y @ A) <= 1e-12 * (1.0 + np.abs(y) @ np.abs(A))).all()
        assert (np.abs(right - A @ x) <= 1e-12 * (1.0 + np.abs(A) @ np.abs(x))).all()

    # The index grown batch by batch equals one built from all entries at once.
    whole = simplex._Columns()
    whole.append(np.array(colptr), rows, vals, batches[-1][0])
    for name in _INDEX:
        assert np.array_equal(getattr(store, name), getattr(whole, name)), name


def test_runs_split_at_columns_and_value_changes():
    store = simplex._Columns()
    columns = [
        [(2, 1.0), (3, 1.0), (4, 1.0)],  # one run, rows 2..4
        [(5, 1.0), (6, 1.0)],  # continues column 0's rows and value: a run of its own
        [(0, 1.0), (1, 2.0)],  # consecutive rows, different values: two entries
        [],
        [(3, -2.0)],
        [(1, -1.5), (2, -1.5), (3, -1.5), (3, -1.5), (2, -1.5)],  # a run, then two entries
    ]
    rows = np.array([r for c in columns for r, _ in c], dtype=np.int64)
    vals = np.array([v for c in columns for _, v in c])
    colptr = np.cumsum([0] + [len(c) for c in columns])
    store.append(colptr[:3], rows[:5], vals[:5], 7)
    store.append(colptr[2:], rows, vals, 7)
    assert store.run_ends.tolist() == [[2, 5, 1], [5, 7, 4]]
    assert store.one_row.tolist() == [0, 1, 3, 3, 2]
    assert store.run_col.tolist() == [0, 1, 5, 2, 2, 4, 5, 5]
    assert store.run_val.tolist() == [1.0, 1.0, -1.5, 1.0, 2.0, -2.0, -1.5, -1.5]
    y = np.arange(1.0, 8.0)
    assert store.left_multiply(y).tolist() == [12.0, 13.0, 5.0, 0.0, -8.0, -24.0]
    assert store.right_multiply(np.ones(6)).tolist() == [1.0, 0.5, -2.0, -4.0, 1.0, 1.0, 1.0]


def test_rows_outside_runs_add_no_round_off():
    # A large dual on a row no run covers (a job row, say) would swamp the
    # prefix sums a run's term is the difference of.
    store = simplex._Columns()
    store.append(np.array([0, 1, 4]), np.array([0, 1, 2, 3]), np.ones(4), 4)
    y = np.array([1e17, 0.1, 0.2, 0.3])
    assert store.left_multiply(y).tolist() == [1e17, y[1:].sum()]
