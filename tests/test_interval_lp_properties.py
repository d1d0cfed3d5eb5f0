"""Property tests for the interval LP's list-schedule start: on random
instances the list schedule is a valid schedule, the LP optimum lies at or
below its cost, and the solve starts warm from it and reaches the optimum of
a cold solve."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from alphasched.bench import random_instance  # noqa: E402
from alphasched.instance import NonPreemptiveSchedule, evaluate_schedule  # noqa: E402
from alphasched.interval_lp import build_interval_lp, compress_start_times, list_schedule  # noqa: E402
from alphasched.simplex import solve_lp  # noqa: E402

from test_interval_lp import solve_recorded  # noqa: E402


@st.composite
def instances(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n, m = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    forbid = draw(st.floats(0.0, 0.3))
    return random_instance(np.random.default_rng(seed), n, m, forbid_prob=forbid)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(instances(), st.sampled_from((None, 0.2, 0.5)))
def test_list_schedule_start_is_warm_and_optimal(inst, eps):
    starts = None if eps is None else compress_start_times(inst, eps)
    model = build_interval_lp(inst, starts)
    chosen = list_schedule(inst, model)
    assert chosen is not None
    schedule = NonPreemptiveSchedule(machine=model.machine[chosen], start=model.start[chosen])
    cost = evaluate_schedule(inst, schedule).objective
    assert model.lp.objective[chosen].sum() == pytest.approx(cost, rel=1e-12)

    sol, res = solve_recorded(inst, eps)
    assert res.warm
    assert sol.objective <= cost * (1 + 1e-12)
    cold = solve_lp(build_interval_lp(inst, starts).lp)
    assert cold.status == "optimal" and not cold.warm
    assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
