import tracemalloc

import numpy as np
import pytest

from alphasched.bench import random_instance
from alphasched.instance import FORBIDDEN, Instance, evaluate_schedule
from alphasched.interval_lp import solve_interval_lp
from alphasched.chain_lp import solve_chain_lp
from alphasched.oracle import (
    GuardExceeded,
    brute_force_nonpreemptive,
    brute_force_preemptive,
)
from oracle_reference import reference_nonpreemptive, reference_preemptive


def make(sizes, releases, weights):
    sizes = np.asarray(sizes)
    return Instance(
        num_machines=sizes.shape[1],
        num_jobs=sizes.shape[0],
        sizes=sizes,
        releases=releases,
        weights=weights,
    )


def test_np_two_jobs_short_first():
    inst = make([[1], [2]], [0, 0], [1.0, 1.0])
    obj, sched = brute_force_nonpreemptive(inst)
    assert obj == 4.0  # orders give 4 vs 5
    assert evaluate_schedule(inst, sched).objective == obj


def test_np_single_job_best_machine():
    inst = make([[5, 2]], [3], [2.0])
    obj, sched = brute_force_nonpreemptive(inst)
    assert obj == pytest.approx(2.0 * (3 + 2))
    assert sched.machine.tolist() == [1]


def test_np_two_machines_no_contention():
    inst = make([[2, 2], [2, 2]], [1, 1], [1.0, 1.0])
    obj, sched = brute_force_nonpreemptive(inst)
    assert obj == pytest.approx(2 * (1 + 2))
    assert set(sched.machine.tolist()) == {0, 1}
    assert sched.start.tolist() == [1, 1]


def test_preemptive_interrupt_pays_off():
    inst = make([[3], [1]], [0, 1], [1.0, 10.0])
    obj, sched = brute_force_preemptive(inst)
    assert obj == 24.0  # run job 1 during (1, 2], finish job 0 at 4
    assert evaluate_schedule(inst, sched).objective == obj
    np_obj, _ = brute_force_nonpreemptive(inst)
    assert np_obj > obj  # preemption strictly helps here


def test_single_job_preemption_useless():
    inst = make([[4, 6]], [2], [1.5])
    o_np, _ = brute_force_nonpreemptive(inst)
    o_p, _ = brute_force_preemptive(inst)
    assert o_np == o_p == pytest.approx(1.5 * (2 + 4))


def test_preemptive_never_worse():
    rng = np.random.default_rng(5)
    for _ in range(12):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        inst = make(
            rng.integers(1, 5, size=(n, m)), rng.integers(0, 6, size=n), rng.uniform(1, 5, n)
        )
        o_np, _ = brute_force_nonpreemptive(inst)
        o_p, _ = brute_force_preemptive(inst)
        assert o_p <= o_np + 1e-9


def test_zero_releases_preemption_never_helps():
    rng = np.random.default_rng(6)
    for _ in range(8):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        inst = make(
            rng.integers(1, 6, size=(n, m)), np.zeros(n, dtype=int), rng.uniform(1, 5, n)
        )
        o_np, _ = brute_force_nonpreemptive(inst)
        o_p, _ = brute_force_preemptive(inst)
        assert o_np == pytest.approx(o_p, abs=1e-9)


def test_lp_values_bound_the_optima():
    rng = np.random.default_rng(7)
    for _ in range(6):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        inst = make(
            rng.integers(1, 5, size=(n, m)), rng.integers(0, 6, size=n), rng.uniform(1, 5, n)
        )
        o_np, _ = brute_force_nonpreemptive(inst)
        o_p, _ = brute_force_preemptive(inst)
        assert solve_interval_lp(inst).objective <= o_np + 1e-6
        assert solve_chain_lp(inst).objective <= o_p + 1e-6


def test_guard_trips():
    # 15 jobs: the 3^15 subset pairs of the machine partition alone exceed
    # the default guard.
    inst = make(np.ones((15, 3), dtype=int), np.zeros(15, dtype=int), np.ones(15))
    with pytest.raises(GuardExceeded):
        brute_force_nonpreemptive(inst)
    with pytest.raises(GuardExceeded):
        brute_force_preemptive(inst)
    # generous explicit guard lets the small search run
    obj, _ = brute_force_nonpreemptive(make([[1]], [0], [1.0]), guard=10)
    assert obj == 1.0


@pytest.mark.parametrize("oracle", [brute_force_nonpreemptive, brute_force_preemptive])
def test_guard_refuses_before_allocating(oracle):
    # 1,024 subsets times a horizon near 40 on each of 3 machines: about
    # 1 MB of tables, where the refusal allocates next to nothing.
    inst = make(np.full((10, 3), 4), np.zeros(10, dtype=int), np.ones(10))
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded, match="guard"):
            oracle(inst, guard=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_twelve_jobs_on_three_machines_within_the_default_guard():
    inst = random_instance(np.random.default_rng(0), 12, 3)
    o_np, s_np = brute_force_nonpreemptive(inst)
    o_p, s_p = brute_force_preemptive(inst)
    assert evaluate_schedule(inst, s_np).objective == pytest.approx(o_np, rel=1e-12)
    assert evaluate_schedule(inst, s_p).objective == pytest.approx(o_p, rel=1e-12)
    assert o_p <= o_np


def random_oracle_instance(seed):
    """Seeded instance for the reference comparison: up to 7 jobs on 1-3
    machines, sizes 1-5 with about a quarter of the pairs forbidden,
    per-job or per-machine releases 0-7, and weights 0-5, a fifth of
    them zero."""
    rng = np.random.default_rng(seed)
    n = 7 if seed % 50 == 49 else 1 + seed % 6
    m = int(rng.integers(1, 4))
    sizes = rng.integers(1, 6, size=(n, m))
    sizes[rng.random((n, m)) < 0.25] = FORBIDDEN
    for j in np.flatnonzero((sizes == FORBIDDEN).all(axis=1)):
        sizes[j, rng.integers(m)] = rng.integers(1, 6)
    releases = rng.integers(0, 8, size=(n, m) if rng.random() < 0.5 else n)
    weights = rng.uniform(0.0, 5.0, n) * (rng.random(n) >= 0.2)
    return make(sizes, releases, weights)


@pytest.mark.parametrize("block", range(5))
def test_dp_oracles_match_the_reference(block):
    """100 seeded instances per block, 500 in all; n = 7 on every 50th."""
    for seed in range(100 * block, 100 * block + 100):
        inst = random_oracle_instance(seed)
        for dp, reference in (
            (brute_force_nonpreemptive, reference_nonpreemptive),
            (brute_force_preemptive, reference_preemptive),
        ):
            obj, sched = dp(inst)
            want, _ = reference(inst)
            assert obj == pytest.approx(want, rel=1e-12, abs=1e-12), (seed, dp.__name__)
            got = evaluate_schedule(inst, sched).objective
            assert got == pytest.approx(obj, rel=1e-12, abs=1e-12), (seed, dp.__name__)


def test_long_jobs_match_the_reference():
    # Sizes in the thousands: the non-preemptive table fills chunks of
    # 1,500 and 1,600 rows (each machine's shortest size), and releases
    # fall inside the chunks.
    inst = make(
        [[1500, 2200], [1800, FORBIDDEN], [2500, 1600], [3100, 2900]],
        [[700, 0], [2100, 2100], [0, 3300], [1200, 800]],
        [1.0, 3.0, 2.0, 0.5],
    )
    for dp, reference in (
        (brute_force_nonpreemptive, reference_nonpreemptive),
        (brute_force_preemptive, reference_preemptive),
    ):
        obj, sched = dp(inst)
        want, _ = reference(inst)
        assert obj == pytest.approx(want, rel=1e-12, abs=1e-12), dp.__name__
        assert evaluate_schedule(inst, sched).objective == pytest.approx(obj, rel=1e-12), dp.__name__


def _slot_dfs_preemptive(inst):
    """Independent preemptive oracle: depth-first over unit slots, each slot
    assigned to any released unfinished job or left idle."""
    from functools import lru_cache
    from alphasched.instance import horizon

    n = inst.num_jobs
    assert inst.num_machines == 1, "cross-check oracle is single-machine"
    T = horizon(inst)
    sizes = tuple(int(inst.sizes[j, 0]) for j in range(n))
    rel = tuple(int(inst.releases[j]) for j in range(n))
    w = tuple(float(x) for x in inst.weights)

    @lru_cache(maxsize=None)
    def go(t, remaining):
        if all(r == 0 for r in remaining):
            return 0.0
        if t > T:
            return float("inf")
        best = go(t + 1, remaining)  # idle slot
        for j in range(n):
            if remaining[j] > 0 and rel[j] < t:  # slot (t-1, t] needs release <= t-1
                nxt = list(remaining)
                nxt[j] -= 1
                cost = w[j] * t if nxt[j] == 0 else 0.0
                best = min(best, cost + go(t + 1, tuple(nxt)))
        return best

    return go(1, sizes)


def test_per_machine_releases_end_to_end():
    # r depends on the machine: starting on machine 1 only allowed later.
    inst = Instance(
        num_machines=2,
        num_jobs=2,
        sizes=np.array([[2, 2], [3, 3]]),
        releases=np.array([[0, 6], [1, 1]]),
        weights=np.array([5.0, 1.0]),
    )
    obj, sched = brute_force_nonpreemptive(inst)
    rel = inst.release_matrix()
    for j in range(2):
        assert sched.start[j] >= rel[j, sched.machine[j]]
    lp = solve_interval_lp(inst)
    assert lp.objective <= obj + 1e-6
    chain = solve_chain_lp(inst)
    assert chain.objective <= lp.objective + 1e-6


def test_preemptive_matches_slot_dfs():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        inst = make(
            rng.integers(1, 4, size=(n, 1)), rng.integers(0, 4, size=n), rng.uniform(1, 5, n)
        )
        ours, _ = brute_force_preemptive(inst)
        reference = _slot_dfs_preemptive(inst)
        assert ours == pytest.approx(reference, abs=1e-9)
