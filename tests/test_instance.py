from itertools import permutations

import numpy as np
import pytest

from alphasched.instance import (
    FORBIDDEN,
    Instance,
    InstanceError,
    NonPreemptiveSchedule,
    PreemptiveSchedule,
    ScheduleError,
    evaluate_schedule,
    horizon,
    instance_to_json,
    lp_horizon,
    parse_instance,
)


def make(sizes, releases, weights, m=None):
    sizes = np.asarray(sizes)
    return Instance(
        num_machines=m or sizes.shape[1],
        num_jobs=sizes.shape[0],
        sizes=sizes,
        releases=releases,
        weights=weights,
    )


def test_parse_minimal():
    inst = parse_instance('{"machines": 1, "jobs": [{"release": 0, "weight": 1, "sizes": [3]}]}')
    assert inst.num_machines == 1 and inst.num_jobs == 1
    assert inst.size(0, 0) == 3 and inst.releases.tolist() == [0]


def test_parse_forbidden_sentinel():
    inst = parse_instance(
        '{"machines": 2, "jobs": [{"release": 0, "weight": 1, "sizes": [3, null]}]}'
    )
    assert inst.allowed(0, 0) and not inst.allowed(0, 1)
    sched = NonPreemptiveSchedule(machine=[1], start=[0])
    with pytest.raises(ScheduleError, match="forbidden"):
        evaluate_schedule(inst, sched)


def test_parse_missing_weight_rejected():
    with pytest.raises(InstanceError, match="weight"):
        parse_instance('{"machines": 1, "jobs": [{"release": 0, "sizes": [3]}]}')


def test_parse_bad_values_rejected():
    with pytest.raises(InstanceError):
        parse_instance('{"machines": 1, "jobs": [{"release": -1, "weight": 1, "sizes": [3]}]}')
    with pytest.raises(InstanceError):
        parse_instance('{"machines": 1, "jobs": [{"release": 0, "weight": -2, "sizes": [3]}]}')
    with pytest.raises(InstanceError):
        parse_instance('{"machines": 1, "jobs": [{"release": 0, "weight": 1, "sizes": [0]}]}')
    with pytest.raises(InstanceError, match="forbidden on every machine"):
        parse_instance('{"machines": 1, "jobs": [{"release": 0, "weight": 1, "sizes": [null]}]}')
    with pytest.raises(InstanceError):
        parse_instance("not json at all")


def test_parse_per_machine_releases():
    inst = parse_instance(
        '{"machines": 2, "jobs": [{"release": [1, 4], "weight": 1, "sizes": [2, 2]}]}'
    )
    assert inst.per_machine_releases
    assert inst.release_matrix().tolist() == [[1, 4]]


def test_json_round_trip():
    inst = make([[3, FORBIDDEN], [2, 5]], [1, 0], [1.5, 2.0])
    again = parse_instance(instance_to_json(inst))
    assert np.array_equal(again.sizes, inst.sizes)
    assert np.array_equal(again.releases, inst.releases)
    assert np.allclose(again.weights, inst.weights)


def test_horizon_examples():
    assert horizon(make([[3, 5]], [2], [1.0])) == 10
    assert horizon(make([[1], [4]], [0, 0], [1.0, 1.0])) == 5
    assert horizon(make([[1]], [100], [1.0])) == 101


def test_horizon_forbidden_contributes_zero():
    assert horizon(make([[3, FORBIDDEN]], [2], [1.0])) == 5


def test_horizon_monotone_in_jobs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        sizes = rng.integers(1, 9, size=(n + 1, m))
        releases = rng.integers(0, 9, size=n + 1)
        weights = np.ones(n + 1)
        small = make(sizes[:n], releases[:n], weights[:n])
        big = make(sizes, releases, weights)
        assert horizon(big) >= horizon(small)


def test_lp_horizon_equals_horizon_on_one_machine():
    for inst in (make([[3], [5], [2]], [2, 0, 7], [1.0, 1.0, 1.0]), make([[1]], [100], [1.0])):
        assert lp_horizon(inst) == horizon(inst)


def test_lp_horizon_examples():
    # r_max + sum_j max_i p_ij + p_max - 1 = 2 + (5 + 4 + 2) + 5 - 1 = 17.
    inst = make([[3, 5], [4, 1], [2, 2]], [2, 0, 1], [1.0, 1.0, 1.0])
    assert (horizon(inst), lp_horizon(inst)) == (19, 17)
    # Never above the horizon: 0 + 5 + 3 - 1 = 7 > 5.
    inst = make([[3, FORBIDDEN], [FORBIDDEN, 2]], [0, 0], [1.0, 1.0])
    assert lp_horizon(inst) == horizon(inst) == 5


def test_lp_horizon_ignores_forbidden_pairs():
    # Job 0 cannot run on machine 1, so neither its release 50 there nor the
    # sentinel size counts: r_max = 3, sum_j max_i p_ij = 9 + 4 + 2, p_max = 9.
    inst = make(
        [[3, FORBIDDEN, 9], [4, 1, 1], [2, 2, 2]],
        [[0, 50, 1], [1, 2, 3], [0, 0, 0]],
        [1.0, 1.0, 1.0],
    )
    assert (horizon(inst), lp_horizon(inst)) == (27, 3 + 15 + 9 - 1)


def test_lp_horizon_per_machine_releases():
    # r_max is the largest per-machine release, 7, on job 0's machine 1.
    inst = make([[2, 3], [1, 4], [2, 2]], [[0, 7], [2, 1], [0, 0]], [1.0, 1.0, 1.0])
    assert (horizon(inst), lp_horizon(inst)) == (21, 7 + 9 + 4 - 1)


def test_evaluate_single_job():
    inst = make([[3]], [0], [2.0])
    cost = evaluate_schedule(inst, NonPreemptiveSchedule(machine=[0], start=[0]))
    assert cost.objective == 6.0
    assert cost.completion.tolist() == [3]


def test_evaluate_two_jobs_order_is_optimal():
    # Enumerating both orders: (0,1) gives C=(1,3) objective 4; (1,0) gives 5.
    inst = make([[1], [2]], [0, 0], [1.0, 1.0])
    best = min(
        sum(
            inst.weights[j] * c
            for j, c in _pack_order(inst, perm).items()
        )
        for perm in permutations(range(2))
    )
    cost = evaluate_schedule(inst, NonPreemptiveSchedule(machine=[0, 0], start=[0, 1]))
    assert cost.objective == 4.0 == best
    assert cost.completion.tolist() == [1, 3]


def _pack_order(inst, order):
    fin = 0
    out = {}
    for j in order:
        s = max(int(inst.releases[j]), fin)
        fin = s + inst.size(j, 0)
        out[j] = fin
    return out


def test_evaluate_preemptive_chain():
    inst = make([[2]], [0], [1.0])
    cost = evaluate_schedule(inst, PreemptiveSchedule(machine=[0], chains=[(1, 3)]))
    assert cost.objective == 3.0


def test_evaluate_rejects_overlap():
    inst = make([[2], [2]], [0, 0], [1.0, 1.0])
    with pytest.raises(ScheduleError, match="overlap"):
        evaluate_schedule(inst, NonPreemptiveSchedule(machine=[0, 0], start=[0, 1]))


def test_evaluate_rejects_early_start():
    inst = make([[2]], [3], [1.0])
    with pytest.raises(ScheduleError, match="before release"):
        evaluate_schedule(inst, NonPreemptiveSchedule(machine=[0], start=[2]))


def test_evaluate_rejects_preemptive_slot_clash():
    inst = make([[1], [1]], [0, 0], [1.0, 1.0])
    with pytest.raises(ScheduleError, match="occupy slot"):
        evaluate_schedule(inst, PreemptiveSchedule(machine=[0, 0], chains=[(1,), (1,)]))
    with pytest.raises(ScheduleError, match="release"):
        evaluate_schedule(
            make([[1]], [2], [1.0]), PreemptiveSchedule(machine=[0], chains=[(2,)])
        )


def test_evaluate_permutation_invariant():
    rng = np.random.default_rng(3)
    inst = make(rng.integers(1, 6, size=(4, 2)), rng.integers(0, 5, size=4), rng.uniform(1, 3, 4))
    machine = np.array([0, 1, 0, 1])
    start = np.array([0, 0, 10, 20])
    base = evaluate_schedule(inst, NonPreemptiveSchedule(machine=machine, start=start))
    perm = [2, 0, 3, 1]
    shuffled = make(inst.sizes[perm], inst.releases[perm], inst.weights[perm])  # job k is job perm[k]
    cost = evaluate_schedule(
        shuffled, NonPreemptiveSchedule(machine=machine[perm], start=start[perm])
    )
    assert cost.objective == pytest.approx(base.objective)


def test_accepted_schedule_passes_unit_sweep():
    # At every integer t at most one job is active per machine.
    rng = np.random.default_rng(4)
    inst = make(rng.integers(1, 6, size=(5, 2)), np.zeros(5, dtype=int), np.ones(5))
    machine = np.array([0, 0, 1, 1, 0])
    start = np.array([0, 6, 0, 5, 12])
    evaluate_schedule(inst, NonPreemptiveSchedule(machine=machine, start=start))
    for i in range(inst.num_machines):
        for t in range(1, horizon(inst) + 1):
            active = sum(
                1
                for j in range(inst.num_jobs)
                if machine[j] == i and start[j] < t <= start[j] + inst.size(j, i)
            )
            assert active <= 1


def test_instance_arrays_immutable():
    inst = make([[3]], [0], [1.0])
    with pytest.raises(ValueError):
        inst.sizes[0, 0] = 5
