"""Property test for the chain LP's shift columns: on instances small
enough to list every chain, ``solve_chain_lp`` and
``solve_chain_lp_compressed(inst, 0.5)`` reach the optimum of the LP over
all chains, and the chains they return, after the recovery pass, meet
every block's capacity."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from alphasched.bench import random_instance  # noqa: E402
from alphasched.chain_lp import (  # noqa: E402
    build_compressed_timeline,
    solve_chain_lp,
    solve_chain_lp_compressed,
    validate_chain_solution,
)
from alphasched.instance import Instance, horizon  # noqa: E402
from alphasched.simplex import solve_lp  # noqa: E402
from chain_reference import earliest_per_block, enumerate_chains  # noqa: E402
from lp_rows import lp_from_rows  # noqa: E402

MAX_CHAINS = 1000


def chain_count(inst):
    """Chains of every allowed (machine, job) pair up to the horizon."""
    H, rel = horizon(inst), inst.release_matrix()
    return sum(math.comb(H - int(rel[j, i]), inst.size(j, i)) for j, i in zip(*inst.allowed_mask().nonzero()))


@st.composite
def instances(draw):
    """Small random instances, with per-machine releases half the time."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(2, 7)), draw(st.integers(1, 2))
    inst = random_instance(rng, n, m, p_max=draw(st.integers(1, 3)), r_max=draw(st.integers(0, 6)))
    if draw(st.booleans()):
        inst = Instance(m, n, inst.sizes, rng.integers(0, 7, size=(n, m)), inst.weights)
    assume(chain_count(inst) <= MAX_CHAINS)
    return inst


def all_chains_optimum(inst, ends):
    """The chain LP over every chain, each in its blocks' earliest slots
    after the release (equal forms are one column), solved cold."""
    rel, E = inst.release_matrix(), ends.tolist()
    chains = {}
    for j, i in zip(*inst.allowed_mask().nonzero()):
        r = int(rel[j, i])
        for slots in enumerate_chains(r, inst.size(j, i), E[-1]):
            chains[earliest_per_block(int(i), int(j), list(slots), r, E)] = None
    rows = {("job", j): {} for j in range(inst.num_jobs)}
    for k, c in enumerate(chains):
        rows["job", c.job][k] = 1.0
        for block in np.searchsorted(ends, c.slots).tolist():
            row = rows.setdefault((c.machine, block), {})
            row[k] = row.get(k, 0.0) + 1.0
    lengths = np.diff(ends, prepend=0)
    costs = [inst.weights[c.job] * ends[np.searchsorted(ends, c.completion)] for c in chains]
    spec = [
        (list(row), list(row.values()), ">=", 1.0) if key[0] == "job" else (list(row), list(row.values()), "<=", float(lengths[key[1]]))
        for key, row in rows.items()
    ]
    res = solve_lp(lp_from_rows(costs, spec))
    assert res.status == "optimal"
    return res.objective


# One machine, whose final master overloads a block: in the exact LP, and
# at eps 0.5.
OVERLOADED = Instance(1, 4, [[2], [2], [2], [1]], [0, 0, 1, 3], [2.0, 4.0, 4.0, 5.0])
OVERLOADED_COMPRESSED = Instance(1, 4, [[3], [1], [1], [2]], [2, 1, 0, 2], [5.0, 5.0, 3.0, 1.0])


def test_shift_columns_keep_the_all_chains_optimum():
    # Some final masters overload a block, which the recovery pass repairs:
    # the two explicit examples' do, and drawn instances this small seldom.
    recovered = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(instances(), st.sampled_from((None, 0.5)))
    @example(OVERLOADED, None)
    @example(OVERLOADED_COMPRESSED, 0.5)
    def check(inst, eps):
        if eps is None:
            sol, ends = solve_chain_lp(inst), np.arange(1, horizon(inst) + 1)
        else:
            sol, ends = solve_chain_lp_compressed(inst, eps), build_compressed_timeline(inst, eps).ends
        validate_chain_solution(inst, sol)
        assert sol.objective == pytest.approx(all_chains_optimum(inst, ends), rel=1e-9, abs=0.0)
        recovered.append(sol.stats["recovery_moves"] > 0)

    check()
    print(f"{sum(recovered)} of {len(recovered)} examples needed the recovery")
    assert recovered[:2] == [True, True]
