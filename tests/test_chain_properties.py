"""Property tests for chains: the vectorized A(v) against Chain.at, and
Chain.inverse as the inverse of Chain.at on (0, length]."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from alphasched.chains import Chain, chain_eval_many  # noqa: E402


@st.composite
def chains(draw):
    p = draw(st.integers(1, 6))
    release = draw(st.integers(0, 5))
    gaps = draw(st.lists(st.integers(1, 3), min_size=p, max_size=p))
    return Chain(machine=0, job=0, slots=tuple(release + np.cumsum(gaps)))


def works(length):
    return st.floats(min_value=0.0, max_value=float(length), exclude_min=True)


@st.composite
def lookups(draw):
    """Up to 4 chains, and up to 8 (chain, work) pairs on them."""
    group = draw(st.lists(chains(), min_size=1, max_size=4))
    idx = draw(st.lists(st.integers(0, len(group) - 1), min_size=1, max_size=8))
    return group, idx, [draw(works(group[i].length)) for i in idx]


def chain(*slots):
    return Chain(machine=0, job=0, slots=slots)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lookups())
# Work at an integer, where A(v) is the slot's right end.
@example(([chain(3, 5, 9)], [0, 0, 0], [1.0, 2.0, 3.0]))
# Within 1e-12 above and below an integer, which count as the integer.
@example(([chain(3, 5, 9)], [0] * 6, [1 + 5e-13, 1 + 1e-12, 2 - 5e-13, 2 - 1e-12, 2 + 5e-13, 3 - 5e-13]))
# In (0, 1e-12], which lies in the first slot.
@example(([chain(3, 5, 9)], [0, 0, 0], [5e-324, 1e-13, 1e-12]))
# Chains shorter than the padded width: their ends, and near them, never
# read the padding.
@example(([chain(4), chain(3, 5, 9), chain(1, 7)], [0, 0, 2, 2, 2, 1], [1.0, 1 - 5e-13, 2.0, 2 - 5e-13, 1e-12, 3.0]))
def test_chain_eval_many_matches_at(case):
    group, idx, work = case
    # The padded slot matrix is laid out as the preemptive sampler builds it.
    width = max(c.length for c in group)
    slot_matrix = np.zeros((len(group), width), dtype=np.int64)
    for k, c in enumerate(group):
        slot_matrix[k, : c.length] = c.slots
    got = chain_eval_many(slot_matrix, np.array(idx), np.array(work))
    assert got.tolist() == [group[i].at(v) for i, v in zip(idx, work)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(chains(), st.data())
def test_inverse_undoes_at(chain, data):
    v = data.draw(works(chain.length))
    t = chain.at(v)
    assert chain.slots[0] - 1 <= t <= chain.completion
    assert chain.inverse(t) == pytest.approx(v, abs=1e-11)
