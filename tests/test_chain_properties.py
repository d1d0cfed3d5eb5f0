"""Property tests for chains: the vectorized A(v) against Chain.at, and
Chain.inverse as the inverse of Chain.at on (0, length]."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from alphasched.chains import Chain, chain_eval_many  # noqa: E402


@st.composite
def chains(draw):
    p = draw(st.integers(1, 6))
    release = draw(st.integers(0, 5))
    gaps = draw(st.lists(st.integers(1, 3), min_size=p, max_size=p))
    return Chain(machine=0, job=0, slots=tuple(release + np.cumsum(gaps)))


def works(length):
    return st.floats(min_value=0.0, max_value=float(length), exclude_min=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(chains(), min_size=1, max_size=4), st.data())
def test_chain_eval_many_matches_at(group, data):
    # The padded slot matrix is laid out as the preemptive sampler builds it.
    width = max(c.length for c in group)
    slot_matrix = np.zeros((len(group), width), dtype=np.int64)
    for k, c in enumerate(group):
        slot_matrix[k, : c.length] = c.slots
    idx = np.array(data.draw(st.lists(st.integers(0, len(group) - 1), min_size=1, max_size=8)))
    work = np.array([data.draw(works(group[i].length)) for i in idx])
    got = chain_eval_many(slot_matrix, idx, work)
    assert got.tolist() == [group[i].at(v) for i, v in zip(idx, work)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(chains(), st.data())
def test_inverse_undoes_at(chain, data):
    v = data.draw(works(chain.length))
    t = chain.at(v)
    assert chain.slots[0] - 1 <= t <= chain.completion
    assert chain.inverse(t) == pytest.approx(v, abs=1e-11)
