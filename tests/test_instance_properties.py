"""Property test for the instance JSON schema: ``parse_instance`` of
``instance_to_json`` gives the instance back, with forbidden pairs,
per-machine releases, its name and ``meta``."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from alphasched.instance import FORBIDDEN, Instance, instance_to_json, parse_instance  # noqa: E402

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def instances(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    size = st.one_of(st.just(FORBIDDEN), st.integers(1, 2**40))
    sizes = [draw(st.lists(size, min_size=m, max_size=m)) for _ in range(n)]
    for row in sizes:  # every job keeps an allowed machine
        k = draw(st.integers(0, m - 1))
        row[k] = abs(row[k])
    release = st.integers(0, 2**40)
    per_machine = draw(st.booleans())
    releases = draw(st.lists(st.lists(release, min_size=m, max_size=m) if per_machine else release,
                             min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n))
    meta = draw(st.dictionaries(st.text().filter(lambda k: k not in ("machines", "jobs", "name")), JSON, max_size=3))
    return Instance(m, n, sizes, releases, weights, name=draw(st.text()), meta=meta)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(instances())
def test_instance_json_round_trip(inst):
    text = instance_to_json(inst)
    again = parse_instance(text)
    assert (again.num_machines, again.num_jobs, again.name, again.meta) == (
        inst.num_machines, inst.num_jobs, inst.name, inst.meta)
    assert np.array_equal(again.sizes, inst.sizes)
    assert again.releases.shape == inst.releases.shape and np.array_equal(again.releases, inst.releases)
    assert again.weights.tobytes() == inst.weights.tobytes()
    assert instance_to_json(again) == text
