"""Property tests for inverse-CDF sampling on random non-negative
piecewise-polynomial densities, some pieces of zero density."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from numpy.polynomial import Polynomial  # noqa: E402

from alphasched.distributions import OffsetDistribution  # noqa: E402

COEF = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])


class FixedUniforms:
    """Stands in for a Generator: ``random`` returns the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        return self.values.reshape(size)


@st.composite
def densities(draw):
    """1-4 pieces on breakpoints at multiples of 1/8.  A non-zero piece is
    sum_j b_j s^j (degree <= 3, b_j >= 0) in s = (t - lo) / w or
    s = (hi - t) / w, so it is non-negative and vanishes at an end when
    b_0 = 0; the whole density is scaled to mass 1."""
    pieces = draw(st.integers(1, 4))
    cuts = sorted(draw(st.sets(st.integers(1, 7), min_size=pieces - 1, max_size=pieces - 1)))
    breaks = [0.0] + [c / 8 for c in cuts] + [1.0]
    zero = draw(st.lists(st.booleans(), min_size=pieces, max_size=pieces))
    zero[draw(st.integers(0, pieces - 1))] = False
    polys, mass = [], 0.0
    for k in range(pieces):
        lo, hi = breaks[k], breaks[k + 1]
        w = hi - lo
        b = [0.0] if zero[k] else draw(st.lists(COEF, min_size=1, max_size=4))
        if not zero[k] and not any(b):
            b[-1] = 1.0
        s = Polynomial([-lo / w, 1 / w]) if draw(st.booleans()) else Polynomial([hi / w, -1 / w])
        polys.append(Polynomial(b)(s))
        mass += w * sum(bj / (j + 1) for j, bj in enumerate(b))
    coeffs = [(p / mass).coef for p in polys]
    return OffsetDistribution(breaks, coeffs), [k for k in range(pieces) if zero[k]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(densities(), st.integers(0, 2**32 - 1))
def test_sampler_inverts_random_densities(case, seed):
    dist, zero_pieces = case
    # Random u plus u = 0 and u at every breakpoint's CDF level.
    levels = dist.cdf(dist.breakpoints) / dist.raw_mass
    r = np.sort(np.concatenate([np.random.default_rng(seed).random(300), [0.0], levels]))
    r = r[r < 1.0]
    theta = dist.sample(FixedUniforms(r), r.size)
    u = r * dist.raw_mass

    assert ((theta >= 0.0) & (theta <= 1.0)).all()
    for k in zero_pieces:
        lo, hi = dist.breakpoints[k], dist.breakpoints[k + 1]
        assert not ((theta > lo) & (theta < hi)).any()
    assert (np.diff(theta) >= 0.0).all()
    assert np.abs(dist.cdf(theta) - u).max() <= 1e-12
