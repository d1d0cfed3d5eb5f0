"""Property tests for inverse-CDF sampling on random non-negative
piecewise-polynomial densities, some pieces of zero density, and the same
draws as a sampler that searches every draw's piece."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from numpy.polynomial import Polynomial  # noqa: E402

from alphasched.distributions import (  # noqa: E402
    NEWTON_CAP,
    NEWTON_TOL,
    TABLE_POINTS,
    OffsetDistribution,
    _polyval,
    from_spec,
)

COEF = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])


class FixedUniforms:
    """Stands in for a Generator: ``random`` returns the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        return self.values.reshape(size).copy()  # a fresh array, as Generator.random returns


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


# -- the sampler that searches every draw's piece, kept as the reference --------


def reference_sample(dist, rng, size=None):
    """``OffsetDistribution.sample`` before single-piece laws skipped the
    search: each draw's piece is searched, then every polynomial piece's
    draws are gathered, inverted on fresh arrays and scattered back: by
    Cardano's formula on the pieces that keep its constants, which must
    have a cubic CDF with p > 0, else by ``reference_newton``."""
    scalar = size is None
    u = rng.random(1 if scalar else size) * dist.raw_mass
    piece = np.searchsorted(dist._cum, u, side="right") - 1
    np.clip(piece, 0, len(dist.coeffs) - 1, out=piece)
    theta = (u - dist._cum[piece]) * dist._slope[piece] + dist._start[piece]
    theta = np.minimum(theta, dist._hi[piece])
    for k, (scale, shift, cube, p3, b3) in dist._cubics.items():
        a0, a1, a2, a3 = dist._F[k][:4]
        assert a3 > 0.0 and a1 / a3 - (a2 / a3) ** 2 / 3.0 > 0.0  # increasing on the whole line
        mask = piece == k
        half_q = u[mask] * scale + shift
        minus_a = np.cbrt(half_q + np.copysign(np.sqrt(half_q * half_q + cube), half_q))
        theta[mask] = np.clip(p3 / minus_a - minus_a - b3, dist.breakpoints[k], dist.breakpoints[k + 1])
    for k, (table, scale) in dist._tables.items():
        mask = piece == k
        u_k = u[mask]
        x = (u_k - dist._cum[k]) * scale
        j = np.minimum(x.astype(np.intp), TABLE_POINTS - 2)
        x -= j
        lows, highs = table[j], table[j + 1]
        start = np.clip((highs - lows) * x + lows, lows, highs)
        theta[mask] = reference_newton(dist, k, u_k, lows, highs, start)
    return float(theta[0]) if scalar else theta


def reference_newton(dist, k, u, lows, highs, t):
    """Bracketed Newton steps on fresh arrays, every draw to the same stop."""
    F_k, f_k = dist._F[k], dist.coeffs[k]
    out, active = None, None
    for _ in range(NEWTON_CAP):
        resid = _polyval(F_k, t) - u
        dens = _polyval(f_k, t)
        below = resid <= 0.0
        lows, highs = np.where(below, t, lows), np.where(below, highs, t)
        bad = (dens <= 0.0) & (resid != 0.0)
        step = np.divide(resid, dens, out=resid.copy(), where=dens > 0.0)
        nxt = t - step
        bad |= (nxt < lows) | (nxt > highs)
        nxt[bad] = 0.5 * (lows[bad] + highs[bad])
        step = np.abs(nxt - t)
        t = nxt
        if step.max(initial=0.0) < NEWTON_TOL:
            break
        if step.min() < NEWTON_TOL:
            moving = step >= NEWTON_TOL
            if out is None:
                out, active = t, np.arange(t.size)
            else:
                out[active] = t
            active = active[moving]
            t, u, lows, highs = t[moving], u[moving], lows[moving], highs[moving]
    if out is None:
        return t
    out[active] = t
    return out


def assert_same_bits(got, want):
    if isinstance(want, float):
        assert isinstance(got, float) and got.hex() == want.hex()
    else:
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(densities(), st.integers(0, 2**32 - 1), st.sampled_from([None, 1, 7, (33, 5)]))
def test_sampler_matches_search_reference(case, seed, size):
    # Laws with one piece of mass invert it on the whole array; the others
    # search.  Either way the draws are the reference's, bit for bit, on
    # generator draws and on u = 0 and every breakpoint's CDF level.
    dist, _ = case
    got = dist.sample(np.random.default_rng(seed), size)
    assert_same_bits(got, reference_sample(dist, np.random.default_rng(seed), size))
    levels = dist.cdf(dist.breakpoints) / dist.raw_mass
    r = np.concatenate([[0.0], levels[levels < 1.0]])
    assert_same_bits(dist.sample(FixedUniforms(r), r.size), reference_sample(dist, FixedUniforms(r), r.size))


@pytest.mark.parametrize("spec", ["uniform", "quadratic", f"clipped:{1.0 / 5100.0!r}", "clipped:0.25"])
def test_builtin_laws_match_search_reference(spec):
    dist = from_spec(spec)
    assert dist._live is not None  # one piece holds all the mass: no search
    for seed in (0, 1, 20160608):
        for size in (None, 1, 5, (512, 8), (1638, 5)):
            got = dist.sample(np.random.default_rng(seed), size)
            assert_same_bits(got, reference_sample(dist, np.random.default_rng(seed), size))
