import copy
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from alphasched.distributions import (
    DistributionError,
    OffsetDistribution,
    from_spec,
)

A, B, C, D = 0.1702, 0.5768, 0.8746, 0.85897
E1 = 1.0 - 1.0 / math.e


def closed_form_quadratic_constants():
    """Hand evaluation of the truncated-quadratic constants, independent of
    the piecewise machinery."""
    f1 = A * D**3 / 3 + B * D**2 / 2 + C * D
    beta = A * D**4 / 4 + B * D**3 / 3 + C * D**2 / 2
    a2 = -E1 * A / 4
    a1 = 2 * A / 3 - E1 * B / 3
    a0 = B / 2 - E1 * C / 2
    phi_star = (a1 + math.sqrt(a1 * a1 - 4 * a0 * a2)) / (-2 * a2)

    def rho(phi):
        return A * phi**2 / 3 + B * phi / 2 + C - E1 * (A * phi**3 / 12 + B * phi**2 / 6 + C * phi / 2)

    return f1, beta, phi_star, rho


def test_quadratic_pdf_cdf_endpoints():
    d = OffsetDistribution.truncated_quadratic()
    assert d.pdf(0.0) == pytest.approx(0.8746)
    assert d.cdf(0.0) == 0.0
    assert d.pdf(1.0) == 0.0
    assert d.cdf(1.0) == pytest.approx(1.00000125, abs=1e-7)
    assert d.pdf(D + 1e-9) == 0.0


def test_clipped_uniform_interior():
    lam = 0.01
    d = OffsetDistribution.clipped_uniform(lam)
    theta = 0.37
    assert d.pdf(theta) == pytest.approx(1.0 / (1.0 - 2 * lam))
    assert d.cdf(theta) == pytest.approx((theta - lam) / (1.0 - 2 * lam))
    assert d.cdf(lam) == pytest.approx(0.0, abs=1e-15)
    assert d.cdf(1.0) == pytest.approx(1.0)


def test_cdf_nondecreasing():
    for d in (
        OffsetDistribution.uniform(),
        OffsetDistribution.truncated_quadratic(),
        OffsetDistribution.clipped_uniform(0.02),
    ):
        grid = np.linspace(0, 1, 2001)
        F = d.cdf(grid)
        assert (np.diff(F) >= -1e-12).all()


def test_uniform_sampling_ks():
    d = OffsetDistribution.uniform()
    rng = np.random.default_rng(11)
    x = np.sort(d.sample(rng, 1_000_000))
    ks = np.abs(x - np.arange(1, x.size + 1) / x.size).max()
    assert ks < 0.002


def test_quadratic_sampling_support():
    d = OffsetDistribution.truncated_quadratic()
    x = d.sample(np.random.default_rng(5), 200_000)
    assert x.max() <= 0.85897
    assert x.min() >= 0.0


def test_clipped_sampling_support():
    lam = 1.0 / 5100.0
    d = OffsetDistribution.clipped_uniform(lam)
    x = d.sample(np.random.default_rng(6), 200_000)
    assert x.min() > lam - 1e-9
    assert x.max() < 1.0 - lam + 1e-9


def test_sampling_deterministic_and_mean():
    d = OffsetDistribution.truncated_quadratic()
    a = d.sample(np.random.default_rng(42), 5000)
    b = d.sample(np.random.default_rng(42), 5000)
    assert np.array_equal(a, b)
    big = d.sample(np.random.default_rng(1), 400_000)
    target = d.stats().beta / d.raw_mass
    sem = big.std(ddof=1) / math.sqrt(big.size)
    assert abs(big.mean() - target) <= 3 * sem


def bisect_cdf(d, u, bits=53, chunk=1 << 16):
    """Reference inverse by bisection on the public raw CDF F: per target,
    the left end lo of the dyadic cell [lo, lo + 2**-bits] that holds
    sup{t : F(t) <= u}, so that F(lo) <= u < F(lo + 2**-bits).

    Bisection from [0, 1] evaluates F only at multiples of 2**-k in its
    first k steps, so those steps are read off F on that grid, with k about
    log2 of the number of targets; one search over the sorted targets
    brackets them all.  Each later step halves every cell: its midpoint is
    lo + 2**-level, exact in floating point for bits <= 53."""
    order = np.argsort(u)
    target_all = u[order]
    k = min(u.size.bit_length(), bits)
    grid = np.arange((1 << k) + 1) / (1 << k)
    cell = np.searchsorted(d.cdf(grid), target_all, side="right") - 1
    lo_all = grid[np.minimum(cell, (1 << k) - 1)]
    for first in range(0, u.size, chunk):
        target, lo = target_all[first : first + chunk], lo_all[first : first + chunk]
        for level in range(k + 1, bits + 1):
            mid = lo + 2.0**-level
            np.copyto(lo, mid, where=d.cdf(mid) <= target)
    out = np.empty_like(u)
    out[order] = lo_all
    return out


class FixedUniforms:
    """Stands in for a Generator: ``random`` returns the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        return self.values.reshape(size).copy()  # a fresh array, as Generator.random returns


RAMP = OffsetDistribution([0.0, 1.0], [[0.0, 2.0]], name="ramp")  # f(t) = 2t vanishes at 0
TENT = OffsetDistribution([0.0, 0.5, 1.0], [[0.0, 4.0], [4.0, -4.0]], name="tent")
GAP = OffsetDistribution([0.0, 0.25, 0.75, 1.0], [[2.0], [0.0], [2.0]], name="gap")


def test_sampler_matches_bisection_reference():
    # Same uniforms, same theta: the sampler inverts the CDF that bisection
    # inverted, also where the density vanishes at an end (RAMP).
    for dist in (
        OffsetDistribution.uniform(),
        OffsetDistribution.truncated_quadratic(),
        OffsetDistribution.clipped_uniform(1.0 / 5100.0),
        RAMP,
    ):
        got = dist.sample(np.random.default_rng(3), 1_000_000)
        u = np.random.default_rng(3).random(1_000_000) * dist.raw_mass
        # The inverse lies in [lo, lo + 2**-40]; every point of that cell is
        # within 1e-12 of the draw.
        lo = bisect_cdf(dist, u, bits=40)
        assert np.maximum(got - lo, lo + 2.0**-40 - got).max() <= 1e-12, dist.name


@pytest.mark.parametrize(
    "dist, r, expected",
    [
        (OffsetDistribution.uniform(), 0.0, 0.0),
        (OffsetDistribution.truncated_quadratic(), 0.0, 0.0),
        (OffsetDistribution.clipped_uniform(0.01), 0.0, 0.01),  # end of the leading flat stretch
        (RAMP, 0.0, 0.0),
        (TENT, 0.5, 0.5),  # the breakpoint between two polynomial pieces
        (GAP, 0.5, 0.75),  # sup of the flat stretch, not its left end
        (GAP, 0.25, 0.125),
    ],
)
def test_sampler_edges(dist, r, expected):
    got = dist.sample(FixedUniforms([r, r]), 2)
    assert got == pytest.approx([expected] * 2, abs=1e-12)
    assert got == pytest.approx(bisect_cdf(dist, np.array([r, r]) * dist.raw_mass), abs=1e-12)
    assert dist.sample(FixedUniforms([r]), None) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("spec", ["uniform", "quadratic", f"clipped:{1.0 / 5100.0!r}", "clipped:0.25"])
def test_one_piece_and_piece_search_give_the_same_bits(spec):
    # A law whose mass lies in one piece inverts it on the whole array; the
    # same law forced through the per-draw piece search gives the same bits.
    dist = from_spec(spec)
    forced = copy.copy(dist)
    forced._live = None
    assert dist._live is not None
    for seed in range(3):
        for size in (None, 7, (512, 8), (1638, 5)):
            got = dist.sample(np.random.default_rng(seed), size)
            want = forced.sample(np.random.default_rng(seed), size)
            if size is None:
                assert isinstance(got, float) and got.hex() == want.hex()
            else:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sampler_stays_in_support_at_top_of_range():
    # The largest uniforms a Generator can return: closed-form inversion
    # alone lands an ulp past 1 - lam, inside the trailing zero piece.
    top = np.nextafter(1.0, 0.0) - np.arange(64) * 2.0**-53
    lam = 1.0 / 5100.0
    clipped = OffsetDistribution.clipped_uniform(lam).sample(FixedUniforms(top), top.size)
    assert clipped.max() <= 1.0 - lam
    quadratic = OffsetDistribution.truncated_quadratic().sample(FixedUniforms(top), top.size)
    assert quadratic.max() <= D


def exact_cdf(poly, t):
    """The cubic ``poly`` (ascending float coefficients) at t, in rationals."""
    t = Fraction(t)
    return sum(Fraction(float(a)) * t**j for j, a in enumerate(poly))


def test_quadratic_law_inverts_in_closed_form():
    d = OffsetDistribution.truncated_quadratic()
    assert list(d._cubics) == [0] and not d._tables  # no table, no Newton steps


@pytest.mark.parametrize(
    "coeffs, closed",
    [
        ([0.0, 0.0, 3.0], False),  # F = t^3: p = 0, the density vanishes at 0
        ([3.0, -12.0, 12.0], False),  # F = 4 (t - 1/2)^3 + 1/2: p = 0 inside the piece
        ([0.0, 2.0], False),  # a linear density: F is quadratic
        ([1.5, -3.0, 3.0], True),  # F = t^3 - 1.5 t^2 + 1.5 t: p = 3/4
        ([1.5, -3.0, 3.0, 0.0], True),  # the same with a zero cubic term
    ],
)
def test_closed_form_needs_a_cubic_increasing_everywhere(coeffs, closed):
    d = OffsetDistribution([0.0, 1.0], [coeffs])
    assert (0 in d._cubics) == closed and (0 in d._tables) != closed
    r = np.linspace(0.0, 1.0, 1001)[:-1]
    theta = d.sample(FixedUniforms(r), r.size)
    assert np.abs(d.cdf(theta) - r * d.raw_mass).max() <= 1e-12


@pytest.mark.parametrize("r", [0.2, 0.35])
def test_closed_form_refuses_p_that_rounds_positive(r):
    # c (t - r)^2 of mass 1 vanishes at r, so the exact p is 0; in floats
    # these two come out about 1e-17 above it and must still keep Newton.
    c = 3.0 / ((1.0 - r) ** 3 + r**3)
    d = OffsetDistribution([0.0, 1.0], [[c * r * r, -2.0 * c * r, c]])
    a0, a1, a2, a3 = d._F[0]
    assert a1 / a3 - (a2 / a3) ** 2 / 3.0 > 0.0
    assert 0 not in d._cubics and 0 in d._tables
    u = np.linspace(0.0, 1.0, 1001)[:-1]
    theta = d.sample(FixedUniforms(u), u.size)
    assert np.abs(d.cdf(theta) - u * d.raw_mass).max() <= 1e-12


def test_cubic_draws_bracket_the_exact_root():
    # Each draw is within 2e-15 of the exact root of the piece's cubic:
    # F(theta - 2e-15) < u < F(theta + 2e-15) in exact rational arithmetic,
    # on 2,000 generator draws and at u = 0, 1e-300 and the top of the range.
    d = OffsetDistribution.truncated_quadratic()
    r = np.concatenate(
        [np.random.default_rng(24).random(2000), [0.0, 1e-300 / d.raw_mass, 1.0 - 2.0**-53]]
    )
    theta = d.sample(FixedUniforms(r), r.size)
    u = r * d.raw_mass
    assert u[-2] == pytest.approx(1e-300, rel=1e-15) and u[-1] == (1.0 - 2.0**-53) * d.raw_mass
    width = Fraction(2, 10**15)
    for t, target in zip(theta.tolist(), u.tolist()):
        assert exact_cdf(d._F[0], Fraction(t) - width) < Fraction(target) < exact_cdf(d._F[0], Fraction(t) + width)


def test_cubic_draws_are_monotone_in_u():
    d = OffsetDistribution.truncated_quadratic()
    rng = np.random.default_rng(7)
    # Sorted draws, and runs of consecutive doubles from a few starts.
    runs = [s + np.arange(2000) * np.spacing(s) for s in (1e-9, 0.25, 0.5, 1.0 - 2.0**-42)]
    r = np.sort(np.concatenate([rng.random(20_000), [0.0, 1.0 - 2.0**-53], *runs]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        theta = d.sample(FixedUniforms(r), r.size)
    assert not np.isnan(theta).any()
    assert (np.diff(theta) >= 0.0).all()
    assert theta[0] == 0.0 and theta[-1] <= D


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
def test_nearly_constant_quadratic_densities_invert_accurately(eps):
    # 1 + eps t^2, scaled to mass 1.  Cardano's formula loses about eps^-1/2
    # ulps to cancellation here (8e-12 at eps = 1e-9), so the pieces whose
    # error bound exceeds 1e-12 keep Newton's steps.
    d = OffsetDistribution([0.0, 1.0], [[1.0 / (1.0 + eps / 3.0), 0.0, eps / (1.0 + eps / 3.0)]])
    r = np.random.default_rng(5).random(4000)
    theta = d.sample(FixedUniforms(r), r.size)
    assert np.abs(d.cdf(theta) - r * d.raw_mass).max() <= 1e-12


def test_quadratic_stats_match_hand_formulas():
    f1, beta, phi_star, rho = closed_form_quadratic_constants()
    s = OffsetDistribution.truncated_quadratic().stats()
    assert s.raw_mass == pytest.approx(f1, abs=1e-12)
    assert s.beta == pytest.approx(beta, abs=1e-12)
    assert s.phi_star == pytest.approx(phi_star, abs=1e-9)
    assert s.rho == pytest.approx(rho(phi_star), abs=1e-9)
    assert s.alpha == pytest.approx(1.0 + max(s.rho, (1.0 + s.rho) * s.beta))
    assert s.attained


def test_quadratic_rho_formula_at_random_points():
    _, _, _, rho = closed_form_quadratic_constants()
    d = OffsetDistribution.truncated_quadratic()
    rng = np.random.default_rng(3)
    phis = rng.uniform(1e-6, D, size=100)
    assert np.allclose(d.rho_of(phis), rho(phis), atol=1e-12)


def test_quadratic_sup_restricted_to_support():
    # With f vanishing past D, no phi > D beats the sup over (0, D].
    d = OffsetDistribution.truncated_quadratic()
    inside = d.rho_of(np.linspace(1e-6, D, 50_000)).max()
    outside = d.rho_of(np.linspace(D, 1.0, 10_000)[1:]).max()
    assert outside <= inside + 1e-12


def test_uniform_stats():
    s = OffsetDistribution.uniform().stats()
    assert s.beta == pytest.approx(0.5, abs=1e-12)
    assert s.rho == 1.0
    assert not s.attained
    assert s.phi_star == 0.0
    assert abs(s.alpha - 2.0) < 1e-9
    # rho(phi) = 1 - (1 - 1/e) * phi / 2 in closed form
    d = OffsetDistribution.uniform()
    phis = np.linspace(0.01, 1.0, 25)
    assert np.allclose(d.rho_of(phis), 1.0 - E1 * phis / 2.0, atol=1e-12)


def test_clipped_alpha_tends_to_two():
    alphas = [
        OffsetDistribution.clipped_uniform(lam).stats().alpha
        for lam in (0.005, 0.0005, 0.0)
    ]
    assert alphas[0] < alphas[1] < alphas[2]
    assert alphas[2] == pytest.approx(2.0, abs=1e-9)
    assert alphas[1] > 2.0 - 0.02


def test_clipped_stats_pass_their_cross_check():
    # From lam = 0.21 on, rho peaks on the breakpoint 1 - lam, which the
    # cross-check's grid holds, so every clip fraction's closed form agrees
    # with it.
    for i in range(1, 50):
        lam = i / 100
        s = OffsetDistribution.clipped_uniform(lam).stats()
        assert s.attained
        if lam >= 0.21:
            assert s.phi_star == 1.0 - lam


def test_cross_check_catches_a_closed_form_without_breakpoints(monkeypatch):
    candidates = OffsetDistribution._rho_candidates

    def interior_only(self, k):
        lo, hi = self.breakpoints[k], self.breakpoints[k + 1]
        return [phi for phi in candidates(self, k) if lo < phi < hi]

    d = OffsetDistribution.clipped_uniform(0.25)
    monkeypatch.setattr(OffsetDistribution, "_rho_candidates", interior_only, raising=True)
    with pytest.raises(DistributionError, match="disagrees with grid"):
        d.stats()


def test_invalid_densities_rejected():
    with pytest.raises(DistributionError):
        OffsetDistribution([0.0, 1.0], [[-0.5, 1.0]])  # negative near 0
    with pytest.raises(DistributionError):
        OffsetDistribution([0.0, 1.0], [[2.0]])  # mass 2
    with pytest.raises(DistributionError):
        OffsetDistribution([0.0, 0.5], [[1.0]])  # must end at 1
    with pytest.raises(DistributionError):
        OffsetDistribution.clipped_uniform(0.5)


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ([[]], "non-empty flat list"),
        ([[[1.0]]], "non-empty flat list"),
        ([[float("nan")]], "finite"),
        ([[1.0, float("inf")]], "finite"),
        ([[-float("inf")]], "finite"),
        ([["one"]], "numbers"),
    ],
)
def test_malformed_coefficients_refused(coeffs, message):
    with pytest.raises(DistributionError, match=message):
        OffsetDistribution([0.0, 1.0], coeffs)


def test_malformed_pieces_refused():
    with pytest.raises(DistributionError, match="strictly increasing"):
        OffsetDistribution([0.0, float("nan"), 1.0], [[1.0], [1.0]])
    with pytest.raises(DistributionError, match="one coefficient list per piece"):
        OffsetDistribution([0.0, 1.0], 5.0)
    with pytest.raises(DistributionError, match="clip fraction"):
        from_spec("clipped:nan")


def test_theta_domain_checked():
    d = OffsetDistribution.uniform()
    with pytest.raises(DistributionError):
        d.pdf(1.5)
    with pytest.raises(DistributionError):
        d.rho_of(0.0)


def test_from_spec_custom_poly(tmp_path):
    path = tmp_path / "tent.json"
    path.write_text(
        '{"breakpoints": [0.0, 0.5, 1.0], "coeffs": [[0.0, 4.0], [4.0, -4.0]], "name": "tent"}'
    )
    d = from_spec(f"poly:{path}")
    assert d.pdf(0.5) == pytest.approx(2.0)
    assert d.raw_mass == pytest.approx(1.0, abs=1e-12)
    s = d.stats()  # closed-form vs grid cross-check runs internally
    assert 0 < s.rho <= 2.0 and 0 < s.beta < 1


def test_from_spec_names():
    assert from_spec("uniform").name == "uniform"
    assert from_spec("quadratic").name == "quadratic"
    assert from_spec("clipped:0.01").name.startswith("clipped")
    with pytest.raises(DistributionError):
        from_spec("triangular")
