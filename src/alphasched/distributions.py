"""Offset distributions on [0, 1] and their approximation constants.

A distribution is a piecewise-polynomial density f on [0, 1].  Rounding
draws an offset theta from it; the quality of the resulting schedule is
governed by three derived constants:

    beta  = integral of f(t) * t over [0, 1]
    rho   = sup over phi in (0, 1] of (F(phi) - (1 - 1/e) * int_0^phi F) / phi
    alpha = 1 + max(rho, (1 + rho) * beta)

``alpha`` is the approximation factor certified for non-preemptive rounding
with that distribution.  The built-in truncated quadratic density gives
alpha < 1.8786; the uniform density gives exactly 2 (its rho is a supremum
reached only in the limit phi -> 0, reported with ``attained=False``).

The truncated quadratic density has raw mass F(1) slightly above 1
(about 1.00000125).  Constants are computed from the raw, unnormalized
density; sampling divides by F(1) so draws are honest probabilities.

Sampling inverts the raw CDF piece by piece.  Pieces of constant density
invert in closed form.  A quadratic-density piece whose cubic CDF increases
on the whole real line, by a margin that rounding cannot produce, inverts
by Cardano's formula for its one real root when a bound on the formula's
cancellation is at most NEWTON_TOL; the truncated quadratic law's piece
does.  Other polynomial pieces take safeguarded Newton steps from a
precomputed monotone table (the PINV idea of Derflinger, Hoermann and
Leydold, ACM TOMACS 2010).  When one piece holds all the mass, as in the
three built-in laws, every draw is inverted on it at once; otherwise a
draw's piece is searched in the cumulative mass at the breakpoints.  The
closed forms update the generator's array in place, the cubic one with one
more array of its size; the Newton steps peak at about 6.5 arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ONE_MINUS_INV_E = 1.0 - 1.0 / math.e

MASS_TOL = 1e-4
GRID_AGREE_TOL = 1e-7
# Inverse-CDF sampling on polynomial pieces: points of each piece's start
# table, the Newton step below which a draw counts as converged, and a cap
# on the steps (a root where the density vanishes converges only linearly).
TABLE_POINTS = 257
NEWTON_TOL = 1e-12
NEWTON_CAP = 100


class DistributionError(ValueError):
    """Density is negative, non-normalizable, or structurally malformed."""


@dataclass(frozen=True)
class DistributionStats:
    beta: float
    rho: float
    alpha: float
    phi_star: float
    rho_at_phi_star: float
    attained: bool
    raw_mass: float


class OffsetDistribution:
    """Piecewise-polynomial PDF on [0, 1].

    ``breakpoints`` is ascending with first entry 0 and last entry 1;
    ``coeffs[k]`` holds ascending-power polynomial coefficients of f on
    [breakpoints[k], breakpoints[k+1]), in the absolute theta coordinate.
    """

    def __init__(self, breakpoints, coeffs, name: str = "custom"):
        breaks = np.asarray(breakpoints, dtype=float)
        if breaks.ndim != 1 or breaks.size < 2:
            raise DistributionError("need at least two breakpoints")
        if abs(breaks[0]) > 1e-15 or abs(breaks[-1] - 1.0) > 1e-15:
            raise DistributionError("breakpoints must start at 0 and end at 1")
        if not (np.diff(breaks) > 0).all():  # a NaN breakpoint fails this too
            raise DistributionError("breakpoints must be strictly increasing")
        if not hasattr(coeffs, "__len__") or len(coeffs) != breaks.size - 1:
            raise DistributionError("need one coefficient list per piece")
        self.breakpoints = breaks
        self.coeffs = []
        for k, c in enumerate(coeffs):
            try:
                c = np.atleast_1d(np.asarray(c, dtype=float))
            except (TypeError, ValueError):
                raise DistributionError(f"piece {k}: coefficients must be numbers") from None
            if c.ndim != 1 or c.size == 0:
                raise DistributionError(f"piece {k}: need a non-empty flat list of coefficients")
            if not np.isfinite(c).all():
                raise DistributionError(f"piece {k}: coefficients must be finite")
            self.coeffs.append(c)
        self.name = name

        # Piecewise antiderivatives: F (CDF, F(0)=0) and K = int_0^phi F.
        self._F = []
        self._K = []
        acc_F = 0.0
        acc_K = 0.0
        cum = [0.0]
        for k, c in enumerate(self.coeffs):
            lo = self.breakpoints[k]
            Fp = _polyint(c)
            Fp[0] += acc_F - _polyval(Fp, lo)
            self._F.append(Fp)
            Kp = _polyint(Fp)
            Kp[0] += acc_K - _polyval(Kp, lo)
            self._K.append(Kp)
            hi = self.breakpoints[k + 1]
            acc_F = _polyval(Fp, hi)
            acc_K = _polyval(Kp, hi)
            cum.append(float(acc_F))
        self.raw_mass = float(acc_F)

        grid = np.linspace(0.0, 1.0, 4097)
        if float(self.pdf(grid).min()) < -1e-9:
            raise DistributionError("density is negative on [0, 1]")
        if abs(self.raw_mass - 1.0) > MASS_TOL:
            raise DistributionError(f"raw mass {self.raw_mass:.8f} not within {MASS_TOL} of 1")
        self._build_inverse(np.maximum.accumulate(cum))

    def _build_inverse(self, cum: np.ndarray) -> None:
        """Tables for ``sample``: the raw mass below each breakpoint and,
        per piece, how theta is recovered from a raw CDF value u.

        A draw with u in piece k starts from theta = start + (u - cum) * slope.
        For a constant density h that is the exact inverse (start at the
        piece's left end, slope 1/h); a piece of zero mass is only reached
        at u >= F(1), where sup{t : F(t) <= u} is its right end (slope 0).
        A quadratic-density piece that passes ``_cubic_constants`` keeps
        the constants of Cardano's formula in ``_cubics`` and builds no
        table.  Any other polynomial piece keeps theta at TABLE_POINTS
        equally spaced CDF levels, solved here from a start interpolated on
        equally spaced theta; draws find their Newton bracket in it by
        arithmetic, not search.  ``_live`` is the one piece of positive
        mass, or None when there are several: every u in [0, F(1)) falls in
        that piece.
        """
        self._cum = cum
        self._hi = self.breakpoints[1:]
        self._start = self.breakpoints[:-1].copy()
        self._slope = np.zeros(len(self.coeffs))
        self._cubics = {}
        self._tables = {}
        for k, c in enumerate(self.coeffs):
            lo, hi = self.breakpoints[k], self.breakpoints[k + 1]
            c = np.trim_zeros(c, "b")
            if cum[k + 1] <= cum[k]:
                self._start[k] = hi
            elif c.size == 1:
                self._slope[k] = 1.0 / c[0]
            elif c.size == 3 and (cubic := self._cubic_constants(k)) is not None:
                self._cubics[k] = cubic
            else:
                t = np.linspace(lo, hi, TABLE_POINTS)
                F = np.maximum.accumulate(_polyval(self._F[k], t))
                levels = np.linspace(cum[k], cum[k + 1], TABLE_POINTS)
                lows, highs = np.full(TABLE_POINTS, lo), np.full(TABLE_POINTS, hi)
                theta = self._newton(k, levels, lows, highs, np.interp(levels, F, t))
                scale = (TABLE_POINTS - 1) / (cum[k + 1] - cum[k])
                self._tables[k] = (np.maximum.accumulate(theta), scale)
        live = np.flatnonzero(cum[1:] > cum[:-1])
        self._live = int(live[0]) if live.size == 1 else None

    def _cubic_constants(self, k):
        """Cardano's formula for piece k, whose raw CDF is the cubic
        a3 t^3 + a2 t^2 + a1 t + a0, or None where it is not used.

        With b = a2/a3 and c = a1/a3, t = x - b/3 turns F(t) = u into
        x^3 + p x + q = 0, p = c - b^2/3, q = 2b^3/27 - bc/3 + (a0 - u)/a3.
        For a3 > 0 and p > 0 the cubic increases on the whole line, and its
        one real root is x = A - p/(3A) with
        A = -cbrt(q/2 + copysign(sqrt(q^2/4 + p^3/27), q)).  The formula
        cancels in A - p/(3A) and in x - b/3, so it is used only where eps
        times the sizes that cancel is at most NEWTON_TOL: |A| at its
        largest over the piece (at an end), sqrt(p/3), which bounds
        |p/(3A)|, and |b|/3.  p itself must exceed the rounding error of
        c - b^2/3: where the density vanishes inside the piece, p is 0 and
        rounds to a residue of either sign.  The constants returned are
        those of ``_invert_cubic``: q/2 = u * scale + shift, p^3/27, p/3
        and b/3.
        """
        a0, a1, a2, a3 = self._F[k][:4]  # entries past the cubic are zero
        eps = np.finfo(float).eps
        with np.errstate(all="ignore"):  # extreme coefficients fail the tests below as inf or nan
            b, c = a2 / a3, a1 / a3
            p = c - b * b / 3.0
            cube = p**3 / 27.0  # > 0 also keeps A away from 0
            if not (a3 > 0.0 and p > 4.0 * eps * (abs(c) + b * b / 3.0) and cube > 0.0):
                return None
            q0 = 2.0 * b**3 / 27.0 - b * c / 3.0
            q = q0 + (a0 - self._cum[k : k + 2]) / a3
            A = np.cbrt(np.abs(q) / 2.0 + np.sqrt(q * q / 4.0 + cube)).max()
            if not eps * (A + math.sqrt(p / 3.0) + abs(b) / 3.0) <= NEWTON_TOL:
                return None
        return -0.5 / a3, (q0 + a0 / a3) / 2.0, cube, p / 3.0, b / 3.0

    # -- constructors ----------------------------------------------------

    @classmethod
    def uniform(cls) -> "OffsetDistribution":
        return cls([0.0, 1.0], [[1.0]], name="uniform")

    @classmethod
    def truncated_quadratic(
        cls, a: float = 0.1702, b: float = 0.5768, c: float = 0.8746, d: float = 0.85897
    ) -> "OffsetDistribution":
        """Quadratic density a*t^2 + b*t + c on [0, d], zero on (d, 1]."""
        return cls([0.0, d, 1.0], [[c, b, a], [0.0]], name="quadratic")

    @classmethod
    def clipped_uniform(cls, lam: float) -> "OffsetDistribution":
        """Uniform density with mass lam clipped off both ends."""
        if not 0.0 <= lam < 0.5:  # NaN fails this too
            raise DistributionError("clip fraction must lie in [0, 0.5)")
        if lam == 0.0:
            return cls.uniform()
        if 1.0 - lam == 1.0:
            # The top clip rounds away (lam below about 1.1e-16): the law is
            # the uniform one to double precision, whose rho and alpha it
            # has up to O(sqrt(lam)).
            return cls([0.0, 1.0], [[1.0]], name=f"clipped:{lam:g}")
        h = 1.0 / (1.0 - 2.0 * lam)
        return cls([0.0, lam, 1.0 - lam, 1.0], [[0.0], [h], [0.0]], name=f"clipped:{lam:g}")

    # -- evaluation -------------------------------------------------------

    def _eval_piecewise(self, polys, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.size and (theta.min() < -1e-12 or theta.max() > 1.0 + 1e-12):
            raise DistributionError("theta out of [0, 1]")
        theta = np.clip(theta, 0.0, 1.0)
        # Piece k holds theta in [breakpoints[k], breakpoints[k + 1]), the
        # last piece also theta = 1.
        idx = np.searchsorted(self.breakpoints[1:-1], theta, side="right")
        out = np.empty_like(theta)
        for k, poly in enumerate(polys):
            mask = idx == k
            if mask.any():
                out[mask] = _polyval(poly, theta[mask])
        return out

    def pdf(self, theta):
        return self._eval_piecewise(self.coeffs, theta)

    def cdf(self, theta):
        """Raw (unnormalized) CDF; cdf(1) equals ``raw_mass``."""
        return np.minimum(self._eval_piecewise(self._F, theta), self.raw_mass)

    def cdf_int(self, phi):
        """Integral of the raw CDF from 0 to phi."""
        return self._eval_piecewise(self._K, phi)

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray | float:
        """Inverse-CDF draws using the normalized CDF F/F(1).

        Each draw is theta = sup{t : F(t) <= u} for u uniform on [0, F(1)),
        with F the raw CDF.  When one piece holds all the mass (uniform,
        quadratic, clipped) every draw is in it, and it is inverted on the
        whole array with no piece search.  Otherwise a draw's piece is the
        one whose cumulative mass range holds u, so pieces of zero mass are
        never chosen.  Constant-density pieces invert in closed form, and so
        do the quadratic-density pieces that ``_cubic_constants`` admits (the
        truncated quadratic law's), by one cube root per draw.  Other
        polynomial pieces take bracketed Newton steps, each draw until its
        step is below 1e-12.  ``_invert`` holds that rule per piece, and
        both paths apply it, so they give the same bits.
        """
        scalar = size is None
        u = rng.random(1 if scalar else size)
        # Updates run in place: at rounding sizes each temporary is a fresh
        # allocation that is page-faulted in, which costs as much as the math.
        u *= self.raw_mass
        theta = self._sample_pieces(u) if self._live is None else self._invert(self._live, u)
        return float(theta[0]) if scalar else theta

    def _sample_pieces(self, u: np.ndarray) -> np.ndarray:
        """``sample``'s inversion when several pieces have mass: each draw's
        piece is searched, every draw takes its piece's constant-density
        step at once, and the draws of each other piece are inverted again
        by ``_invert``."""
        piece = np.searchsorted(self._cum, u, side="right") - 1
        np.clip(piece, 0, len(self.coeffs) - 1, out=piece)
        theta = u - self._cum[piece]
        theta *= self._slope[piece]
        theta += self._start[piece]
        np.minimum(theta, self._hi[piece], out=theta)
        for k in (*self._cubics, *self._tables):
            mask = piece == k
            theta[mask] = self._invert(k, u[mask])
        return theta

    def _invert(self, k, u):
        """theta for the draws ``u`` of piece k, by the piece's rule: Cardano's
        formula, Newton's iteration from its table, or the constant
        density's closed form.  ``u`` may be overwritten."""
        if k in self._cubics:
            return self._invert_cubic(k, u)
        if k in self._tables:
            flat = u.reshape(-1)
            return self._newton(k, flat, *self._table_start(k, flat)).reshape(u.shape)
        theta = u
        theta -= self._cum[k]
        theta *= self._slope[k]
        theta += self._start[k]
        return np.minimum(theta, self._hi[k], out=theta)

    def _invert_cubic(self, k, u):
        """theta = A - p/(3A) - b/3 for the draws ``u`` of piece k (see
        ``_cubic_constants``), clipped into the piece.  ``u`` is overwritten
        with q/2 and then with -A; the result is the one other array."""
        scale, shift, cube, p3, b3 = self._cubics[k]
        half_q = u
        half_q *= scale
        half_q += shift
        theta = np.multiply(half_q, half_q)
        theta += cube
        np.sqrt(theta, out=theta)
        np.copysign(theta, half_q, out=theta)
        half_q += theta
        minus_a = np.cbrt(half_q, out=half_q)
        np.divide(p3, minus_a, out=theta)
        theta -= minus_a
        theta -= b3
        return np.clip(theta, self.breakpoints[k], self._hi[k], out=theta)

    def _table_start(self, k, u):
        """Bracket and start of Newton's iteration (``_newton``) for the flat
        draws ``u`` of polynomial piece k, from the piece's table: the
        bracket is u's cell of the table, the start its linear interpolant.
        """
        table, scale = self._tables[k]
        x = u - self._cum[k]
        x *= scale
        j = x.astype(np.intp)
        np.minimum(j, TABLE_POINTS - 2, out=j)
        x -= j
        lows = table[j]
        j += 1
        highs = table[j]
        start = highs - lows
        start *= x
        start += lows
        np.clip(start, lows, highs, out=start)
        return lows, highs, start

    def _newton(self, k, u, lows, highs, t) -> np.ndarray:
        """Solve F(theta) = u on polynomial piece k from the start t inside
        the bracket [lows, highs], which holds the root.  Each step narrows
        the bracket; a Newton step that leaves it, or meets a vanishing
        density away from the root, is replaced by the bracket's midpoint.
        A draw stops once its own step is below 1e-12, and only the draws
        still moving take further steps.  ``lows``, ``highs`` and ``t`` are
        overwritten; the residual, density and mask buffers are allocated
        once and reused by every step."""
        F_k, f_k = self._F[k], self.coeffs[k]
        out, active = None, None  # the result and the draws still moving, once some stop
        # The step is computed in resid and the next iterate in dens; the
        # previous iterate's array is the next step's density buffer.
        resid, dens = np.empty_like(t), np.empty_like(t)
        below, bad, cond = (np.empty(t.shape, bool) for _ in range(3))
        for _ in range(NEWTON_CAP):
            _polyval(F_k, t, out=resid)
            resid -= u
            _polyval(f_k, t, out=dens)
            np.less_equal(resid, 0.0, out=below)
            np.copyto(lows, t, where=below)
            np.logical_not(below, out=below)
            np.copyto(highs, t, where=below)
            np.less_equal(dens, 0.0, out=bad)
            np.not_equal(resid, 0.0, out=cond)
            bad &= cond
            np.greater(dens, 0.0, out=cond)
            np.divide(resid, dens, out=resid, where=cond)
            step, nxt = resid, dens
            np.subtract(t, step, out=nxt)
            np.less(nxt, lows, out=cond)
            bad |= cond
            np.greater(nxt, highs, out=cond)
            bad |= cond
            if bad.any():
                nxt[bad] = 0.5 * (lows[bad] + highs[bad])
            np.subtract(nxt, t, out=step)
            t, dens = nxt, t
            np.abs(step, out=step)
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
                m = t.size
                resid, dens, below, bad, cond = resid[:m], dens[:m], below[:m], bad[:m], cond[:m]
        if out is None:
            return t
        out[active] = t
        return out

    # -- approximation constants -------------------------------------------

    def rho_of(self, phi):
        """rho(phi) = (F(phi) - (1 - 1/e) * int_0^phi F) / phi, raw CDF."""
        phi = np.asarray(phi, dtype=float)
        if (phi <= 0).any():
            raise DistributionError("rho(phi) needs phi > 0")
        return (self.cdf(phi) - ONE_MINUS_INV_E * self.cdf_int(phi)) / phi

    def stats(self) -> DistributionStats:
        """Closed-form beta / rho / alpha from the raw density.

        rho is a supremum: per polynomial piece the maximizer is either a
        piece endpoint or a real root of d(rho)/d(phi); the limit phi -> 0+
        contributes f(0).  A 1e5-point grid cross-checks the result; it
        holds the breakpoints too, since the maximizer is often one (the
        clipped laws' is 1 - lam).
        """
        beta = 0.0
        for k, c in enumerate(self.coeffs):
            tc = np.concatenate(([0.0], c))  # f(t) * t
            P = _polyint(tc)
            beta += _polyval(P, self.breakpoints[k + 1]) - _polyval(P, self.breakpoints[k])

        best_phi, best_rho = 0.0, -np.inf
        for k in range(len(self.coeffs)):
            for phi in self._rho_candidates(k):
                if phi <= 0:
                    continue
                val = float(self.rho_of(phi))
                if val > best_rho:
                    best_phi, best_rho = float(phi), val

        limit_rho = float(self.pdf(np.array([0.0]))[0])
        attained = limit_rho <= best_rho + 1e-12
        rho = best_rho if attained else limit_rho
        phi_star = best_phi if attained else 0.0

        grid = np.concatenate(
            [np.geomspace(1e-12, 1e-3, 2001), np.linspace(1e-3, 1.0, 100_000), self.breakpoints[1:]]
        )
        grid_rho = float(self.rho_of(grid).max())
        if abs(grid_rho - rho) > GRID_AGREE_TOL:
            raise DistributionError(
                f"closed-form rho {rho:.10f} disagrees with grid {grid_rho:.10f}"
            )

        alpha = 1.0 + max(rho, (1.0 + rho) * beta)
        return DistributionStats(
            beta=float(beta),
            rho=float(rho),
            alpha=float(alpha),
            phi_star=phi_star,
            rho_at_phi_star=float(best_rho),
            attained=bool(attained),
            raw_mass=self.raw_mass,
        )

    def _rho_candidates(self, k) -> list[float]:
        """Where rho may peak on piece k: its ends (not phi = 0) and the
        real roots of d(rho)/d(phi) inside it."""
        lo, hi = self.breakpoints[k], self.breakpoints[k + 1]
        L = len(self._K[k])
        G = _pad_to(self._F[k], L) - ONE_MINUS_INV_E * self._K[k]
        # H(phi) = G'(phi) * phi - G(phi) has coefficients (j - 1) * G_j.
        H = G * (np.arange(L) - 1.0)
        cands = [hi] if lo <= 0 else [lo, hi]
        # Interior stationary points only; the phi -> 0 limit is handled
        # separately, so a root at a piece's lower edge is not a candidate.
        cands.extend(_real_roots_in(H, lo, hi))
        return cands

    def __repr__(self):
        return f"OffsetDistribution({self.name})"


def from_spec(text: str) -> OffsetDistribution:
    """Parse a distribution name: uniform | quadratic | clipped:<lam> | poly:<file>."""
    if text == "uniform":
        return OffsetDistribution.uniform()
    if text == "quadratic":
        return OffsetDistribution.truncated_quadratic()
    if text.startswith("clipped:"):
        return OffsetDistribution.clipped_uniform(float(text.split(":", 1)[1]))
    if text.startswith("poly:"):
        path = text.split(":", 1)[1]
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or "breakpoints" not in doc or "coeffs" not in doc:
            raise DistributionError(f"{path}: a poly file is a JSON object with 'breakpoints' and 'coeffs'")
        return OffsetDistribution(doc["breakpoints"], doc["coeffs"], name=doc.get("name", "poly"))
    raise DistributionError(f"unknown distribution {text!r}")


# -- small polynomial helpers (ascending coefficients) -------------------


def _polyval(coeffs: np.ndarray, x, out=None):
    """Polynomial value by Horner's rule, updating one array in place (``out``
    when given, of x's shape)."""
    if out is None:
        out = np.full(np.shape(x), coeffs[-1])
    else:
        out.fill(coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _polyint(coeffs: np.ndarray) -> np.ndarray:
    out = np.zeros(len(coeffs) + 1)
    out[1:] = coeffs / np.arange(1, len(coeffs) + 1)
    return out


def _pad_to(coeffs: np.ndarray, length: int) -> np.ndarray:
    if len(coeffs) >= length:
        return coeffs[:length]
    return np.concatenate((coeffs, np.zeros(length - len(coeffs))))


def _real_roots_in(coeffs: np.ndarray, lo: float, hi: float) -> list[float]:
    """Real roots strictly above lo and at most hi (clamped from above)."""
    c = np.trim_zeros(coeffs, "b")
    if len(c) <= 1:
        return []
    roots = np.roots(c[::-1])
    out = []
    for r in roots:
        if abs(r.imag) < 1e-9 and lo + 1e-9 < r.real <= hi + 1e-12:
            out.append(float(min(r.real, hi)))
    return sorted(out)
