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

Sampling inverts the raw CDF piece by piece: a draw's piece comes from the
cumulative mass at the breakpoints, pieces of constant density invert in
closed form, and polynomial pieces take safeguarded Newton steps from a
precomputed monotone table (the PINV idea of Derflinger, Hoermann and
Leydold, ACM TOMACS 2010).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if (np.diff(breaks) <= 0).any():
            raise DistributionError("breakpoints must be strictly increasing")
        if len(coeffs) != breaks.size - 1:
            raise DistributionError("need one coefficient list per piece")
        self.breakpoints = breaks
        self.coeffs = [np.atleast_1d(np.asarray(c, dtype=float)) for c in coeffs]
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
        A polynomial piece keeps theta at TABLE_POINTS equally spaced CDF
        levels, solved here from a start interpolated on equally spaced
        theta; draws find their bracket in it by arithmetic, not search.
        """
        self._cum = cum
        self._hi = self.breakpoints[1:]
        self._start = self.breakpoints[:-1].copy()
        self._slope = np.zeros(len(self.coeffs))
        self._tables = {}
        for k, c in enumerate(self.coeffs):
            lo, hi = self.breakpoints[k], self.breakpoints[k + 1]
            c = np.trim_zeros(c, "b")
            if cum[k + 1] <= cum[k]:
                self._start[k] = hi
            elif c.size == 1:
                self._slope[k] = 1.0 / c[0]
            else:
                t = np.linspace(lo, hi, TABLE_POINTS)
                F = np.maximum.accumulate(_polyval(self._F[k], t))
                levels = np.linspace(cum[k], cum[k + 1], TABLE_POINTS)
                lows, highs = np.full(TABLE_POINTS, lo), np.full(TABLE_POINTS, hi)
                theta = self._newton(k, levels, lows, highs, np.interp(levels, F, t))
                scale = (TABLE_POINTS - 1) / (cum[k + 1] - cum[k])
                self._tables[k] = (np.maximum.accumulate(theta), scale)

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
        if lam < 0 or lam >= 0.5:
            raise DistributionError("clip fraction must lie in [0, 0.5)")
        if lam == 0.0:
            return cls.uniform()
        h = 1.0 / (1.0 - 2.0 * lam)
        return cls([0.0, lam, 1.0 - lam, 1.0], [[0.0], [h], [0.0]], name=f"clipped:{lam:g}")

    # -- evaluation -------------------------------------------------------

    def _piece_index(self, theta: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.breakpoints, theta, side="right") - 1
        return np.clip(idx, 0, len(self.coeffs) - 1)

    def _eval_piecewise(self, polys, theta):
        theta = np.asarray(theta, dtype=float)
        if (theta < -1e-12).any() or (theta > 1.0 + 1e-12).any():
            raise DistributionError("theta out of [0, 1]")
        theta = np.clip(theta, 0.0, 1.0)
        idx = self._piece_index(theta)
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

    def pdf_cdf(self, theta):
        """(f(theta), F(theta)) with F the raw CDF."""
        return self.pdf(theta), self.cdf(theta)

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray | float:
        """Inverse-CDF draws using the normalized CDF F/F(1).

        Each draw is theta = sup{t : F(t) <= u} for u uniform on [0, F(1)),
        with F the raw CDF.  The draw's piece is the one whose cumulative
        mass range holds u, so pieces of zero mass are never chosen.
        Constant-density pieces invert in closed form; polynomial pieces
        take bracketed Newton steps, each draw until its step is below 1e-12.
        """
        scalar = size is None
        u = rng.random(1 if scalar else size) * self.raw_mass
        piece = np.searchsorted(self._cum, u, side="right") - 1
        np.clip(piece, 0, len(self.coeffs) - 1, out=piece)
        # Updates run in place: at rounding sizes each temporary is a fresh
        # allocation that is page-faulted in, which costs as much as the math.
        theta = u - self._cum[piece]
        theta *= self._slope[piece]
        theta += self._start[piece]
        np.minimum(theta, self._hi[piece], out=theta)
        for k, (table, scale) in self._tables.items():
            mask = piece == k
            u_k = u[mask]
            x = u_k - self._cum[k]
            x *= scale
            j = np.minimum(x.astype(np.intp), TABLE_POINTS - 2)
            x -= j
            lows, highs = table[j], table[j + 1]
            start = highs - lows
            start *= x
            start += lows
            np.clip(start, lows, highs, out=start)
            theta[mask] = self._newton(k, u_k, lows, highs, start)
        return float(theta[0]) if scalar else theta

    def _newton(self, k, u, lows, highs, t) -> np.ndarray:
        """Solve F(theta) = u on polynomial piece k from the start t inside
        the bracket [lows, highs], which holds the root.  Each step narrows
        the bracket; a Newton step that leaves it, or meets a vanishing
        density away from the root, is replaced by the bracket's midpoint.
        A draw stops once its own step is below 1e-12, and only the draws
        still moving take further steps.  ``lows`` and ``highs`` are
        overwritten, like the temporaries of ``sample``."""
        F_k, f_k = self._F[k], self.coeffs[k]
        out, active = None, None  # the result and the draws still moving, once some stop
        for _ in range(NEWTON_CAP):
            resid = _polyval(F_k, t)
            resid -= u
            dens = _polyval(f_k, t)
            below = resid <= 0.0
            np.copyto(lows, t, where=below)
            np.copyto(highs, t, where=~below)
            bad = (dens <= 0.0) & (resid != 0.0)
            np.divide(resid, dens, out=resid, where=dens > 0.0)
            step, nxt = resid, dens
            np.subtract(t, step, out=nxt)
            bad |= nxt < lows
            bad |= nxt > highs
            if bad.any():
                nxt[bad] = 0.5 * (lows[bad] + highs[bad])
            np.subtract(nxt, t, out=step)
            t = nxt
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
        contributes f(0).  A 1e5-point grid cross-checks the result.
        """
        beta = 0.0
        for k, c in enumerate(self.coeffs):
            tc = np.concatenate(([0.0], c))  # f(t) * t
            P = _polyint(tc)
            beta += _polyval(P, self.breakpoints[k + 1]) - _polyval(P, self.breakpoints[k])

        best_phi, best_rho = 0.0, -np.inf
        for k in range(len(self.coeffs)):
            lo, hi = self.breakpoints[k], self.breakpoints[k + 1]
            L = len(self._K[k])
            G = _pad_to(self._F[k], L) - ONE_MINUS_INV_E * self._K[k]
            # H(phi) = G'(phi) * phi - G(phi) has coefficients (j - 1) * G_j.
            H = G * (np.arange(L) - 1.0)
            cands = [hi] if lo <= 0 else [lo, hi]
            # Interior stationary points only; the phi -> 0 limit is handled
            # separately, so a root at a piece's lower edge is not a candidate.
            cands.extend(_real_roots_in(H, lo, hi))
            for phi in cands:
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
            [np.geomspace(1e-12, 1e-3, 2001), np.linspace(1e-3, 1.0, 100_000)]
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
        import json

        doc = json.loads(open(text.split(":", 1)[1], encoding="utf-8").read())
        return OffsetDistribution(doc["breakpoints"], doc["coeffs"], name=doc.get("name", "poly"))
    raise DistributionError(f"unknown distribution {text!r}")


# -- small polynomial helpers (ascending coefficients) -------------------


def _polyval(coeffs: np.ndarray, x):
    """Polynomial value by Horner's rule, updating one array in place."""
    out = np.full(np.shape(x), coeffs[-1])
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
