"""Mittag-Leffler function E_a(-x) on the negative real axis, 0 < a <= 1.

Three regimes:
  * power series for small x, with compensated summation;
  * a spectral (completely monotone) integral representation evaluated by
    tanh-sinh quadrature for intermediate x;
  * the divergent asymptotic expansion, optimally truncated, for large x.

The plain series loses all accuracy in double precision once x^(1/a)
grows past ~10 (alternating terms reach exp(x^(1/a))), so the series
cutoff shrinks with a; the integral representation covers the gap at
machine precision. For a = 1 the function is exp(-x) exactly.

Gamma comes from libm (math.gamma) through two thin wrappers that fix
the behaviour at poles and on overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# series regime is safe while x^(1/a) <= _SERIES_T_MAX (cancellation budget)
_SERIES_T_MAX = 10.0
_SERIES_P_CAP = 700


def gamma(x: float) -> float:
    """Gamma(x) for real x (math.gamma); ValueError when not finite or at a pole."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"gamma argument must be finite, got {x!r}")
    if x <= 0.0 and x == round(x):
        raise ValueError(f"gamma pole at nonpositive integer {x!r}")
    return math.gamma(x)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x); zero at the poles and past the double-precision overflow."""
    if (x <= 0.0 and x == round(x)) or x > 171.62:
        return 0.0
    return 1.0 / math.gamma(x)


def _tanh_sinh_unit(level: int, tmax: float = 4.0):
    """tanh-sinh nodes/weights on (0, 1)."""
    h = tmax / (8 * 2 ** level)
    t = np.arange(-8 * 2 ** level, 8 * 2 ** level + 1) * h
    g = 0.5 * np.pi * np.sinh(t)
    xi = 0.5 * (1.0 + np.tanh(g))
    w = h * 0.25 * np.pi * np.cosh(t) / np.cosh(g) ** 2
    keep = (xi > 0.0) & (xi < 1.0) & (w > 1e-320)
    return xi[keep], w[keep]

_TS_XI, _TS_W = _tanh_sinh_unit(5)
_QUAD_CUTOFF = 50.0  # decay budget: integrand truncated where exp(-cutoff)


@dataclass(frozen=True)
class MlfEvaluator:
    """Evaluator for E_alpha(-x), x >= 0.

    x_lo / x_hi are the regime switch points. Left at None, x_lo defaults
    to min(5, series-safe bound for this alpha) and x_hi to 50; explicit
    values are honored verbatim (diagnostics may perturb them on purpose).
    """

    alpha: float
    x_lo: float | None = None
    x_hi: float | None = None
    series_cut: float = field(init=False)
    asym_cut: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        cut = self.x_lo if self.x_lo is not None else min(
            5.0, _SERIES_T_MAX ** self.alpha)
        object.__setattr__(self, "series_cut", float(cut))
        object.__setattr__(self, "asym_cut",
                           float(self.x_hi) if self.x_hi is not None else 50.0)

    # branch evaluators are exposed for regime-continuity checks

    def series_value(self, x) -> np.ndarray:
        """Power series sum_p (-x)^p / Gamma(alpha p + 1), compensated.

        Each point terminates by its own criterion, so results do not
        depend on what else is in the batch.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        s = np.ones_like(x)
        comp = np.zeros_like(x)
        power = np.ones_like(x)
        t_own = x ** (1.0 / self.alpha)
        active = np.ones_like(x, dtype=bool)
        # overflow only happens when the cutoffs are deliberately perturbed
        # past the safe region; let it surface as nan rather than warn
        with np.errstate(over="ignore", invalid="ignore"):
            for p in range(1, _SERIES_P_CAP + 1):
                power = power * (-x)
                term = power * reciprocal_gamma(self.alpha * p + 1.0)
                t = np.where(active, s + term, s)
                comp += np.where(active,
                                 np.where(np.abs(s) >= np.abs(term),
                                          (s - t) + term, (term - t) + s),
                                 0.0)
                s = t
                active &= ~((self.alpha * p > t_own)
                            & (np.abs(term) <= 1e-18 * np.abs(s)))
                if not active.any():
                    break
        return s + comp

    def quadrature_value(self, x) -> np.ndarray:
        """Spectral integral evaluated by tanh-sinh quadrature.

        E_a(-x) = sin(a pi)/(a pi) * U * int_0^1 exp(-C xi^(1/a))
                  / ((U xi)^2 + 2 U xi cos(a pi) + 1) dxi,   U = C^a / x,
        split at the spectral peak (xi = -cos(a pi)/U) when it falls inside.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.size > 8192:  # bound the (points x nodes) work matrix
            out = np.empty_like(x)
            for lo in range(0, x.size, 8192):
                out[lo:lo + 8192] = self.quadrature_value(x[lo:lo + 8192])
            return out
        a = self.alpha
        th = a * np.pi
        cth = np.cos(th)
        U = _QUAD_CUTOFF ** a / x

        def segment(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
            xi = lo[:, None] + (hi - lo)[:, None] * _TS_XI[None, :]
            rho = U[:, None] * xi
            f = np.exp(-_QUAD_CUTOFF * xi ** (1.0 / a)) / (
                rho * rho + 2.0 * cth * rho + 1.0)
            # pairwise row sum: result is independent of the batch shape
            return (hi - lo) * (f * _TS_W).sum(axis=1)

        zeros = np.zeros_like(x)
        ones = np.ones_like(x)
        if cth < 0.0:
            split = np.clip(-cth / U, 0.0, 1.0)
            total = segment(zeros, split) + segment(split, ones)
        else:
            total = segment(zeros, ones)
        return np.sin(th) / (a * np.pi) * U * total

    def asymptotic_value(self, x) -> np.ndarray:
        """Asymptotic series sum_k (-1)^(k+1) x^-k / Gamma(1 - a k), optimally truncated.

        A point also stops once a nonzero term is at most a quarter ulp of
        its sum. That leaves the sum unchanged: every later term either
        exceeds that one (the truncation drops it) or is no larger, and
        adding it rounds back to the same sum.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        s = np.zeros_like(x)
        smallest = np.full_like(x, np.inf)
        active = np.ones_like(x, dtype=bool)
        xinv = 1.0 / x
        power = np.ones_like(x)
        for k in range(1, 41):
            power = power * xinv
            rg = reciprocal_gamma(1.0 - self.alpha * k)
            term = (1.0 if k % 2 else -1.0) * power * rg
            mag = np.abs(term)
            growing = mag > smallest
            active &= ~growing
            np.add(s, term, out=s, where=active)
            nonzero = mag > 0.0
            active &= ~(nonzero & (mag <= 0.25 * np.spacing(np.abs(s))))
            np.minimum(smallest, mag, out=smallest, where=nonzero)
            if not active.any():
                break
        return s

    def __call__(self, x):
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(np.isfinite(xv)) or np.any(xv < 0.0):
            raise ValueError("mlf argument must be finite and >= 0 "
                             "(positive arguments of E_alpha are not supported)")
        out = np.empty_like(xv)
        if self.alpha == 1.0:
            out[:] = np.exp(-xv)
        else:
            ser = xv <= self.series_cut
            asym = xv >= self.asym_cut
            mid = ~ser & ~asym
            if ser.any():
                out[ser] = self.series_value(xv[ser])
            if mid.any():
                out[mid] = self.quadrature_value(xv[mid])
            if asym.any():
                out[asym] = self.asymptotic_value(xv[asym])
        return float(out[0]) if scalar else out
