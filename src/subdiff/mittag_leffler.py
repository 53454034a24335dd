"""Mittag-Leffler function E_a(-x) on the negative real axis, 0 < a <= 1.

E_a(-x t^a) is the inverse Laplace transform of s^(a-1) / (s^a + x), so at
t = 1 it is a Bromwich integral. On the parabola s(u) = mu (1 + i u)^2 that
integral is (mu / pi) int Re[(1 + i u) e^s s^(a-1) / (s^a + x)] du, and the
trapezoid rule with step h = 3/16 over |u| <= 3 (17 nodes, by symmetry)
converges like exp(-2 pi 16 / 3) for mu = 16 pi / 12 (Weideman & Trefethen,
Math. Comp. 76 (2007) 1341-1356; Garrappa, SIAM J. Numer. Anal. 53 (2015)
1350-1369). The principal branch of s^a never meets -x for a < 1, so one rule
serves every x >= 0. For a = 1 the function is exp(-x) exactly, and
E_a(0) = 1 exactly.

Gamma comes from libm (math.gamma) through a thin wrapper that fixes the
behaviour at poles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

_H = 3.0 / 16.0
_MU = 16.0 * math.pi / 12.0
_U = _H * np.arange(17)
_NODES = _MU * (1.0 + 1j * _U) ** 2
# (mu h / pi) (1 + i u_k) e^(s_k), doubled for k >= 1 (the conjugate node -u_k)
_WEIGHTS = (_MU * _H / math.pi) * np.where(_U > 0.0, 2.0, 1.0) * (1.0 + 1j * _U) * np.exp(_NODES)
_CHUNK = 8192  # rows per (points x nodes) work matrix


def gamma(x: float) -> float:
    """Gamma(x) for real x (math.gamma); ValueError when not finite or at a pole."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"gamma argument must be finite, got {x!r}")
    if x <= 0.0 and x == round(x):
        raise ValueError(f"gamma pole at nonpositive integer {x!r}")
    return math.gamma(x)


@dataclass(frozen=True)
class MlfEvaluator:
    """Evaluator for E_alpha(-x), x >= 0, by the parabolic-contour rule."""

    alpha: float
    # perfbench/spans.py counts x <= series_cut as series and x >= asym_cut as
    # asymptotic arguments: x = 0 (exact) and none; the rest take the contour.
    series_cut: ClassVar[float] = 0.0
    asym_cut: ClassVar[float] = math.inf

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha!r}")

    @functools.cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray]:
        """(w_k s_k^(alpha-1), s_k^alpha) at the contour nodes s_k."""
        return _WEIGHTS * _NODES ** (self.alpha - 1.0), _NODES ** self.alpha

    def __call__(self, x):
        scalar = np.ndim(x) == 0
        xv = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(xv)) or np.any(xv < 0.0):
            raise ValueError("mlf argument must be finite and >= 0 "
                             "(positive arguments of E_alpha are not supported)")
        flat = xv.ravel()
        if self.alpha == 1.0:
            out = np.exp(-flat)
        else:
            w, p = self._rule
            out = np.empty_like(flat)
            # each row sums its own 17 terms, so a value does not depend on its batch
            for lo in range(0, flat.size, _CHUNK):
                out[lo:lo + _CHUNK] = (w / (p + flat[lo:lo + _CHUNK, None])).real.sum(axis=1)
            out[flat == 0.0] = 1.0
        return float(out[0]) if scalar else out.reshape(xv.shape)
