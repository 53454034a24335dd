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

The rule is summed in real arithmetic. With p_k = s_k^a, weight
w_k = (mu h / pi) (1 + i u_k) e^(s_k) s_k^(a-1), q_k = p_k - 1 and
s = 1 / (1 + x), each term is

    Re[w_k / (p_k + x)] = s (Re w_k + kappa_k s) / (1 + s (2 Re q_k + |q_k|^2 s)),

kappa_k = Re w_k Re q_k + Im w_k Im q_k. Since 0 < s <= 1, every
intermediate is bounded by the coefficients (|kappa_k|, |q_k|^2) for any
finite x >= 0, so nothing overflows up to the largest double. The shorter
(Re w_k a + Im w_k b) / (a^2 + b^2), with a = x + Re p_k, overflows in a^2
past x ~ 1.3e154. Arguments go through in blocks with three preallocated
work vectors, and each value adds its 17 terms in node order, so a value
does not depend on its batch.
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
_CHUNK = 8192  # arguments per block of work vectors

gamma = math.gamma  # no package module calls it; perfbench/workloads.py imports it


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
    def _rule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(Re w_k, kappa_k, 2 Re q_k, |q_k|^2) of the real form at the 17 nodes."""
        w = _WEIGHTS * _NODES ** (self.alpha - 1.0)
        q = _NODES ** self.alpha - 1.0
        return w.real, w.real * q.real + w.imag * q.imag, 2.0 * q.real, np.abs(q) ** 2

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
            out = np.zeros_like(flat)
            s, num, den = (np.empty(min(flat.size, _CHUNK)) for _ in range(3))
            nodes = list(zip(*self._rule))
            for lo in range(0, flat.size, _CHUNK):
                block = out[lo:lo + _CHUNK]
                sb, nb, db = s[:block.size], num[:block.size], den[:block.size]
                np.add(flat[lo:lo + _CHUNK], 1.0, out=sb)
                np.reciprocal(sb, out=sb)
                for wr, kappa, q2r, qq in nodes:
                    np.multiply(sb, kappa, out=nb)
                    nb += wr
                    nb *= sb
                    np.multiply(sb, qq, out=db)
                    db += q2r
                    db *= sb
                    db += 1.0
                    nb /= db
                    block += nb
            out[flat == 0.0] = 1.0
        return float(out[0]) if scalar else out.reshape(xv.shape)
