"""Special-function kernel: generalized Laguerre polynomials.

Only the polynomial case is provided; the radial bound-state profiles never
need anything else.  ``laguerre`` accepts scalar or array arguments in x and
is evaluated by the three-term upward recurrence, which is stable because the
polynomial is the dominant solution of the recurrence for x >= 0.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["laguerre"]


def _check_order(n, alpha):
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise ValueError(f"polynomial degree must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {n}")
    if not math.isfinite(alpha) or alpha <= -1.0:
        raise ValueError(f"order must be a finite real > -1, got {alpha!r}")


def laguerre(n, alpha, x):
    """Generalized Laguerre polynomial L_n^(alpha)(x) for x >= 0.

    Uses the upward recurrence
        (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1},
    exact in degree, with L_0 = 1 and L_1 = 1 + alpha - x.
    """
    _check_order(n, alpha)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    if np.any(x < 0.0):
        raise ValueError("x must be >= 0 (argument is gamma*r^2)")

    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - x) * cur - (k + alpha) * prev) / (k + 1.0)
    return cur if cur.ndim else float(cur)
