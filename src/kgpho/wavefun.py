"""Radial and full planar wave functions for every branch and limiting case.

Every bound state in this problem has the same radial shape

    g(r) = N r^beta exp(-gamma r^2 / 2) L_n^(beta)(gamma r^2)

with branch-specific (beta, gamma), read from the branch table in ``model``;
the full planar wave function adds the azimuthal factor exp(i m phi) /
sqrt(2 pi).  The normalization constant is chosen so that the radial norm
under the plane measure is exactly one,

    integral_0^inf g(r)^2 r dr = 1  =>  N^2 Gamma(n+beta+1) / (2 n! gamma^(beta+1)) = 1.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import laguerre

__all__ = [
    "RadialWaveFunction",
    "normalization_constant",
    "radial_wavefunction",
    "eval_radial",
    "eval_psi",
    "count_nodes",
    "turning_point",
    "support_radius",
]


@dataclass(frozen=True)
class RadialWaveFunction:
    """An evaluable normalized radial profile (n, beta, gamma, N)."""

    n: int
    beta: float
    gamma: float
    norm: float


def normalization_constant(n, beta, gamma):
    """N = sqrt(2 gamma^(beta+1) n! / Gamma(n+beta+1)), unit radial norm."""
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be a finite real > 0, got {beta!r}")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be a finite real > 0, got {gamma!r}")
    log_n2 = (
        math.log(2.0)
        + (beta + 1.0) * math.log(gamma)
        + math.lgamma(n + 1.0)
        - math.lgamma(n + beta + 1.0)
    )
    return math.exp(0.5 * log_n2)


def radial_wavefunction(n, beta, gamma):
    """Build the normalized radial profile for the given shape parameters."""
    return RadialWaveFunction(
        n=int(n), beta=float(beta), gamma=float(gamma),
        norm=normalization_constant(int(n), float(beta), float(gamma)),
    )


def eval_radial(w, r):
    """g(r) = N r^beta exp(-gamma r^2/2) L_n^(beta)(gamma r^2); r >= 0."""
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("r must be finite")
    if np.any(r < 0.0):
        raise ValueError("r must be >= 0")
    x = w.gamma * r * r
    out = w.norm * np.power(r, w.beta) * np.exp(-0.5 * x) * laguerre(w.n, w.beta, x)
    return out if out.ndim else float(out)


def eval_psi(w, m, r, phi):
    """Full planar wave function exp(i m phi) g(r) / sqrt(2 pi)."""
    ang = np.exp(1j * m * np.asarray(phi, dtype=float)) / math.sqrt(2.0 * math.pi)
    out = ang * eval_radial(w, r)
    return out if getattr(out, "ndim", 0) else complex(out)


def turning_point(w):
    """Classical turning radius sqrt(2 (2n + 1 + beta) / gamma)."""
    return math.sqrt(2.0 * (2.0 * w.n + 1.0 + w.beta) / w.gamma)


def support_radius(n, beta, gamma):
    """Radius beyond which the squared profile of (n, beta, gamma) carries
    less than 1e-12 of the norm: gamma r^2 is 40 past the turning point."""
    return math.sqrt((2.0 * (2.0 * n + 1.0 + beta) + 40.0) / gamma)


def count_nodes(w, r_max=None, samples=None):
    """Strict sign changes of g on (0, r_max); equals n for true eigenstates.

    Defaults: r_max twice the classical turning radius (all Laguerre zeros
    lie inside the turning radius), samples = max(64 (n+1), 512).  Warns when
    two adjacent sample intervals both flip sign, which signals unresolved
    oscillation.
    """
    if r_max is None:
        r_max = 2.0 * turning_point(w)
    if samples is None:
        samples = max(64 * (w.n + 1), 512)
    if samples < 64 * (w.n + 1):
        raise ValueError(f"samples must be >= 64 (n+1) = {64 * (w.n + 1)}, got {samples}")
    r = np.linspace(0.0, r_max, samples + 1)[1:]
    vals = eval_radial(w, r)
    signs = np.sign(vals)
    signs = signs[signs != 0.0]
    flips = np.flatnonzero(signs[:-1] != signs[1:])
    if np.any(np.diff(flips) == 1):
        warnings.warn(
            "two sign changes in adjacent samples; increase samples to resolve nodes",
            UserWarning,
            stacklevel=2,
        )
    return int(flips.size)
