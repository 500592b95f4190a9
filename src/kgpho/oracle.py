"""Independent finite-difference verification of the analytic spectra.

The radial equation in its Schroedinger form,

    R'' + (nu^2 - gamma^2 r^2 - (beta^2 - 1/4) / r^2) R = 0,

is discretized on a uniform grid with second-order central differences and
Dirichlet ends; the resulting symmetric tridiagonal matrix has eigenvalues
approximating nu^2_n = 2 (2n + 1 + beta) gamma, with no analytic formula
reused anywhere in the pipeline.  Eigenvalues are extracted by Sturm-count
bisection (LAPACK dstebz), and the reported oracle value is the Richardson
extrapolation over a grid and its exact h/2 refinement.

Grid policy: the plain 3-point scheme converges as h^2 only where the
eigenfunction r^(beta+1/2) is smooth at the origin.  For non-half-integer
exponents with beta < ~1.2 the observed order drops to h^(2 beta), so the
default resolution is raised in that zone to keep the extrapolated values
comfortably below 1e-6 relative error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import spectral_params

__all__ = [
    "RadialGrid",
    "TridiagonalOperator",
    "discretize",
    "lowest_eigenvalues",
    "default_grid",
    "refine",
    "OracleCheck",
    "oracle_check",
    "verify_level",
]

_RMIN_FRACTION = 1e-12  # keeps the wall shift far below the h^2 error


@dataclass(frozen=True)
class RadialGrid:
    """Uniform interior grid with Dirichlet values at r_min and r_max."""

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max) or not math.isfinite(self.r_max):
            raise ValueError(f"need 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]")
        if self.n_points < 100:
            raise ValueError(f"n_points must be >= 100, got {self.n_points}")

    @property
    def h(self):
        return (self.r_max - self.r_min) / (self.n_points + 1)

    @property
    def points(self):
        """Interior points r_i = r_min + i h, i = 1..n_points."""
        return self.r_min + self.h * np.arange(1, self.n_points + 1)


def refine(grid):
    """Grid with exactly half the spacing (n -> 2n + 1), same endpoints."""
    return RadialGrid(grid.r_min, grid.r_max, 2 * grid.n_points + 1)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal discretization of -d^2/dr^2 + V(r)."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if self.offdiag.shape != (self.diag.shape[0] - 1,):
            raise ValueError("offdiag length must be len(diag) - 1")


def discretize(beta, gamma, grid):
    """Discrete -d^2/dr^2 + gamma^2 r^2 + (beta^2 - 1/4)/r^2, Dirichlet ends.

    Warns when the oscillator part of the potential is unresolved,
    h^2 max(gamma^2 r^2) > 0.1.  The centrifugal value at the first interior
    point scales as 1/h^2 on any grid, so it carries no resolution
    information and is excluded from the coarseness check.
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be a finite real > 0, got {beta!r}")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be a finite real > 0, got {gamma!r}")
    r = grid.points
    h = grid.h
    if h * h * gamma ** 2 * grid.r_max ** 2 > 0.1:
        warnings.warn(
            f"grid too coarse: h^2 max(gamma^2 r^2) = {h * h * gamma ** 2 * grid.r_max ** 2:.3g} > 0.1",
            UserWarning,
            stacklevel=2,
        )
    potential = gamma ** 2 * r ** 2 + (beta ** 2 - 0.25) / (r * r)
    diag = 2.0 / (h * h) + potential
    offdiag = np.full(grid.n_points - 1, -1.0 / (h * h))
    return TridiagonalOperator(diag=diag, offdiag=offdiag)


def lowest_eigenvalues(op, count):
    """The ``count`` smallest eigenvalues, ascending.

    Sturm-count bisection on the symmetric tridiagonal matrix (LAPACK dstebz:
    the eigenvalue count below a shift comes from the sign agreements of the
    leading-principal-minor recurrence), bracketed to near machine precision.
    """
    if count < 1 or count > op.diag.shape[0]:
        raise ValueError(f"count must be in [1, {op.diag.shape[0]}], got {count}")
    return eigh_tridiagonal(
        op.diag,
        op.offdiag,
        eigvals_only=True,
        select="i",
        select_range=(0, count - 1),
        lapack_driver="stebz",
        tol=2.0 * np.finfo(float).tiny,
    )


def _default_n_points(beta):
    """Resolution by smoothness zone of r^(beta+1/2) at the origin."""
    if beta < 0.8:
        return 64000
    if beta < 1.2:
        return 16000
    return 4000


def default_grid(beta, gamma, levels, n_points=None, r_max=None):
    """Grid resolving the lowest ``levels`` eigenvalues of (beta, gamma).

    r_max defaults to 2.5x the classical turning radius of the highest
    requested level; r_min is a tiny positive offset (the Dirichlet value at
    the origin is exact for beta > 0, and the wall shift at r_min scales as
    r_min^(2 beta)).
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    nu2_top = 2.0 * (2.0 * (levels - 1) + 1.0 + beta) * gamma
    if r_max is None:
        r_max = 2.5 * math.sqrt(nu2_top) / gamma
    if n_points is None:
        n_points = _default_n_points(beta)
    return RadialGrid(r_min=_RMIN_FRACTION * r_max, r_max=r_max, n_points=n_points)


@dataclass(frozen=True)
class OracleCheck:
    """Two-grid eigenvalue check of one analytic level."""

    nu2_analytic: float
    nu2_coarse: float
    nu2_fine: float
    nu2_extrapolated: float
    deviation: float
    convergence_ratio: float


def oracle_check(sys, state, level, grid=None, n_points=None, r_max=None):
    """Verify one level against the discrete spectrum; full diagnostics.

    Extracts the (n+1)-th discrete eigenvalue on ``grid`` and on its exact
    h/2 refinement, Richardson-extrapolates, and compares with the analytic
    nu^2 at the level's energy.  ``convergence_ratio`` is the ratio of the
    two grid errors measured against the analytic value (about 4 when the
    scheme is in its clean h^2 regime and the level is correct).  The radial
    problem is the level's row of the branch table at the level's energy.
    """
    p = spectral_params(sys, level.energy, state, level.branch)
    if not p.bound_state:
        raise ValueError(f"level at E={level.energy} is not a bound-state problem")
    beta, gamma, nu2 = p.beta, p.gamma, p.nu2
    if beta < 0.5:
        warnings.warn(
            f"beta = {beta:.4g} < 1/2: discretization error grows near the origin; "
            "reduced confidence",
            UserWarning,
            stacklevel=2,
        )
    if grid is None:
        grid = default_grid(beta, gamma, state.n + 1, n_points=n_points, r_max=r_max)
    coarse, fine = (
        float(lowest_eigenvalues(discretize(beta, gamma, g), state.n + 1)[state.n])
        for g in (grid, refine(grid))
    )
    extrapolated = (4.0 * fine - coarse) / 3.0
    deviation = abs(nu2 - extrapolated) / abs(nu2)
    err_fine = fine - nu2
    ratio = (coarse - nu2) / err_fine if err_fine != 0.0 else math.inf
    return OracleCheck(
        nu2_analytic=nu2,
        nu2_coarse=coarse,
        nu2_fine=fine,
        nu2_extrapolated=extrapolated,
        deviation=deviation,
        convergence_ratio=ratio,
    )


def verify_level(sys, state, level, grid=None, tol=None, n_points=None, r_max=None):
    """Relative deviation of the analytic level from the discrete eigenvalue.

    Fills ``level.oracle_dev``.  When ``tol`` is given, exceeding it emits a
    no-convergence warning (the value is still returned).
    """
    check = oracle_check(sys, state, level, grid=grid, n_points=n_points, r_max=r_max)
    level.oracle_dev = check.deviation
    if tol is not None and check.deviation > tol:
        warnings.warn(
            f"oracle deviation {check.deviation:.3e} exceeds tolerance {tol:.3e}",
            UserWarning,
            stacklevel=2,
        )
    return check.deviation
