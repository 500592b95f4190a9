"""Independent finite-difference verification of the analytic spectra.

Every level is an eigenvalue nu^2 of the radial problem

    R'' + (nu^2 - gamma^2 r^2 - (beta^2 - 1/4) / r^2) R = 0,

whose solutions behave as r^(beta+1/2) at the origin.  The oracle solves its
regular form: with R = r^(beta+1/2) u, the factor u solves

    (r^(2 beta + 1) u')' = r^(2 beta + 1) (gamma^2 r^2 - nu^2) u,   u(r_max) = 0,

and is smooth at the origin for every beta > 0.  Finite volumes on the nodes
r_i = i h (cell i spans [(i - 1/2) h, (i + 1/2) h], cell 0 starts at the
origin) give A u = nu^2 W u, with A symmetric tridiagonal and W the diagonal
of cell integrals of r^(2 beta + 1); W^(-1/2) A W^(-1/2) is again symmetric
tridiagonal, and its eigenvalues come from Sturm-count bisection (LAPACK
dstebz), which finds the one eigenvalue a level needs without the ones
below it.  The error is a clean h^2 for every beta, so one grid of
2,000 + 20 n points serves level n at every beta, and the Richardson
extrapolation over the grid and its exact h/2 refinement is accurate, with
a ratio of the two grid errors near 4.  The weights scale as
r^(2 beta + 2), which at large beta underflows near the origin or overflows
on a wide box, so they are held as logarithms and only the ratios the
matrix needs are exponentiated.

No analytic eigenvalue or eigenfunction is reused.  The box radius is
``wavefun.support_radius`` of the highest requested level, outside which a
true eigenfunction carries less than 1e-12 of its norm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import spectral_params
from .wavefun import support_radius

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

@dataclass(frozen=True)
class RadialGrid:
    """Nodes r_i = i h, i = 0..n_points-1, with h = r_max / n_points and u(r_max) = 0."""

    r_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.r_max) and self.r_max > 0.0):
            raise ValueError(f"r_max must be finite and > 0, got {self.r_max}")
        if self.n_points < 100:
            raise ValueError(f"n_points must be >= 100, got {self.n_points}")

    @property
    def h(self):
        return self.r_max / self.n_points

    @property
    def points(self):
        """The nodes r_i = i h, starting at the origin."""
        return self.h * np.arange(self.n_points)


def refine(grid):
    """Grid with exactly half the spacing (n -> 2n), same box."""
    return RadialGrid(grid.r_max, 2 * grid.n_points)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix whose eigenvalues approximate nu^2."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if self.offdiag.shape != (self.diag.shape[0] - 1,):
            raise ValueError("offdiag length must be len(diag) - 1")


def discretize(beta, gamma, grid):
    """Scaled finite-volume matrix of the regular form on ``grid``.

    Warns when the oscillator term is unresolved, h^2 max(gamma^2 r^2) > 0.1.
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be a finite real > 0, got {beta!r}")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be a finite real > 0, got {gamma!r}")
    h = grid.h
    # a product, not a power: ** raises OverflowError where * gives inf
    coarseness = h * gamma * grid.r_max
    coarseness *= coarseness
    if coarseness > 0.1:
        warnings.warn(
            f"grid too coarse: h^2 max(gamma^2 r^2) = {coarseness:.3g} > 0.1",
            UserWarning,
            stacklevel=2,
        )
    a = 2.0 * beta + 2.0
    try:
        gamma2 = gamma ** 2
    except OverflowError:  # float ** raises where * gives inf
        gamma2 = math.inf
    # A box far outside the scale of the problem, or a huge gamma, overflows
    # an entry (inf, or nan as inf * 0 at the origin); that is reported
    # below, by name.
    with np.errstate(over="ignore", invalid="ignore"):
        log_face = np.log(h * (np.arange(grid.n_points) + 0.5))  # outer face of each cell
        log_inner = np.concatenate(([-np.inf], log_face[:-1]))
        # log of the cell weight (outer^a - inner^a) / a
        log_w = a * log_face + np.log(-np.expm1(a * (log_inner - log_face))) - math.log(a)
        # log of the face flux coefficient r^(2 beta + 1) / h
        log_p = (a - 1.0) * log_face - math.log(h)
        diag = np.exp(log_p - log_w) + gamma2 * grid.points ** 2
        diag[1:] += np.exp(log_p[:-1] - log_w[1:])
        offdiag = -np.exp(log_p[:-1] - 0.5 * (log_w[:-1] + log_w[1:]))
    if not (np.isfinite(diag).all() and np.isfinite(offdiag).all()):
        raise ValueError(
            f"oracle matrix leaves the float range on the box r_max={grid.r_max!r} "
            f"with {grid.n_points} points (beta={beta!r}, gamma={gamma!r})"
        )
    return TridiagonalOperator(diag=diag, offdiag=offdiag)


def lowest_eigenvalues(op, count, first=0):
    """The ``count`` smallest eigenvalues from index ``first`` on, ascending.

    With the default ``first=0`` these are all ``count`` smallest; with
    ``first=count - 1`` only the largest of them.  Sturm-count bisection on
    the symmetric tridiagonal matrix (LAPACK dstebz: the eigenvalue count
    below a shift comes from the sign agreements of the
    leading-principal-minor recurrence) brackets each selected eigenvalue to
    near machine precision and spends nothing on the ones below ``first``.
    """
    if count < 1 or count > op.diag.shape[0]:
        raise ValueError(f"count must be in [1, {op.diag.shape[0]}], got {count}")
    if not 0 <= first < count:
        raise ValueError(f"first must be in [0, {count}), got {first}")
    return eigh_tridiagonal(
        op.diag,
        op.offdiag,
        eigvals_only=True,
        select="i",
        select_range=(first, count - 1),
        lapack_driver="stebz",
        tol=2.0 * np.finfo(float).tiny,
    )


def default_grid(beta, gamma, levels, n_points=None, r_max=None):
    """Grid resolving the lowest ``levels`` eigenvalues of (beta, gamma).

    Defaults: 2,000 + 20 (levels - 1) points for every beta, enough to keep
    the oracle's floor far below the default tolerance up to n = 300, and
    the box radius of ``wavefun.support_radius`` for the highest requested
    level.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if n_points is None:
        n_points = 2000 + 20 * (levels - 1)
    if r_max is None:
        r_max = support_radius(levels - 1, beta, gamma)
    return RadialGrid(r_max=r_max, n_points=n_points)


@dataclass(frozen=True)
class OracleCheck:
    """Two-grid eigenvalue check of one analytic level."""

    nu2_analytic: float
    nu2_coarse: float
    nu2_fine: float
    nu2_extrapolated: float
    deviation: float
    convergence_ratio: float


def oracle_check(sys, state, level, n_points=None, r_max=None):
    """Verify one level against the discrete spectrum; full diagnostics.

    Computes only the (n+1)-th discrete eigenvalue, on the default grid
    (2,000 + 20 n points) and on its exact h/2 refinement,
    Richardson-extrapolates, and compares with the analytic nu^2 at the
    level's energy.  ``convergence_ratio`` is the ratio of the two grid
    errors measured against the analytic value (about 4 when the level is
    correct).  The radial problem is the level's row of the branch table at
    the level's energy.
    """
    p = spectral_params(sys, level.energy, state, level.branch)
    if not p.bound_state:
        raise ValueError(f"level at E={level.energy} is not a bound-state problem")
    beta, gamma, nu2 = p.beta, p.gamma, p.nu2
    grid = default_grid(beta, gamma, state.n + 1, n_points=n_points, r_max=r_max)
    coarse, fine = (
        float(lowest_eigenvalues(discretize(beta, gamma, g), state.n + 1, first=state.n)[0])
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


def verify_level(sys, state, level, tol=None, n_points=None, r_max=None):
    """Relative deviation of the analytic level from the discrete eigenvalue.

    Fills ``level.oracle_dev``.  When ``tol`` is given, exceeding it emits a
    no-convergence warning (the value is still returned).
    """
    check = oracle_check(sys, state, level, n_points=n_points, r_max=r_max)
    level.oracle_dev = check.deviation
    if tol is not None and check.deviation > tol:
        warnings.warn(
            f"oracle deviation {check.deviation:.3e} exceeds tolerance {tol:.3e}",
            UserWarning,
            stacklevel=2,
        )
    return check.deviation
