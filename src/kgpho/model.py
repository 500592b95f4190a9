"""Physical parameters and the branch table of the planar problem.

Everything is expressed in natural units hbar = c = M = e = 1: energies in
units of the rest energy Mc^2, lengths in Compton wavelengths hbar/(Mc).
The magnetic field enters only as the dimensionless cyclotron energy
omega_c = eB/(Mc), stored in ``PhysicalSystem.b_field``; the solenoid flux
enters only through xi = Phi_AB / Phi_0 with Phi_0 = hc/e, which shifts the
magnetic quantum number m to the effective value m' = m + xi.

Every branch and limit reduces to one Laguerre radial problem, fixed at each
energy by the triple (nu^2, beta^2, gamma^2).  ``radial_problem`` is the one
table of these triples.  On the Klein-Gordon branches, with
lambda_1 = E + 1 and lambda_2 = E - 1,

    nu^2    = lambda (lambda' + 2 v0) - omega_c m'
    beta^2  = m'^2 + rho0^2 v0 lambda
    gamma^2 = (omega_c / 2)^2 + v0 lambda / rho0^2

where (lambda, lambda') is (lambda_1, lambda_2) for the positive branch
(scalar coupling equal to +vector) and (lambda_2, lambda_1) for the negative
branch (scalar coupling equal to -vector).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "FREE_FIELD",
    "NONREL_FIELDS",
    "NONREL_PHO",
    "KG_PHO",
    "KG_HO",
    "NONREL_HO",
    "BRANCHES",
    "DegenerateProblemError",
    "PhysicalSystem",
    "QuantumState",
    "SpectralParams",
    "effective_quantum_number",
    "make_state",
    "radial_problem",
    "radial_slopes",
    "spectral_params",
]

POSITIVE = "positive"
NEGATIVE = "negative"
FREE_FIELD = "free_field"
NONREL_FIELDS = "nonrel_fields"
NONREL_PHO = "nonrel_pho"
KG_PHO = "kg_pho"
KG_HO = "kg_ho"
NONREL_HO = "nonrel_ho"


class DegenerateProblemError(ValueError):
    """The parameters admit no discrete oscillator spectrum."""


@dataclass(frozen=True)
class PhysicalSystem:
    """Physical parameters in natural units (the single source of truth).

    v0       chemical potential V0 of the well, in units of Mc^2 (>= 0)
    rho0     effective radius r0 of the well, in Compton wavelengths (> 0)
    b_field  dimensionless cyclotron energy omega_c = eB/(Mc) (>= 0)
    flux_xi  solenoid flux in flux quanta, xi = Phi_AB / Phi_0

    The mass and the charge are 1 by the choice of units.
    """

    v0: float = 1.0
    rho0: float = 1.0
    b_field: float = 0.0
    flux_xi: float = 0.0

    def __post_init__(self):
        for name in ("v0", "rho0", "b_field", "flux_xi"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val!r}")
        if self.rho0 <= 0.0:
            raise ValueError(f"rho0 must be > 0, got {self.rho0}")
        if self.v0 < 0.0:
            raise ValueError(f"v0 must be >= 0, got {self.v0}")
        if self.b_field < 0.0:
            raise ValueError(f"b_field must be >= 0, got {self.b_field}")
        # The branch table folds these constants once per system.  Each must
        # be a finite float: an overflow there raises (``** 2``) or poisons
        # every level, and rho0^2 = 0 divides by zero.  A product that
        # overflows names its factor farther from 1.
        r0r0, half_om = self.rho0 * self.rho0, 0.5 * self.b_field
        if r0r0 == 0.0 or not math.isfinite(r0r0):
            raise ValueError(f"rho0 out of range: rho0^2 = {r0r0!r} at rho0 = {self.rho0!r}")
        for name, constant, value in (
            ("b_field", "(omega_c/2)^2", half_om * half_om),
            ("v0" if self.v0 >= r0r0 else "rho0", "rho0^2 v0", r0r0 * self.v0),
            ("v0" if self.v0 * r0r0 >= 1.0 else "rho0", "v0 / rho0^2", self.v0 / r0r0),
        ):
            if not math.isfinite(value):
                raise ValueError(
                    f"{name} out of range: {constant} overflows at v0 = {self.v0!r}, "
                    f"rho0 = {self.rho0!r}, b_field = {self.b_field!r}"
                )

    @property
    def omega_c(self):
        """Cyclotron energy; identical to b_field in natural units."""
        return self.b_field


@dataclass(frozen=True)
class QuantumState:
    """Radial quantum number n, magnetic quantum number m, and m' = m + xi."""

    n: int
    m: int
    m_eff: float

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or self.n < 0:
            raise ValueError(f"n must be an integer >= 0, got {self.n!r}")
        if not isinstance(self.m, numbers.Integral):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        if not math.isfinite(self.m_eff):
            raise ValueError("m_eff must be finite")


def effective_quantum_number(m, flux_xi, strict=False):
    """Flux-shifted magnetic quantum number m' = m + xi.

    In strict (paper-faithful) mode a warning is emitted when xi is not an
    integer or when m' < 1; the permissive algebra only ever uses m'^2 and a
    term linear in m', so any real m' is accepted.
    """
    if not math.isfinite(m) or not math.isfinite(flux_xi):
        raise ValueError("m and flux_xi must be finite")
    m_eff = m + flux_xi
    if strict:
        if flux_xi != round(flux_xi):
            warnings.warn(
                f"strict mode expects integer flux quanta, got xi = {flux_xi}",
                UserWarning,
                stacklevel=2,
            )
        if m_eff != round(m_eff) or m_eff < 1:
            warnings.warn(
                f"strict mode expects m' = 1, 2, ..., got m' = {m_eff}",
                UserWarning,
                stacklevel=2,
            )
    return m_eff


def make_state(n, m, flux_xi=0.0, strict=False):
    """Build a QuantumState with m_eff derived from the flux."""
    return QuantumState(
        n=int(n), m=int(m), m_eff=effective_quantum_number(int(m), flux_xi, strict=strict)
    )


@dataclass(frozen=True)
class SpectralParams:
    """The triple (nu^2, beta^2, gamma^2) defining one radial problem."""

    nu2: float
    beta2: float
    gamma2: float
    branch: str

    @property
    def beta(self):
        return math.sqrt(self.beta2)

    @property
    def gamma(self):
        return math.sqrt(self.gamma2)

    @property
    def bound_state(self):
        """False flags a degenerate point with no bound-state problem."""
        return self.beta2 > 0.0 and self.gamma2 > 0.0


def _klein_gordon(shift):
    """Row of a Klein-Gordon branch: lambda = E + shift, lambda' = E - shift.

    Constants are folded once per system, because solvers call the row at
    every step.  ``row.slopes`` builds E -> (dnu^2/dE, dbeta^2/dE, dgamma^2/dE)
    from the same constants, for the solver's Newton steps.
    """

    def row(v0, r0, om, mp):
        two_v0, om_mp, mp2 = 2.0 * v0, om * mp, mp * mp
        r0r0, r0r0_v0, g0 = r0 * r0, r0 * r0 * v0, (0.5 * om) ** 2

        def triple(e):
            lam, lam_other = e + shift, e - shift
            return lam * (lam_other + two_v0) - om_mp, mp2 + r0r0_v0 * lam, g0 + v0 * lam / r0r0

        return triple

    def slopes(v0, r0, om, mp):
        r0r0 = r0 * r0
        r0r0_v0, v0_r0r0 = r0r0 * v0, v0 / r0r0
        return lambda e: (2.0 * (e + v0), r0r0_v0, v0_r0r0)

    row.slopes = slopes
    return row


def _nonrel(v0, r0, om, mp):
    beta2 = mp * mp + 2.0 * v0 * r0 * r0
    gamma2 = (0.5 * om) ** 2 + 2.0 * v0 / r0 ** 2
    return lambda e: (2.0 * (e + 2.0 * v0) - om * mp, beta2, gamma2)


# The branch table: each row builds, from (v0, rho0, omega_c, m'), the map
# E -> (nu^2, beta^2, gamma^2) of its radial problem.  beta^2 = m'^2 makes
# beta = |m'| on the free-field and harmonic rows; the harmonic reductions
# are field-free; the non-relativistic rows take E - Mc^2.
_TABLE = {
    POSITIVE: _klein_gordon(1.0),
    NEGATIVE: _klein_gordon(-1.0),
    FREE_FIELD: lambda v0, r0, om, mp: lambda e: (2.0 * e - om * mp, mp * mp, (0.5 * om) ** 2),
    NONREL_FIELDS: _nonrel,
    NONREL_PHO: _nonrel,
    KG_PHO: _klein_gordon(1.0),
    KG_HO: lambda v0, r0, om, mp: lambda e: (e * e - 1.0, mp * mp, v0 * (e + 1.0) / (r0 * r0)),
    NONREL_HO: lambda v0, r0, om, mp: lambda e: (2.0 * e, mp * mp, 2.0 * v0 / (r0 * r0)),
}
BRANCHES = tuple(_TABLE)


def radial_problem(sys, state, branch):
    """The radial problem of ``branch`` as a function E -> (nu^2, beta^2, gamma^2).

    This is the only place that maps a branch to its triple.  The branch is
    checked here, once; the returned function of a float energy does plain
    arithmetic and no checks, so it is cheap enough to call at every solver
    step.
    """
    try:
        row = _TABLE[branch]
    except KeyError:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}") from None
    return row(sys.v0, sys.rho0, sys.omega_c, state.m_eff)


def radial_slopes(sys, state, branch):
    """E -> (dnu^2/dE, dbeta^2/dE, dgamma^2/dE) of a Klein-Gordon row.

    Only the rows built by ``_klein_gordon`` carry slopes; any other label is
    a ValueError.
    """
    slopes = getattr(_TABLE.get(branch), "slopes", None)
    if slopes is None:
        raise ValueError(f"branch {branch!r} has no slopes in the branch table")
    return slopes(sys.v0, sys.rho0, sys.omega_c, state.m_eff)


def spectral_params(sys, energy, state, branch=POSITIVE):
    """The triple (nu^2, beta^2, gamma^2) of ``branch`` at one energy.

    Returns a flagged (``bound_state == False``) result rather than raising
    when beta^2 or gamma^2 is non-positive at this energy.
    """
    triple = radial_problem(sys, state, branch)
    energy = float(energy)
    if not math.isfinite(energy):
        raise ValueError("energy must be finite")
    if branch == POSITIVE and energy + 1.0 <= 0.0:
        raise ValueError(f"positive branch requires E > -1 (Mc^2 units), got {energy}")
    nu2, beta2, gamma2 = triple(energy)
    return SpectralParams(nu2=nu2, beta2=beta2, gamma2=gamma2, branch=branch)
