"""Energy-level solvers for every branch and limiting case.

The relativistic branches solve the transcendental bound-state condition

    f(E) = nu^2(E) - 2 (2n + 1 + beta(E)) gamma(E) = 0

by a uniform sign-change scan over the admissible energy window followed by
bisection refined down to floating-point resolution.  The limiting cases
(free-field Landau levels, the non-relativistic well with fields, the pure
pseudoharmonic and harmonic reductions) are evaluated from their closed
forms, and the harmonic cubic is additionally cross-checked against its
Cardano solution.

Energies of the relativistic branches include the rest energy (E in Mc^2
units); the non-relativistic branches store E - Mc^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import (
    BRANCHES,
    FREE_FIELD,
    KG_HO,
    KG_PHO,
    NEGATIVE,
    NONREL_FIELDS,
    NONREL_HO,
    NONREL_PHO,
    POSITIVE,
    DegenerateProblemError,
    QuantumState,
    make_state,
    radial_problem,
)

__all__ = [
    "BRANCHES",
    "FREE_FIELD",
    "NONREL_FIELDS",
    "NONREL_PHO",
    "KG_PHO",
    "KG_HO",
    "NONREL_HO",
    "EnergyLevel",
    "NonRelParams",
    "HoParams",
    "SweepRow",
    "quantization_residual",
    "solve_kg_energy",
    "landau_energy",
    "nonrel_energy_with_fields",
    "nonrel_pho_energy",
    "kg_pho_energy",
    "ho_params",
    "kg_ho_closed_form",
    "kg_ho_energy",
    "kg_ho_series",
    "nonrel_ho_energy",
    "compute_level",
    "sweep_levels",
]

_SCAN_EDGE = 1e-9  # relative offset keeping the scan strictly inside the window
_SCAN_POINTS = 10000


@dataclass
class EnergyLevel:
    """One solved level: value, branch, quantum numbers, diagnostics.

    ``residual`` is the value of the defining equation at ``energy`` (zero
    for levels given by explicit closed forms).  ``oracle_dev`` is filled by
    the finite-difference verification, never by the solvers themselves.
    """

    energy: float
    branch: str
    state: QuantumState
    residual: float
    principal: bool = False
    oracle_dev: Optional[float] = None


@dataclass(frozen=True)
class NonRelParams:
    """Derived constants of the non-relativistic well with fields."""

    Omega: float
    omega_D: float
    a: float
    k_F: float
    m_tilde: float


@dataclass(frozen=True)
class HoParams:
    """Derived constants of the harmonic reduction.

    ``T`` is the Cardano intermediate; it is NaN when 27 k n'^2 < 16, where
    the real root is not given by the printed closed form.
    """

    k: float
    n_prime: int
    T: float
    omega_Dp: float


def quantization_residual(p, n):
    """nu^2 - 2 (2n + 1 + beta) gamma; zero iff (E, n) is quantized."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    if p.beta2 <= 0.0 or p.gamma2 <= 0.0:
        raise ValueError(
            f"bound-state problem requires beta^2 > 0 and gamma^2 > 0, "
            f"got beta2={p.beta2}, gamma2={p.gamma2}"
        )
    return p.nu2 - 2.0 * (2.0 * n + 1.0 + p.beta) * p.gamma


def _bisect(f, lo, hi, f_lo, f_hi):
    """Refine a bracketed sign change down to floating-point resolution."""
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if abs(f_lo) <= abs(f_hi) else hi


def _residual(triple, n, sqrt=math.sqrt, clamp=max):
    """f(E) = nu^2 - 2 (2n + 1 + beta) gamma on one table row; arrays take np.sqrt, np.maximum."""
    c = 2.0 * n + 1.0

    def f(e):
        nu2, beta2, gamma2 = triple(e)
        return nu2 - 2.0 * (c + sqrt(clamp(beta2, 0.0))) * sqrt(clamp(gamma2, 0.0))

    return f


def _scan_window(sys, state, branch, gamma_nr):
    """Admissible energy window (lo, hi) for the sign-change scan.

    ``gamma_nr`` is gamma of the non-relativistic problem; it sets the
    spacing of the levels, and with it the top of the window.
    """
    v0, r0, om, mp, n = sys.v0, sys.rho0, sys.omega_c, state.m_eff, state.n
    if v0 == 0.0 and om == 0.0:
        raise DegenerateProblemError("no confining scale: v0 = 0 and b_field = 0")
    if v0 == 0.0 and mp == 0.0:
        raise DegenerateProblemError("beta vanishes identically: v0 = 0 and m' = 0")

    cap = 1.0 + 4.0 * (2.0 * n + 2.0 + abs(mp)) * max(gamma_nr, om)

    if branch == POSITIVE:
        lo = -1.0 + _SCAN_EDGE
    elif v0 > 0.0:
        # beta~^2 > 0 and gamma~^2 > 0 bound lambda_2 from below.
        lo_beta = 1.0 - mp * mp / (r0 * r0 * v0)
        lo_gamma = 1.0 - (0.5 * om * r0) ** 2 / v0
        lo = max(lo_beta, lo_gamma)
        lo += _SCAN_EDGE * max(1.0, abs(lo))
    else:
        # Free parameters: beta~ = |m'| and gamma~ = omega_c/2 at every E.
        lo = -cap
    if not lo < cap:
        raise DegenerateProblemError(
            f"admissible energy window is empty: lo={lo}, cap={cap}"
        )
    return lo, cap


def solve_kg_energy(sys, state, branch=POSITIVE):
    """All roots of the transcendental bound-state condition, ascending.

    Scans 10,000 uniform energies over the admissible window, then bisects
    every sign change to floating-point resolution.  The root closest to
    Mc^2 plus the non-relativistic energy is flagged principal.  Returns an
    empty list when no sign change exists in the window.
    """
    if branch not in (POSITIVE, NEGATIVE):
        raise ValueError(f"branch must be {POSITIVE!r} or {NEGATIVE!r}, got {branch!r}")
    # The non-relativistic row has nu^2(E) = 2 E + nu^2(0) and constant
    # (beta, gamma), so its level is (2n + 1 + beta) gamma - nu^2(0) / 2.
    nr_nu2, nr_beta2, nr_gamma2 = radial_problem(sys, state, NONREL_FIELDS)(0.0)
    gamma_nr = math.sqrt(nr_gamma2)
    lo, hi = _scan_window(sys, state, branch, gamma_nr)
    triple = radial_problem(sys, state, branch)
    f = _residual(triple, state.n)

    grid = np.linspace(lo, hi, _SCAN_POINTS)
    vals = _residual(triple, state.n, np.sqrt, np.maximum)(grid)

    roots = []
    sign = np.sign(vals)
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
        roots.append(_bisect(f, float(grid[i]), float(grid[i + 1]), vals[i], vals[i + 1]))
    roots.extend(float(e) for e in grid[sign == 0.0])
    roots.sort()

    levels = [
        EnergyLevel(energy=e, branch=branch, state=state, residual=f(e)) for e in roots
    ]
    if levels:
        target = 1.0 + (2.0 * state.n + 1.0 + math.sqrt(nr_beta2)) * gamma_nr - 0.5 * nr_nu2
        principal = min(levels, key=lambda lev: abs(lev.energy - target))
        principal.principal = True
    return levels


def landau_energy(n, m_eff, omega_c):
    """Free-field level (n + (m' + |m'|)/2 + 1/2) omega_c, in Mc^2 units."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    if not math.isfinite(m_eff) or not math.isfinite(omega_c):
        raise ValueError("m_eff and omega_c must be finite")
    if omega_c < 0.0:
        raise ValueError(f"omega_c must be >= 0, got {omega_c}")
    return (n + 0.5 * (m_eff + abs(m_eff)) + 0.5) * omega_c


def _free_field_level(sys, state):
    """Landau level packaged with its residual on the free-field table row."""
    energy = landau_energy(state.n, state.m_eff, sys.omega_c)
    residual = _residual(radial_problem(sys, state, FREE_FIELD), state.n)(energy)
    return EnergyLevel(
        energy=energy, branch=FREE_FIELD, state=state, residual=residual, principal=True
    )


def nonrel_energy_with_fields(sys, state):
    """Non-relativistic well-plus-fields level and its derived constants.

    E = Omega (n + (|m~| + 1)/2) + omega_c m'/2 - 2 v0 with
    Omega = sqrt(omega_c^2 + 4 omega_D^2), omega_D = sqrt(2 v0)/rho0 and
    |m~| = sqrt(m'^2 + a^2), a = k_F rho0, k_F = sqrt(2 v0).
    """
    if sys.v0 == 0.0 and sys.b_field == 0.0:
        raise DegenerateProblemError("no confining scale: v0 = 0 and b_field = 0")
    om = sys.omega_c
    k_F = math.sqrt(2.0 * sys.v0)
    omega_D = k_F / sys.rho0
    Omega = math.hypot(om, 2.0 * omega_D)
    a = k_F * sys.rho0
    m_tilde = math.hypot(state.m_eff, a)
    energy = Omega * (state.n + 0.5 * (m_tilde + 1.0)) + 0.5 * om * state.m_eff - 2.0 * sys.v0
    level = EnergyLevel(
        energy=energy, branch=NONREL_FIELDS, state=state, residual=0.0, principal=True
    )
    return level, NonRelParams(Omega=Omega, omega_D=omega_D, a=a, k_F=k_F, m_tilde=m_tilde)


def nonrel_pho_energy(sys, state):
    """Non-relativistic pseudoharmonic level without fields.

    E = -2 v0 + (1 + 2n + sqrt(m^2 + 2 v0 rho0^2)) sqrt(2 v0) / rho0.
    """
    if sys.b_field != 0.0:
        raise ValueError("field-free reduction requires b_field = 0")
    if sys.v0 <= 0.0:
        raise ValueError(f"pseudoharmonic reduction requires v0 > 0, got {sys.v0}")
    m_tilde = math.sqrt(state.m_eff ** 2 + 2.0 * sys.v0 * sys.rho0 ** 2)
    energy = -2.0 * sys.v0 + (1.0 + 2.0 * state.n + m_tilde) * math.sqrt(2.0 * sys.v0) / sys.rho0
    return EnergyLevel(
        energy=energy, branch=NONREL_PHO, state=state, residual=0.0, principal=True
    )


def kg_pho_energy(sys, state):
    """Principal field-free relativistic pseudoharmonic level.

    The positive-branch level of ``solve_kg_energy`` at B = Phi = 0,
    labelled ``kg_pho``.
    """
    if sys.b_field != 0.0 or sys.flux_xi != 0.0:
        raise ValueError("field-free reduction requires b_field = 0 and flux_xi = 0")
    if sys.v0 <= 0.0:
        raise ValueError(f"pseudoharmonic reduction requires v0 > 0, got {sys.v0}")
    return replace(compute_level(sys, state, POSITIVE), branch=KG_PHO)


def ho_params(sys, state):
    """Constants of the harmonic reduction: k, n', T and omega_D'."""
    if sys.b_field != 0.0 or sys.flux_xi != 0.0:
        raise ValueError("harmonic reduction requires b_field = 0 and flux_xi = 0")
    k = 2.0 * sys.v0 / sys.rho0 ** 2
    if k <= 0.0:
        raise ValueError(f"harmonic reduction requires k = 2 v0 / rho0^2 > 0, got {k}")
    n_prime = 1 + abs(state.m) + 2 * state.n
    T = _cardano_t(k, n_prime) if 27.0 * k * n_prime ** 2 >= 16.0 else math.nan
    return HoParams(k=k, n_prime=n_prime, T=T, omega_Dp=math.sqrt(k))


def _cardano_t(k, n_prime):
    """Cardano intermediate T of the harmonic cubic; needs 27 k n'^2 >= 16."""
    return 27.0 * k * n_prime ** 2 - 8.0 + 3.0 * n_prime * math.sqrt(
        3.0 * k * (27.0 * k * n_prime ** 2 - 16.0)
    )


def kg_ho_closed_form(k, n_prime, paper_printed=False):
    """Real root of the harmonic cubic by Cardano's formula.

    The re-derived coefficient of T^(-1/3) is 4 (in units of M^2 c^4); the
    published variant with coefficient 1 is kept behind ``paper_printed``
    for documentation and fails back-substitution into the cubic.
    """
    if 27.0 * k * n_prime ** 2 < 16.0:
        raise ValueError("closed form requires 27 k n'^2 >= 16")
    T = _cardano_t(k, n_prime)
    coeff = 1.0 if paper_printed else 4.0
    return (1.0 + coeff * T ** (-1.0 / 3.0) + T ** (1.0 / 3.0)) / 3.0


def kg_ho_energy(sys, state):
    """Relativistic harmonic-oscillator level.

    The defining condition n' sqrt(2k) = sqrt(lambda_1) lambda_2 is solved by
    bisection; in the 27 k n'^2 >= 16 regime the Cardano closed form must
    agree to 1e-12 and is asserted against the bisection root.  Below that
    threshold a discriminant-regime warning is emitted and the bisection
    root is returned.
    """
    hp = ho_params(sys, state)
    k, n_prime = hp.k, hp.n_prime
    rhs = n_prime * math.sqrt(2.0 * k)

    def f(e):
        return math.sqrt(e + 1.0) * (e - 1.0) - rhs

    lo, hi = 1.0, 3.0 + rhs
    energy = _bisect(f, lo, hi, f(lo), f(hi))

    if 27.0 * k * n_prime ** 2 >= 16.0:
        closed = kg_ho_closed_form(k, n_prime)
        if abs(closed - energy) > 1e-12 * max(1.0, abs(energy)):
            raise RuntimeError(
                f"Cardano root {closed} disagrees with bisection root {energy}"
            )
    else:
        warnings.warn(
            f"27 k n'^2 = {27.0 * k * n_prime ** 2:.6g} < 16: printed closed form "
            "has a negative square-root argument; returning the bisection root",
            UserWarning,
            stacklevel=2,
        )
    return EnergyLevel(
        energy=energy, branch=KG_HO, state=state, residual=f(energy), principal=True
    )


def kg_ho_series(sys, lambda2, order):
    """Truncated expansion of the harmonic condition in lambda_2:

    n' = sqrt(1/k) [lambda_2 + lambda_2^2/4 - lambda_2^3/32 + O(lambda_2^4)].
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order!r}")
    k = 2.0 * sys.v0 / sys.rho0 ** 2
    if k <= 0.0:
        raise ValueError(f"harmonic reduction requires k > 0, got {k}")
    lam2 = float(lambda2)
    total = lam2
    if order >= 2:
        total += lam2 ** 2 / 4.0
    if order >= 3:
        total -= lam2 ** 3 / 32.0
    return math.sqrt(1.0 / k) * total


def nonrel_ho_energy(sys, state):
    """Non-relativistic harmonic level E' = (1 + |m| + 2n) omega_D'."""
    hp = ho_params(sys, state)
    energy = hp.n_prime * hp.omega_Dp
    return EnergyLevel(
        energy=energy, branch=NONREL_HO, state=state, residual=0.0, principal=True
    )


_LIMITS = {
    "nonrel": lambda sys, state: nonrel_energy_with_fields(sys, state)[0],
    "kg-pho": kg_pho_energy,
    "kg-ho": kg_ho_energy,
    "nonrel-ho": nonrel_ho_energy,
    "nonrel-pho": nonrel_pho_energy,
}


def compute_level(sys, state, branch=POSITIVE, limit=None):
    """Dispatch one (system, state) to the requested solver.

    ``limit`` overrides the relativistic solve with a limiting-case formula.
    A negative-branch request at v0 = 0 is routed to the free-field Landau
    formula (those states reduce to the free problem).  Raises LookupError
    when the transcendental solver finds no root.
    """
    if limit is not None:
        if limit not in _LIMITS:
            raise ValueError(f"unknown limit {limit!r}; expected one of {sorted(_LIMITS)}")
        return _LIMITS[limit](sys, state)
    if branch == FREE_FIELD or (branch == NEGATIVE and sys.v0 == 0.0):
        return _free_field_level(sys, state)
    if branch not in (POSITIVE, NEGATIVE):
        raise ValueError(f"unknown branch {branch!r}")
    for lev in solve_kg_energy(sys, state, branch):
        if lev.principal:
            return lev
    raise LookupError(f"no root found for n={state.n}, m={state.m}, branch={branch}")


@dataclass
class SweepRow:
    """One sweep grid point for one state."""

    param: str
    value: float
    state: QuantumState
    level: Optional[EnergyLevel]
    status: str = "ok"
    delta_e: Optional[float] = None


_SWEEPABLE = ("b_field", "flux_xi", "v0")


def sweep_levels(sys_template, vary, value_range, states, branch=POSITIVE, limit=None):
    """Solve each state across a parameter grid; report adjacent-m splittings.

    ``value_range`` is (lo, hi, steps), steps >= 2, endpoints included.  Rows
    are ordered by (parameter value, n, m); per-point solver failures become
    flagged rows instead of aborting the sweep.  ``delta_e`` holds the
    splitting from the previous m at the same (value, n), where defined.
    """
    if vary not in _SWEEPABLE:
        raise ValueError(f"vary must be one of {_SWEEPABLE}, got {vary!r}")
    lo, hi, steps = value_range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("sweep range must be finite")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not states:
        raise ValueError("states must be non-empty")

    states = sorted(states, key=lambda s: (s.n, s.m))
    rows = []
    for value in np.linspace(lo, hi, steps):
        value = float(value)
        sys_point = replace(sys_template, **{vary: value})
        prev_key = None
        prev_energy = None
        for s in states:
            state = make_state(s.n, s.m, value) if vary == "flux_xi" else s
            try:
                level = compute_level(sys_point, state, branch=branch, limit=limit)
                row = SweepRow(param=vary, value=value, state=state, level=level)
            except (DegenerateProblemError, LookupError, ValueError) as exc:
                row = SweepRow(
                    param=vary, value=value, state=state, level=None,
                    status=type(exc).__name__,
                )
            key = (value, state.n)
            if row.level is not None and prev_key == key and prev_energy is not None:
                row.delta_e = row.level.energy - prev_energy
            prev_key = key
            prev_energy = row.level.energy if row.level is not None else None
            rows.append(row)
    return rows
