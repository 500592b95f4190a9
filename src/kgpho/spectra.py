"""Energy-level solvers for every branch and limiting case.

The relativistic branches solve the transcendental bound-state condition

    f(E) = nu^2(E) - 2 (2n + 1 + beta(E)) gamma(E) = 0.

nu^2 is quadratic in E with leading coefficient 1; beta^2 and gamma^2 are
affine with slopes >= 0, so gamma and beta gamma are concave.  So f is
strictly convex on its domain and has at most two roots; on the positive
branch f < 0 just above E = -1, so it has exactly one.  The solver brackets
them from that shape and refines each by safeguarded Newton steps, with the
slopes of the branch table's row, to floating-point resolution.  The limits
(free-field Landau levels, the non-relativistic well with fields, the pure
pseudoharmonic and harmonic reductions) are closed forms; the harmonic
cubic is also cross-checked against its Cardano solution.

Energies of the relativistic branches include the rest energy (E in Mc^2
units); the non-relativistic branches store E - Mc^2.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Optional

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
    radial_slopes,
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
    "failure_status",
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

_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)


@dataclass
class EnergyLevel:
    """One solved level: value, branch, quantum numbers, diagnostics.

    ``residual`` is nu^2 - 2 (2n + 1 + beta) gamma on the level's own row of
    the branch table at ``energy``, for every branch and limit.
    ``oracle_dev`` is filled by the finite-difference verification, never by
    the solvers themselves.
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
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    if p.beta2 <= 0.0 or p.gamma2 <= 0.0:
        raise ValueError(
            f"bound-state problem requires beta^2 > 0 and gamma^2 > 0, "
            f"got beta2={p.beta2}, gamma2={p.gamma2}"
        )
    return p.nu2 - 2.0 * (2.0 * n + 1.0 + p.beta) * p.gamma


def failure_status(exc):
    """Row status of a level that could not be solved: ``degenerate`` for a
    problem without a bound state, ``no_root`` for a solve that found none."""
    return "degenerate" if isinstance(exc, DegenerateProblemError) else "no_root"


def _refine(fdf, lo, hi, f_lo, f_hi):
    """Safeguarded Newton refinement of a bracketed root of a convex f.

    ``fdf(e)`` returns (f(e), f'(e)); one of f_lo, f_hi is < 0 and the other
    >= 0.  Newton steps start at the end where f >= 0, from which a convex f
    leads them monotonically onto the root (the ``rtsafe`` scheme of
    Numerical Recipes, section 9.4).  A step that rounds to zero (f = 0
    included) moves one float inward; a step that leaves the bracket, or an
    f' that is not finite or is zero, takes the midpoint instead.  Every
    evaluated point replaces the end of its sign (f = 0 counts as >= 0),
    until the ends are adjacent floats.  Returns the end with the smaller
    |f|, on a tie the end where f >= 0.  The iteration count is capped as a
    guard against a run of floats where f is exactly 0, which the inward
    steps would otherwise cross one float at a time.
    """
    if f_lo < 0.0:
        neg, f_neg, pos = lo, f_lo, hi
    else:
        neg, f_neg, pos = hi, f_hi, lo
    f_pos, df_pos = fdf(pos)
    for _ in range(200):
        inward = math.nextafter(pos, neg)
        if inward == neg:
            break
        x = math.nan
        if df_pos != 0.0 and math.isfinite(df_pos):
            x = pos - f_pos / df_pos
        if x == pos or f_pos == 0.0:  # a zero step, whatever f' is
            x = inward
        elif not (neg < x < pos or pos < x < neg):
            x = 0.5 * (pos + neg)
        f_x, df_x = fdf(x)
        if f_x < 0.0:
            neg, f_neg = x, f_x
        else:
            pos, f_pos, df_pos = x, f_x, df_x
    return pos if abs(f_pos) <= abs(f_neg) else neg


def _residual(triple, n):
    """f(E) = nu^2 - 2 (2n + 1 + beta) gamma on one table row, beta^2 and gamma^2 clamped at 0."""
    c = 2.0 * n + 1.0

    def f(e):
        nu2, beta2, gamma2 = triple(e)
        return nu2 - 2.0 * (c + math.sqrt(max(beta2, 0.0))) * math.sqrt(max(gamma2, 0.0))

    return f


def _residual_and_slope(triple, slopes, n):
    """E -> (f(E), f'(E)) from one call of the row's triple and its slopes.

    f' = dnu^2/dE - (dbeta^2/dE gamma / beta + (2n + 1 + beta) dgamma^2/dE / gamma),
    infinite where beta or gamma is 0 (a domain edge).
    """
    c = 2.0 * n + 1.0

    def fdf(e):
        nu2, beta2, gamma2 = triple(e)
        beta, gamma = math.sqrt(max(beta2, 0.0)), math.sqrt(max(gamma2, 0.0))
        f = nu2 - 2.0 * (c + beta) * gamma
        if beta == 0.0 or gamma == 0.0:
            return f, math.inf
        d_nu2, d_beta2, d_gamma2 = slopes(e)
        return f, d_nu2 - (d_beta2 * gamma / beta + (c + beta) * d_gamma2 / gamma)

    return fdf


def _split(f, a, f_a, b, f_b):
    """Brackets (lo, hi, f(lo), f(hi)) of the roots of the convex f on [a, b].

    Golden-section descent to the first e with f(e) < 0 (none: no roots).  An end
    it moves in has f >= 0 and lies beyond the minimum, so it still bounds a root.
    """
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    f_c, f_d = f(c), f(d)
    while a < c < d < b:
        if f_c < 0.0 or f_d < 0.0:
            e, f_e = (c, f_c) if f_c < 0.0 else (d, f_d)
            return [(a, e, f_a, f_e), (e, b, f_e, f_b)]
        if f_c < f_d:
            b, f_b, d, f_d = d, f_d, c, f_c
            c = b - _INV_PHI * (b - a)
            f_c = f(c)
        else:
            a, f_a, c, f_c = c, f_c, d, f_d
            d = a + _INV_PHI * (b - a)
            f_d = f(d)
    return []


def solve_kg_energy(sys, state, branch=POSITIVE):
    """All roots of the transcendental bound-state condition, ascending.

    f is strictly convex (module docstring): at most two roots, exactly one on
    the positive branch.  The domain starts at E = -1 (positive branch) or where
    beta^2 or gamma^2 vanishes (negative, v0 > 0: at most E = 1); at v0 = 0 the
    negative-branch f is even, so [-hi, hi] holds both roots.  hi doubles from 2
    until f(hi) > 0 and f(hi) > f(hi / 2) with hi / 2 in the domain, so f rises
    above hi.  If f < 0 at the edge, one root lies in [edge, hi]; else ``_split``
    brackets one on each side.  ``_refine`` runs Newton steps from each
    bracket's f > 0 end down to adjacent floats, with f' from the row's
    slopes (``radial_slopes``).  The root nearest Mc^2 + E_nonrel is principal.
    """
    triple = radial_problem(sys, state, branch)  # rejects a label outside BRANCHES
    if branch not in (POSITIVE, NEGATIVE):
        raise ValueError(f"branch must be {POSITIVE!r} or {NEGATIVE!r}, got {branch!r}")
    v0, r0, om, mp = sys.v0, sys.rho0, sys.omega_c, state.m_eff
    if v0 == 0.0 and om == 0.0:
        raise DegenerateProblemError("no confining scale: v0 = 0 and b_field = 0")
    if v0 == 0.0 and mp == 0.0:
        raise DegenerateProblemError("beta vanishes identically: v0 = 0 and m' = 0")
    f = _residual(triple, state.n)

    hi, f_half, f_hi = 2.0, f(1.0), f(2.0)
    while not (f_hi > 0.0 and f_hi > f_half):
        if not math.isfinite(f_hi):
            raise DegenerateProblemError(f"residual overflows at E={hi} before it rises")
        hi, f_half, f_hi = 2.0 * hi, f_hi, f(2.0 * hi)
    if branch == POSITIVE:
        # -inf: _refine uses only the sign; f < 0 just above -1, even where f(-1) = 0.
        lo, f_lo = -1.0, -math.inf
    elif v0 > 0.0:
        lo = max(1.0 - mp * mp / (r0 * r0 * v0), 1.0 - (0.5 * om * r0) ** 2 / v0)
        f_lo = f(lo)
    else:
        lo, f_lo = -hi, f(-hi)
    brackets = [(lo, hi, f_lo, f_hi)] if f_lo < 0.0 else _split(f, lo, f_lo, hi, f_hi)
    fdf = _residual_and_slope(triple, radial_slopes(sys, state, branch), state.n)
    roots = [_refine(fdf, *bracket) for bracket in brackets]
    # A root on the edge (beta^2 or gamma^2 is 0 in floating point) is no level.
    roots = [e for e in roots if min(triple(e)[1:]) > 0.0]

    levels = [EnergyLevel(energy=e, branch=branch, state=state, residual=f(e)) for e in roots]
    if levels:
        principal = levels[0]
        if len(levels) > 1:
            # The non-relativistic row has nu^2(E) = 2 E + nu^2(0) and constant
            # (beta, gamma), so its level is (2n + 1 + beta) gamma - nu^2(0) / 2.
            nu2, beta2, gamma2 = radial_problem(sys, state, NONREL_FIELDS)(0.0)
            target = 1.0 + (2.0 * state.n + 1.0 + math.sqrt(beta2)) * math.sqrt(gamma2) - 0.5 * nu2
            principal = min(levels, key=lambda lev: abs(lev.energy - target))
        principal.principal = True
    return levels


def landau_energy(n, m_eff, omega_c):
    """Free-field level (n + (m' + |m'|)/2 + 1/2) omega_c, in Mc^2 units."""
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    if not math.isfinite(m_eff) or not math.isfinite(omega_c):
        raise ValueError("m_eff and omega_c must be finite")
    if omega_c < 0.0:
        raise ValueError(f"omega_c must be >= 0, got {omega_c}")
    return (n + 0.5 * (m_eff + abs(m_eff)) + 0.5) * omega_c


def _closed_form_level(sys, state, branch, energy):
    """A closed-form level packaged with its residual on its table row."""
    residual = _residual(radial_problem(sys, state, branch), state.n)(energy)
    return EnergyLevel(
        energy=energy, branch=branch, state=state, residual=residual, principal=True
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
    level = _closed_form_level(sys, state, NONREL_FIELDS, energy)
    return level, NonRelParams(Omega=Omega, omega_D=omega_D, a=a, k_F=k_F, m_tilde=m_tilde)


def nonrel_pho_energy(sys, state):
    """Non-relativistic pseudoharmonic level without fields.

    E = -2 v0 + (1 + 2n + sqrt(m^2 + 2 v0 rho0^2)) sqrt(2 v0) / rho0.
    """
    if sys.b_field != 0.0:
        raise ValueError("field-free reduction requires b_field = 0")
    if sys.v0 <= 0.0:
        raise DegenerateProblemError(f"pseudoharmonic reduction requires v0 > 0, got {sys.v0}")
    m_tilde = math.sqrt(state.m_eff ** 2 + 2.0 * sys.v0 * sys.rho0 ** 2)
    energy = -2.0 * sys.v0 + (1.0 + 2.0 * state.n + m_tilde) * math.sqrt(2.0 * sys.v0) / sys.rho0
    return _closed_form_level(sys, state, NONREL_PHO, energy)


def kg_pho_energy(sys, state):
    """Principal field-free relativistic pseudoharmonic level.

    The positive-branch level of ``solve_kg_energy`` at B = Phi = 0,
    labelled ``kg_pho``.
    """
    if sys.b_field != 0.0 or sys.flux_xi != 0.0:
        raise ValueError("field-free reduction requires b_field = 0 and flux_xi = 0")
    if sys.v0 <= 0.0:
        raise DegenerateProblemError(f"pseudoharmonic reduction requires v0 > 0, got {sys.v0}")
    return replace(compute_level(sys, state, POSITIVE), branch=KG_PHO)


def ho_params(sys, state):
    """Constants of the harmonic reduction: k, n', T and omega_D'."""
    if sys.b_field != 0.0 or sys.flux_xi != 0.0:
        raise ValueError("harmonic reduction requires b_field = 0 and flux_xi = 0")
    k = 2.0 * sys.v0 / sys.rho0 ** 2
    if k <= 0.0:
        raise DegenerateProblemError(f"harmonic reduction requires k = 2 v0 / rho0^2 > 0, got {k}")
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

    The defining condition n' sqrt(2k) = sqrt(lambda_1) lambda_2, convex and
    increasing in E on [1, inf), is solved by the Newton refinement of
    ``solve_kg_energy``; in the 27 k n'^2 >= 16 regime the Cardano closed
    form must agree to 1e-12 and is asserted against the solver root.  Below
    that threshold a discriminant-regime warning is emitted and the solver
    root is returned.
    """
    hp = ho_params(sys, state)
    k, n_prime = hp.k, hp.n_prime
    rhs = n_prime * math.sqrt(2.0 * k)

    def fdf(e):
        root = math.sqrt(e + 1.0)
        return root * (e - 1.0) - rhs, root + (e - 1.0) / (2.0 * root)

    lo, hi = 1.0, 3.0 + rhs
    energy = _refine(fdf, lo, hi, fdf(lo)[0], fdf(hi)[0])

    if 27.0 * k * n_prime ** 2 >= 16.0:
        closed = kg_ho_closed_form(k, n_prime)
        if abs(closed - energy) > 1e-12 * max(1.0, abs(energy)):
            raise RuntimeError(
                f"Cardano root {closed} disagrees with solver root {energy}"
            )
    else:
        warnings.warn(
            f"27 k n'^2 = {27.0 * k * n_prime ** 2:.6g} < 16: printed closed form "
            "has a negative square-root argument; returning the solver root",
            UserWarning,
            stacklevel=2,
        )
    return _closed_form_level(sys, state, KG_HO, energy)


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
    return _closed_form_level(sys, state, NONREL_HO, hp.n_prime * hp.omega_Dp)


_LIMITS = {
    NONREL_FIELDS: lambda sys, state: nonrel_energy_with_fields(sys, state)[0],
    NONREL_PHO: nonrel_pho_energy,
    KG_PHO: kg_pho_energy,
    KG_HO: kg_ho_energy,
    NONREL_HO: nonrel_ho_energy,
}


def compute_level(sys, state, branch=POSITIVE):
    """The principal level of one (system, state) on the row ``branch`` of
    ``BRANCHES``; ``radial_problem`` rejects any other label (ValueError).

    Each limit checks its own domain: ValueError for a field the row has none
    of, DegenerateProblemError for a row without a bound state.  A
    negative-branch request at v0 = 0 is routed to the free-field Landau
    formula (those states reduce to the free problem).  Raises LookupError
    when the transcendental solver finds no root.
    """
    if branch in _LIMITS:
        return _LIMITS[branch](sys, state)
    if branch == FREE_FIELD or (branch == NEGATIVE and sys.v0 == 0.0):
        energy = landau_energy(state.n, state.m_eff, sys.omega_c)
        return _closed_form_level(sys, state, FREE_FIELD, energy)
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


def _grid(lo, hi, steps):
    """``steps`` values from lo to hi, both included: ``np.linspace`` bit for bit."""
    div = steps - 1
    width = hi - lo
    step = width / div
    if step == 0.0:  # a subnormal width: divide i first, as numpy does
        values = [i / div * width + lo for i in range(div)]
    else:
        values = [i * step + lo for i in range(div)]
    return values + [hi]


def sweep_levels(sys_template, vary, value_range, states, branch=POSITIVE):
    """Solve each state across a parameter grid; report adjacent-m splittings.

    ``value_range`` is (lo, hi, steps), steps >= 2, endpoints included.  Rows
    are ordered by (parameter value, n, m); a point without a bound state or
    without a root becomes a row whose ``status`` is ``failure_status`` of the
    error, instead of aborting the sweep; a point that ``branch``'s row rejects
    (ValueError, as ``compute_level``) aborts it.  ``delta_e`` holds the
    splitting from the previous m at the same (value, n), where defined.
    """
    if vary not in _SWEEPABLE:
        raise ValueError(f"vary must be one of {_SWEEPABLE}, got {vary!r}")
    lo, hi, steps = value_range
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("sweep range must be finite")
    if not math.isfinite(hi - lo):
        raise ValueError(f"sweep range {lo!r}..{hi!r} is wider than the float range")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not states:
        raise ValueError("states must be non-empty")

    states = sorted(states, key=lambda s: (s.n, s.m))
    rows = []
    for value in _grid(lo, hi, steps):
        sys_point = replace(sys_template, **{vary: value})
        prev_key = None
        prev_energy = None
        for s in states:
            state = make_state(s.n, s.m, value) if vary == "flux_xi" else s
            try:
                level = compute_level(sys_point, state, branch=branch)
                row = SweepRow(param=vary, value=value, state=state, level=level)
            except (DegenerateProblemError, LookupError) as exc:
                row = SweepRow(
                    param=vary, value=value, state=state, level=None,
                    status=failure_status(exc),
                )
            key = (value, state.n)
            if row.level is not None and prev_key == key and prev_energy is not None:
                row.delta_e = row.level.energy - prev_energy
            prev_key = key
            prev_energy = row.level.energy if row.level is not None else None
            rows.append(row)
    return rows
