import math

import numpy as np
import pytest

from kgpho.model import (
    NEGATIVE,
    POSITIVE,
    DegenerateProblemError,
    PhysicalSystem,
    SpectralParams,
    make_state,
    spectral_params,
)
from kgpho.oracle import verify_level
from kgpho.spectra import (
    FREE_FIELD,
    compute_level,
    kg_ho_closed_form,
    kg_ho_energy,
    kg_ho_series,
    kg_pho_energy,
    landau_energy,
    nonrel_energy_with_fields,
    nonrel_ho_energy,
    nonrel_pho_energy,
    ho_params,
    quantization_residual,
    solve_kg_energy,
    sweep_levels,
)

# Pre-computed by standalone bisection on the defining equations.
GOLDEN_KG_LEVEL = 2.3675431291311684  # v0=1, r0=1, B=xi=0, n=0, m=1, positive
GOLDEN_KG_HO = 2.1303954347672787  # k=2, n'=1


def test_quantization_residual_definition():
    beta, gamma = 1.7, 0.9
    p = SpectralParams(nu2=2.0 * (1.0 + beta) * gamma, beta2=beta**2, gamma2=gamma**2,
                       branch=POSITIVE)
    assert quantization_residual(p, 0) == pytest.approx(0.0, abs=1e-14)

    p = SpectralParams(nu2=2.0, beta2=3.0, gamma2=3.0, branch=POSITIVE)
    assert quantization_residual(p, 0) == pytest.approx(-4.0 - 2.0 * math.sqrt(3.0), rel=1e-14)

    # Landau-style parameters satisfy the condition by construction.
    beta, gamma, n = 2.0, 0.5, 1
    p = SpectralParams(nu2=2.0 * (2 * n + 1 + beta) * gamma, beta2=4.0, gamma2=0.25,
                       branch=NEGATIVE)
    assert quantization_residual(p, n) == 0.0


def test_quantization_residual_domain():
    p = SpectralParams(nu2=1.0, beta2=0.0, gamma2=1.0, branch=POSITIVE)
    with pytest.raises(ValueError):
        quantization_residual(p, 0)
    p = SpectralParams(nu2=1.0, beta2=1.0, gamma2=-0.5, branch=POSITIVE)
    with pytest.raises(ValueError):
        quantization_residual(p, 1)


def test_solve_kg_energy_golden_level():
    sys = PhysicalSystem(v0=1.0, rho0=1.0)
    levels = solve_kg_energy(sys, make_state(0, 1))
    principal = [l for l in levels if l.principal]
    assert len(principal) == 1
    assert principal[0].energy == pytest.approx(GOLDEN_KG_LEVEL, rel=1e-12)
    assert abs(principal[0].residual) <= 1e-12


def test_solve_kg_energy_landau_limit_positive_branch():
    # V0 = 0 reduces the condition to E^2 = 1 + omega_c (2n + 1 + 2 m').
    for om, n, m in [(1.0, 0, 1), (0.5, 2, 3), (2.0, 1, 2)]:
        sys = PhysicalSystem(v0=0.0, rho0=1.0, b_field=om)
        levels = solve_kg_energy(sys, make_state(n, m))
        expect = math.sqrt(1.0 + om * (2 * n + 1 + 2 * m))
        assert any(l.energy == pytest.approx(expect, rel=1e-12) for l in levels)
        for l in levels:
            assert abs(l.residual) <= 1e-12


def test_solve_kg_energy_negative_branch_free_pair():
    # The transcendental on the negative branch at V0 = 0 has symmetric roots.
    sys = PhysicalSystem(v0=0.0, rho0=1.0, b_field=1.0)
    levels = solve_kg_energy(sys, make_state(0, 1), branch=NEGATIVE)
    energies = sorted(l.energy for l in levels)
    assert len(energies) == 2
    assert energies[0] == pytest.approx(-energies[1], rel=1e-12)
    assert energies[1] == pytest.approx(2.0, rel=1e-12)


def test_solve_kg_energy_residuals_random_systems():
    rng = np.random.default_rng(17)
    total = 0
    for _ in range(40):
        sys = PhysicalSystem(
            v0=float(rng.uniform(0.2, 1.5)),
            rho0=float(rng.uniform(0.6, 1.8)),
            b_field=float(rng.uniform(0.0, 1.2)),
            flux_xi=float(rng.integers(0, 2)),
        )
        state = make_state(int(rng.integers(0, 4)), int(rng.integers(0, 3)), sys.flux_xi)
        branch = POSITIVE if rng.uniform() < 0.7 else NEGATIVE
        for level in solve_kg_energy(sys, state, branch):
            p = spectral_params(sys, level.energy, state, branch)
            assert abs(quantization_residual(p, state.n)) <= 1e-12
            total += 1
    assert total >= 30


def test_solve_kg_energy_degenerate_inputs():
    with pytest.raises(DegenerateProblemError):
        solve_kg_energy(PhysicalSystem(v0=0.0, b_field=0.0), make_state(0, 1))
    with pytest.raises(DegenerateProblemError):
        solve_kg_energy(PhysicalSystem(v0=0.0, b_field=1.0), make_state(0, 0))


def test_monotone_in_n():
    sys = PhysicalSystem(v0=1.0, rho0=1.0, b_field=0.5)
    energies = []
    for n in range(11):
        lev = compute_level(sys, make_state(n, 1))
        energies.append(lev.energy)
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_m_prime_only_dependence():
    # Energies depend on (m, xi) only through m' = m + xi.
    for branch in (POSITIVE, NEGATIVE):
        e = []
        for m, xi in [(0, 2.0), (1, 1.0), (2, 0.0)]:
            sys = PhysicalSystem(v0=0.8, rho0=1.1, b_field=0.7, flux_xi=xi)
            lev = compute_level(sys, make_state(1, m, xi), branch=branch)
            e.append(lev.energy)
        assert e[0] == pytest.approx(e[1], rel=1e-14)
        assert e[1] == pytest.approx(e[2], rel=1e-14)


def test_landau_energy_values():
    assert landau_energy(0, 1.0, 1.0) == 1.5
    assert landau_energy(2, 3.0, 2.0) == 11.0
    with pytest.raises(ValueError):
        landau_energy(-1, 1.0, 1.0)
    with pytest.raises(ValueError):
        landau_energy(0, 1.0, -0.5)


def test_landau_matches_quantization_map_exactly():
    # nu~^2 = 2E - omega m' must satisfy the quantization condition with
    # beta~ = m', gamma~ = omega/2, i.e. 2E - omega m' = (2n+1+m') omega.
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(0, 5))
        mp_ = float(rng.integers(1, 5))
        om = float(rng.uniform(0.1, 3.0))
        e = landau_energy(n, mp_, om)
        lhs = 2.0 * e - om * mp_
        rhs = 2.0 * (2 * n + 1 + mp_) * (0.5 * om)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_landau_level_for_negative_m_prime():
    # beta~ = |m'|: for m' < 0 the level is (n + 1/2) omega_c, as the
    # non-relativistic formula gives at v0 = 0, and the oracle agrees.
    om = 1.3
    for half in range(-6, 7):
        if half == 0:
            continue  # beta = 0 has no bound-state problem
        m, xi = (half // 2, 0.5) if half % 2 else (half // 2, 0.0)
        sys = PhysicalSystem(v0=0.0, rho0=1.0, b_field=om, flux_xi=xi)
        for n in range(3):
            st = make_state(n, m, xi)
            assert st.m_eff == 0.5 * half
            nonrel, _ = nonrel_energy_with_fields(sys, st)
            assert landau_energy(n, st.m_eff, om) == pytest.approx(nonrel.energy, rel=1e-14)
        st = make_state(0, m, xi)
        lev = compute_level(sys, st, branch=FREE_FIELD)
        assert compute_level(sys, st, branch=NEGATIVE).energy == lev.energy
        assert verify_level(sys, st, lev) <= 1e-6


def test_field_free_limits_reject_fields():
    st = make_state(0, 1)
    for sys in (PhysicalSystem(v0=1.0, b_field=0.5), PhysicalSystem(v0=1.0, flux_xi=0.5)):
        with pytest.raises(ValueError):
            ho_params(sys, st)
        for limit in ("kg-ho", "nonrel-ho"):
            with pytest.raises(ValueError):
                compute_level(sys, st, limit=limit)
    with pytest.raises(ValueError):
        nonrel_pho_energy(PhysicalSystem(v0=1.0, b_field=0.5), st)
    with pytest.raises(ValueError):
        compute_level(PhysicalSystem(v0=1.0, b_field=0.5), st, limit="nonrel-pho")


def test_nonrel_energy_with_fields_example():
    sys = PhysicalSystem(v0=1.0, rho0=1.0, b_field=2.0)
    lev, par = nonrel_energy_with_fields(sys, make_state(0, 1))
    assert par.Omega == pytest.approx(math.sqrt(12.0), rel=1e-15)
    assert par.m_tilde == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert lev.energy == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-14)
    # derived-constant identities
    assert par.Omega == pytest.approx(math.hypot(sys.omega_c, 2 * par.omega_D), rel=1e-15)
    assert par.a == pytest.approx(par.k_F * sys.rho0, rel=1e-15)


def test_nonrel_reduces_to_field_free_form():
    sys = PhysicalSystem(v0=1.3, rho0=0.9, b_field=0.0)
    st = make_state(2, 1)
    lev, _ = nonrel_energy_with_fields(sys, st)
    assert lev.energy == pytest.approx(nonrel_pho_energy(sys, st).energy, rel=1e-14)


def test_nonrel_reduces_to_landau():
    sys = PhysicalSystem(v0=0.0, rho0=1.0, b_field=1.7)
    st = make_state(1, 2)
    lev, _ = nonrel_energy_with_fields(sys, st)
    assert lev.energy == pytest.approx(landau_energy(1, 2.0, 1.7), rel=1e-14)


def test_nonrel_degenerate():
    with pytest.raises(DegenerateProblemError):
        nonrel_energy_with_fields(PhysicalSystem(v0=0.0, b_field=0.0), make_state(0, 1))


def test_kg_pho_matches_full_solver():
    sys = PhysicalSystem(v0=1.0, rho0=1.0)
    lev = kg_pho_energy(sys, make_state(0, 1))
    assert lev.energy == pytest.approx(GOLDEN_KG_LEVEL, rel=1e-12)
    for n, m in [(0, 0), (1, 2), (3, 1)]:
        st = make_state(n, m)
        a = kg_pho_energy(sys, st).energy
        b = compute_level(sys, st, branch=POSITIVE).energy
        assert a == pytest.approx(b, rel=1e-12)


def test_kg_pho_requires_field_free():
    with pytest.raises(ValueError):
        kg_pho_energy(PhysicalSystem(v0=1.0, b_field=1.0), make_state(0, 1))
    with pytest.raises(ValueError):
        kg_pho_energy(PhysicalSystem(v0=0.0), make_state(0, 1))


def test_nonrel_pho_values():
    sys = PhysicalSystem(v0=1.0, rho0=1.0)
    assert nonrel_pho_energy(sys, make_state(0, 0)).energy == pytest.approx(
        math.sqrt(2.0), rel=1e-14
    )
    assert nonrel_pho_energy(sys, make_state(1, 0)).energy == pytest.approx(
        3.0 * math.sqrt(2.0), rel=1e-14
    )


def test_nonrel_pho_constant_spacing():
    sys = PhysicalSystem(v0=1.4, rho0=0.8)
    spacing = 2.0 * math.sqrt(2.0 * sys.v0) / sys.rho0
    e = [nonrel_pho_energy(sys, make_state(n, 1)).energy for n in range(5)]
    for a, b in zip(e, e[1:]):
        assert b - a == pytest.approx(spacing, rel=1e-13)


def test_ho_params_fields():
    sys = PhysicalSystem(v0=1.0, rho0=1.0)
    hp = ho_params(sys, make_state(1, 2))
    assert hp.k == 2.0
    assert hp.n_prime == 1 + 2 + 2
    assert hp.omega_Dp == math.sqrt(2.0)
    assert hp.T == pytest.approx(
        27 * 2.0 * 25 - 8 + 3 * 5 * math.sqrt(3 * 2.0 * (27 * 2.0 * 25 - 16)), rel=1e-15
    )


def test_kg_ho_golden_and_cardano():
    sys = PhysicalSystem(v0=1.0, rho0=1.0)  # k = 2
    lev = kg_ho_energy(sys, make_state(0, 0))  # n' = 1
    assert lev.energy == pytest.approx(GOLDEN_KG_HO, rel=1e-13)
    assert abs(lev.residual) <= 1e-12
    assert kg_ho_closed_form(2.0, 1) == pytest.approx(GOLDEN_KG_HO, rel=1e-13)


def test_kg_ho_paper_printed_coefficient_fails_back_substitution():
    # The published T^(-1/3) coefficient does not satisfy the cubic; the
    # re-derived coefficient 4 does.
    e_paper = kg_ho_closed_form(2.0, 1, paper_printed=True)
    assert e_paper == pytest.approx(1.9083144799740612, rel=1e-12)
    residual = math.sqrt(e_paper + 1.0) * (e_paper - 1.0) - math.sqrt(4.0)
    assert residual == pytest.approx(-0.4509803736745577, rel=1e-10)
    assert abs(residual) > 0.1

    e_fixed = kg_ho_closed_form(2.0, 1)
    residual_fixed = math.sqrt(e_fixed + 1.0) * (e_fixed - 1.0) - math.sqrt(4.0)
    assert abs(residual_fixed) <= 1e-9


def test_kg_ho_cardano_bisection_agreement_random():
    rng = np.random.default_rng(31)
    done = 0
    while done < 100:
        k = float(rng.uniform(0.05, 10.0))
        n_prime = int(rng.integers(1, 12))
        if 27.0 * k * n_prime**2 < 16.0:
            continue
        v0 = k / 2.0  # rho0 = 1
        n = (n_prime - 1) // 2
        m = n_prime - 1 - 2 * n
        sys = PhysicalSystem(v0=v0, rho0=1.0)
        lev = kg_ho_energy(sys, make_state(n, m))
        closed = kg_ho_closed_form(k, n_prime)
        assert closed == pytest.approx(lev.energy, rel=1e-12)
        done += 1


def test_kg_ho_discriminant_regime_warns_and_falls_back():
    # 27 k n'^2 < 16 e.g. k = 0.1, n' = 1
    sys = PhysicalSystem(v0=0.05, rho0=1.0)
    with pytest.warns(UserWarning, match="< 16"):
        lev = kg_ho_energy(sys, make_state(0, 0))
    assert abs(lev.residual) <= 1e-12
    with pytest.raises(ValueError):
        kg_ho_closed_form(0.1, 1)


def test_kg_ho_series_values():
    sys = PhysicalSystem(v0=0.5, rho0=1.0)  # k = 1
    assert kg_ho_series(sys, 0.0, 1) == 0.0
    assert kg_ho_series(sys, 0.0, 3) == 0.0
    assert kg_ho_series(sys, 0.1, 1) == pytest.approx(0.1, rel=1e-15)
    assert kg_ho_series(sys, 0.1, 3) == pytest.approx(0.10246875, rel=1e-14)
    with pytest.raises(ValueError):
        kg_ho_series(sys, 0.1, 4)


def test_kg_ho_series_order3_beats_order1():
    sys = PhysicalSystem(v0=0.5, rho0=1.0)  # k = 1
    for lam2 in np.linspace(0.02, 0.3, 8):
        exact = math.sqrt(2.0 + lam2) * lam2 / math.sqrt(2.0)
        e1 = abs(exact - kg_ho_series(sys, lam2, 1))
        e3 = abs(exact - kg_ho_series(sys, lam2, 3))
        assert e3 < e1


def test_nonrel_ho_values():
    sys = PhysicalSystem(v0=1.0, rho0=1.0)  # k = 2
    assert nonrel_ho_energy(sys, make_state(0, 0)).energy == pytest.approx(
        math.sqrt(2.0), rel=1e-15
    )
    assert nonrel_ho_energy(sys, make_state(1, 1)).energy == pytest.approx(
        4.0 * math.sqrt(2.0), rel=1e-15
    )


def test_nonrel_ho_equals_first_order_series_inversion():
    # Inverting the order-1 expansion gives lambda_2 = n' sqrt(k), exactly
    # the non-relativistic formula.
    sys = PhysicalSystem(v0=1.0, rho0=1.0)
    hp = ho_params(sys, make_state(2, 1))
    lam2 = hp.n_prime * math.sqrt(hp.k)
    assert kg_ho_series(sys, lam2, 1) == pytest.approx(hp.n_prime, rel=1e-15)
    assert nonrel_ho_energy(sys, make_state(2, 1)).energy == lam2


def test_kg_ho_nonrelativistic_limit_scaling():
    # E_kg - 1 approaches n' sqrt(k) as k -> 0, with relative deviation
    # shrinking like lambda_2 ~ sqrt(k) (about lambda_2 / 4).
    ratios = []
    for v0 in (5e-3, 5e-5):  # k = 2 v0 at rho0 = 1
        sys = PhysicalSystem(v0=v0, rho0=1.0)
        st = make_state(1, 0)
        with pytest.warns(UserWarning, match="< 16"):
            kg = kg_ho_energy(sys, st).energy - 1.0
        nr = nonrel_ho_energy(sys, st).energy
        ratios.append(abs(kg - nr) / nr)
    assert ratios[0] < 0.1
    assert ratios[1] == pytest.approx(ratios[0] * 0.1, rel=0.2)


def test_compute_level_free_field_routing():
    # A negative-branch request at v0 = 0 is the free-field case.
    sys = PhysicalSystem(v0=0.0, rho0=1.0, b_field=1.0)
    lev = compute_level(sys, make_state(0, 1), branch=NEGATIVE)
    assert lev.branch == FREE_FIELD
    assert lev.energy == 1.5
    assert lev.residual == pytest.approx(0.0, abs=1e-14)


def test_sweep_splitting_changes_with_field():
    states = [make_state(0, 0), make_state(0, 1)]
    rows = sweep_levels(
        PhysicalSystem(v0=1.0, rho0=1.0), "b_field", (0.0, 1.0, 2), states
    )
    deltas = [r.delta_e for r in rows if r.delta_e is not None]
    assert len(deltas) == 2
    assert abs(deltas[1] - deltas[0]) > 1e-6


def test_sweep_flux_shift_invariance():
    states = [make_state(0, 0), make_state(0, 2)]
    rows = sweep_levels(
        PhysicalSystem(v0=1.0, rho0=1.0), "flux_xi", (0.0, 2.0, 2), states
    )
    by_key = {(round(r.value, 9), r.state.m): r.level.energy for r in rows}
    assert by_key[(2.0, 0)] == pytest.approx(by_key[(0.0, 2)], rel=1e-14)


def test_sweep_degenerate_endpoints_duplicate_rows():
    states = [make_state(0, 1)]
    rows = sweep_levels(
        PhysicalSystem(v0=1.0, rho0=1.0), "v0", (0.7, 0.7, 2), states
    )
    assert len(rows) == 2
    assert rows[0].level.energy == rows[1].level.energy


def test_sweep_flags_failed_points():
    # v0 = 0 grid point on the positive branch with m = 0 has no bound state.
    states = [make_state(0, 0), make_state(0, 1)]
    rows = sweep_levels(
        PhysicalSystem(v0=1.0, rho0=1.0, b_field=1.0), "v0", (0.0, 1.0, 2), states
    )
    flagged = [r for r in rows if r.status != "ok"]
    assert len(flagged) == 1
    assert flagged[0].value == 0.0 and flagged[0].state.m == 0
    assert all(r.level is not None for r in rows if r.status == "ok")
