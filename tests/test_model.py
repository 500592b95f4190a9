import math

import numpy as np
import pytest

from kgpho.model import (
    NEGATIVE,
    POSITIVE,
    PhysicalSystem,
    QuantumState,
    effective_quantum_number,
    make_state,
    spectral_params,
)


def test_effective_quantum_number_values():
    assert effective_quantum_number(0, 1.0) == 1.0
    assert effective_quantum_number(2, 0.0) == 2.0
    assert effective_quantum_number(-1, 3.0) == 2.0


def test_effective_quantum_number_strict_warnings():
    with pytest.warns(UserWarning) as rec:
        effective_quantum_number(1, 0.5, strict=True)
    assert any("integer flux" in str(w.message) for w in rec)
    with pytest.warns(UserWarning, match="m' = 1, 2"):
        effective_quantum_number(0, 0.0, strict=True)
    # valid paper regime: no warning
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert effective_quantum_number(0, 1.0, strict=True) == 1.0


def test_physical_system_validation():
    with pytest.raises(ValueError):
        PhysicalSystem(rho0=0.0)
    with pytest.raises(ValueError):
        PhysicalSystem(v0=-0.1)
    with pytest.raises(ValueError):
        PhysicalSystem(b_field=-1.0)
    with pytest.raises(ValueError):
        PhysicalSystem(v0=math.inf)
    # Natural units fix the mass and the charge; neither is a field.
    with pytest.raises(TypeError):
        PhysicalSystem(mass=2.0)


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"b_field": 1e300}, "b_field"),  # (omega_c/2)^2 overflows
        ({"rho0": 1e-300}, "rho0"),  # rho0^2 underflows to 0
        ({"rho0": 1e200}, "rho0"),  # rho0^2 overflows
        ({"v0": 1e307, "rho0": 100.0}, "v0"),  # rho0^2 v0 overflows
        ({"v0": 1e300, "rho0": 1e-10}, "v0"),  # v0 / rho0^2 overflows
        ({"v0": 1.0, "rho0": 1e-160}, "rho0"),  # v0 / rho0^2 overflows
    ],
)
def test_physical_system_rejects_constants_outside_float_range(fields, name):
    with pytest.raises(ValueError) as info:
        PhysicalSystem(**fields)
    assert str(info.value).split()[0] == name


def test_physical_system_accepts_extreme_values_within_float_range():
    # Every folded constant is finite here, and rho0^2 is nonzero.
    PhysicalSystem(b_field=1e150)
    PhysicalSystem(v0=1e-300, rho0=1e-160)
    PhysicalSystem(v0=0.0, rho0=1e-160, b_field=1.0)
    PhysicalSystem(v0=1e300, rho0=1.0)


def test_quantum_state_validation():
    with pytest.raises(ValueError):
        QuantumState(n=-1, m=0, m_eff=0.0)
    with pytest.raises(ValueError):
        QuantumState(n=0, m=0.5, m_eff=0.5)
    st = make_state(1, -2, 3.0)
    assert st.m_eff == 1.0


def test_spectral_params_hand_example():
    # v0=1, rho0=1, omega_c=2, E=1, m'=1: lambda_1=2, lambda_2=0
    sys = PhysicalSystem(v0=1.0, rho0=1.0, b_field=2.0)
    p = spectral_params(sys, 1.0, make_state(0, 1), POSITIVE)
    assert p.nu2 == pytest.approx(2.0, abs=1e-15)
    assert p.beta2 == pytest.approx(3.0, abs=1e-15)
    assert p.gamma2 == pytest.approx(3.0, abs=1e-15)
    assert p.bound_state


def test_spectral_params_zero_well_collapses_exactly():
    # v0=0 forces beta = |m'| and gamma = omega_c/2, exactly, on both branches.
    sys = PhysicalSystem(v0=0.0, rho0=0.7, b_field=1.0)
    st = make_state(0, 2)
    for branch, energy in ((POSITIVE, 0.3), (NEGATIVE, -4.2)):
        p = spectral_params(sys, energy, st, branch)
        assert p.beta2 == 4.0
        assert p.gamma2 == 0.25


def test_spectral_params_degenerate_flagged_not_fatal():
    # E = Mc^2 on the negative branch: lambda_2 = 0 makes gamma~^2 = 0.
    sys = PhysicalSystem(v0=1.0, rho0=1.0, b_field=0.0)
    p = spectral_params(sys, 1.0, make_state(0, 1), NEGATIVE)
    assert p.nu2 == 0.0
    assert p.beta2 == 1.0
    assert p.gamma2 == 0.0
    assert not p.bound_state


def test_spectral_params_positive_branch_energy_floor():
    sys = PhysicalSystem()
    with pytest.raises(ValueError):
        spectral_params(sys, -1.0, make_state(0, 1), POSITIVE)
    # the negative branch has no such floor
    spectral_params(sys, -5.0, make_state(0, 1), NEGATIVE)


def test_branch_swap_lambda_identity_and_zero_well_coincidence():
    # lambda_1(-E) = -lambda_2(E) exactly; with v0 = 0 the triples coincide
    # field-by-field under E -> -E plus branch swap.
    rng = np.random.default_rng(5)
    sys = PhysicalSystem(v0=0.0, rho0=1.3, b_field=0.8)
    st = make_state(1, 2)
    for _ in range(50):
        e = float(rng.uniform(-0.9, 5.0))
        assert (-e) + 1.0 == -(e - 1.0)
        p = spectral_params(sys, e, st, POSITIVE)
        q = spectral_params(sys, -e, st, NEGATIVE)
        assert q.nu2 == pytest.approx(p.nu2, rel=1e-14, abs=1e-14)
        assert q.beta2 == p.beta2
        assert q.gamma2 == p.gamma2


def test_branch_swap_is_charge_conjugation_for_nonzero_well():
    # For v0 > 0 the E -> -E, branch-swap map matches the positive-branch
    # triple only when the well sign flips too (charge conjugation); the
    # literal same-system swap differs by exactly 4 v0 lambda_1 in nu^2.
    rng = np.random.default_rng(6)
    for _ in range(50):
        v0 = float(rng.uniform(0.1, 3.0))
        r0 = float(rng.uniform(0.4, 2.0))
        om = float(rng.uniform(0.0, 2.0))
        e = float(rng.uniform(-0.9, 4.0))
        mp_ = float(rng.integers(1, 4))
        sys = PhysicalSystem(v0=v0, rho0=r0, b_field=om)
        st = make_state(0, int(mp_))
        p = spectral_params(sys, e, st, POSITIVE)
        q = spectral_params(sys, -e, st, NEGATIVE)
        lam1 = e + 1.0
        assert q.nu2 - p.nu2 == pytest.approx(-4.0 * v0 * lam1, rel=1e-12, abs=1e-12)
        # conjugated map: negate the well in the tilded formulas
        lam2_at_minus_e = -e - 1.0
        nu2_conj = lam2_at_minus_e * ((-e + 1.0) + 2.0 * (-v0)) - om * mp_
        beta2_conj = mp_**2 + r0**2 * (-v0) * lam2_at_minus_e
        gamma2_conj = (0.5 * om) ** 2 + (-v0) * lam2_at_minus_e / r0**2
        assert nu2_conj == pytest.approx(p.nu2, rel=1e-12, abs=1e-12)
        assert beta2_conj == pytest.approx(p.beta2, rel=1e-12, abs=1e-12)
        assert gamma2_conj == pytest.approx(p.gamma2, rel=1e-12, abs=1e-12)
