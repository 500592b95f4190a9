import math

import numpy as np
import pytest
from scipy.integrate import quad

from kgpho.model import PhysicalSystem, make_state, spectral_params
from kgpho.spectra import compute_level
from kgpho.wavefun import (
    RadialWaveFunction,
    count_nodes,
    eval_psi,
    eval_radial,
    normalization_constant,
    radial_wavefunction,
    support_radius,
    turning_point,
)


def radial_norm(w):
    """Quadrature of g^2 r dr in the s = gamma r^2 variable."""

    def integrand(s):
        r = math.sqrt(s / w.gamma)
        return eval_radial(w, r) ** 2 / (2.0 * w.gamma)

    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-11, epsrel=1e-11, limit=300)
    return val


def test_normalization_constant_values():
    assert normalization_constant(0, 1.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert normalization_constant(0, 1.0, 4.0) == pytest.approx(math.sqrt(32.0), rel=1e-14)


def test_normalization_scaling_law():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(0, 6))
        beta = float(rng.uniform(0.2, 5.0))
        gamma = float(rng.uniform(0.2, 8.0))
        ratio = normalization_constant(n, beta, gamma) / normalization_constant(n, beta, 1.0)
        assert ratio == pytest.approx(gamma ** ((beta + 1.0) / 2.0), rel=1e-13)


def test_normalization_domain():
    for bad in [(-1, 1.0, 1.0), (0, 0.0, 1.0), (0, 1.0, 0.0), (0, -2.0, 1.0)]:
        with pytest.raises(ValueError):
            normalization_constant(*bad)


def test_eval_radial_boundary_and_value():
    w = radial_wavefunction(0, 1.0, 1.0)
    assert eval_radial(w, 0.0) == 0.0
    assert eval_radial(w, 1.0) == pytest.approx(math.sqrt(2.0) * math.exp(-0.5), rel=1e-13)


def test_eval_radial_gaussian_tail():
    for beta, gamma in [(1.0, 1.0), (0.5, 2.0)]:
        w = radial_wavefunction(0, beta, gamma)
        r_edge = math.sqrt((beta + 50.0) / gamma)
        for r in np.linspace(r_edge * 1.0000001, 2.0 * r_edge, 7):
            assert abs(eval_radial(w, float(r))) < 1e-10


def test_eval_radial_rejects_bad_r():
    w = radial_wavefunction(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        eval_radial(w, -0.1)
    with pytest.raises(ValueError):
        eval_radial(w, math.inf)


def test_eval_psi_properties():
    w = radial_wavefunction(1, 1.5, 0.8)
    assert eval_psi(w, 2, 0.0, 0.3) == 0.0
    # m = 0: real, independent of phi
    a = eval_psi(w, 0, 1.1, 0.0)
    b = eval_psi(w, 0, 1.1, 2.4)
    assert a.imag == 0.0
    assert a == b
    # |psi| independent of phi for any m
    v1 = abs(eval_psi(w, 3, 0.9, 0.1))
    v2 = abs(eval_psi(w, 3, 0.9, 5.0))
    assert v1 == pytest.approx(v2, rel=1e-14)
    # azimuthal factor carries unit modulus and the 1/sqrt(2 pi) weight
    assert abs(eval_psi(w, 3, 0.9, 1.7)) == pytest.approx(
        abs(eval_radial(w, 0.9)) / math.sqrt(2.0 * math.pi), rel=1e-14
    )


def test_unit_norm_random_states():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(0, 9))
        beta = float(rng.uniform(0.05, 6.0))
        gamma = float(rng.uniform(0.1, 10.0))
        w = radial_wavefunction(n, beta, gamma)
        assert radial_norm(w) == pytest.approx(1.0, abs=1e-8)


def test_orthogonality_in_n():
    for beta, gamma in [(1.0, 1.0), (2.7, 0.4), (0.6, 5.0)]:
        ws = [radial_wavefunction(n, beta, gamma) for n in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                def integrand(s):
                    r = math.sqrt(s / gamma)
                    return eval_radial(ws[i], r) * eval_radial(ws[j], r) / (2.0 * gamma)

                val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-11, epsrel=1e-11, limit=300)
                assert abs(val) <= 1e-8


def test_count_nodes_examples():
    assert count_nodes(radial_wavefunction(0, 0.7, 2.0)) == 0
    assert count_nodes(radial_wavefunction(1, 1.0, 1.0)) == 1
    assert count_nodes(radial_wavefunction(3, math.sqrt(3.0), 2.0)) == 3


def test_count_nodes_matches_n_random():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(0, 9))
        w = radial_wavefunction(n, float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.2, 8.0)))
        assert count_nodes(w) == n


def test_count_nodes_sample_floor():
    w = radial_wavefunction(2, 1.0, 1.0)
    with pytest.raises(ValueError):
        count_nodes(w, samples=100)


def test_boundary_conditions():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(0, 6))
        w = radial_wavefunction(n, float(rng.uniform(0.3, 4.0)), float(rng.uniform(0.3, 6.0)))
        assert eval_radial(w, 0.0) == 0.0
        r_grid = np.linspace(1e-3, 2.0 * turning_point(w), 800)
        g_max = np.max(np.abs(eval_radial(w, r_grid)))
        assert abs(eval_radial(w, 4.0 * turning_point(w))) < 1e-12 * g_max


def second_derivative(f, r, h):
    """Five-point central second derivative."""
    return (
        -f(r + 2 * h) + 16.0 * f(r + h) - 30.0 * f(r) + 16.0 * f(r - h) - f(r - 2 * h)
    ) / (12.0 * h * h)


def test_radial_ode_residual():
    # R = sqrt(r) g satisfies R'' + (nu^2 - gamma^2 r^2 - (beta^2 - 1/4)/r^2) R = 0
    # with nu^2 = 2 (2n + 1 + beta) gamma; this exercises the quantization
    # rule and the wave functions together.
    rng = np.random.default_rng(37)
    for _ in range(30):
        n = int(rng.integers(0, 7))
        beta = float(rng.uniform(0.3, 5.0))
        gamma = float(rng.uniform(0.2, 8.0))
        w = radial_wavefunction(n, beta, gamma)
        nu2 = 2.0 * (2 * n + 1 + beta) * gamma

        def big_r(r):
            return math.sqrt(r) * eval_radial(w, float(r))

        scale = max(nu2, gamma * gamma * turning_point(w) ** 2)
        h = 8e-3 / math.sqrt(scale)
        r_tp = turning_point(w)
        probe = np.linspace(0.45 * r_tp, 1.6 * r_tp, 9)
        g_max = max(abs(big_r(r)) for r in probe)
        for r in probe:
            rv = big_r(r)
            if abs(rv) < 0.05 * g_max:
                continue  # relative residual is ill-posed at a node
            rpp = second_derivative(big_r, float(r), h)
            potential = nu2 - gamma**2 * r**2 - (beta**2 - 0.25) / r**2
            terms = max(abs(rpp), abs(potential * rv), nu2 * abs(rv))
            assert abs(rpp + potential * rv) <= 1e-6 * terms


def case_constants(sys, st, lev):
    """(beta, gamma) of a solved level's row of the branch table."""
    p = spectral_params(sys, lev.energy, st, lev.branch)
    return p.beta, p.gamma


def test_case_constants_against_limits():
    # field-free relativistic level: exponent sqrt(m^2 + v0 r0^2 lam1),
    # width sqrt(v0 lam1)/r0
    sys = PhysicalSystem(v0=1.0, rho0=1.0)
    st = make_state(0, 1)
    lev = compute_level(sys, st)
    beta, gamma = case_constants(sys, st, lev)
    lam1 = lev.energy + 1.0
    assert beta == pytest.approx(math.sqrt(1.0 + lam1), rel=1e-14)
    assert gamma == pytest.approx(math.sqrt(lam1), rel=1e-14)

    # free-field case: (m', omega_c/2)
    fsys = PhysicalSystem(v0=0.0, rho0=1.0, b_field=2.0)
    flev = compute_level(fsys, st, branch="free_field")
    assert case_constants(fsys, st, flev) == (1.0, 1.0)

    # non-relativistic well: (sqrt(m'^2 + 2 v0 r0^2), Omega/2)
    nsys = PhysicalSystem(v0=1.0, rho0=1.0, b_field=2.0)
    nlev = compute_level(nsys, st, branch="nonrel_fields")
    b, c = case_constants(nsys, st, nlev)
    assert b == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert c == pytest.approx(math.sqrt(3.0), rel=1e-14)


def test_support_radius_captures_norm():
    w = radial_wavefunction(4, 2.0, 3.0)
    r_sup = support_radius(w.n, w.beta, w.gamma)

    def integrand(r):
        return eval_radial(w, r) ** 2 * r

    tail, _ = quad(integrand, r_sup, np.inf, epsabs=1e-14, epsrel=1e-11, limit=300)
    assert tail < 1e-12
