import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from kgpho.model import FREE_FIELD, PhysicalSystem, make_state
from kgpho.oracle import (
    RadialGrid,
    default_grid,
    discretize,
    lowest_eigenvalues,
    oracle_check,
    refine,
    verify_level,
)
from kgpho.spectra import EnergyLevel, compute_level, landau_energy


def test_grid_validation_and_spacing():
    with pytest.raises(ValueError):
        RadialGrid(0.0, 500)
    with pytest.raises(ValueError):
        RadialGrid(10.0, 99)
    with pytest.raises(ValueError):
        RadialGrid(math.inf, 500)
    g = RadialGrid(12.0, 4000)
    assert g.h == 12.0 / 4000
    assert g.points.shape == (4000,)
    assert g.points[0] == 0.0
    assert g.points[-1] == pytest.approx(12.0 - g.h)


def test_refine_halves_spacing_exactly():
    g = RadialGrid(8.0, 4000)
    g2 = refine(g)
    assert g2.n_points == 8000
    assert g2.h == g.h / 2.0


def test_discretize_structure():
    beta, gamma = 1.3, 0.8
    g = RadialGrid(12.0, 500)
    op = discretize(beta, gamma, g)
    h, a = g.h, 2.0 * beta + 2.0
    face = h * (np.arange(500) + 0.5)
    inner = np.concatenate(([0.0], face[:-1]))
    weight = (face**a - inner**a) / a  # cell integrals of r^(2 beta + 1)
    assert np.allclose(
        op.offdiag, -face[:-1] ** (a - 1.0) / (h * np.sqrt(weight[:-1] * weight[1:])), rtol=1e-12
    )
    # A constant u carries no flux through the inner faces, so the unscaled
    # matrix W^(1/2) M W^(1/2) maps it to gamma^2 r^2 W on every row but the
    # last, whose outer face is the Dirichlet wall.
    root_w = np.sqrt(weight)
    m_root_w = op.diag * root_w
    m_root_w[:-1] += op.offdiag * root_w[1:]
    m_root_w[1:] += op.offdiag * root_w[:-1]
    row_over_w = m_root_w / root_w
    # cancelling terms of size 1/h^2 leave rounding below 1e-12 / h^2
    assert np.allclose(row_over_w[:-1], (gamma * g.points[:-1]) ** 2, rtol=0.0, atol=1e-12 / g.h**2)
    assert row_over_w[-1] > (gamma * g.points[-1]) ** 2 + 1.0 / g.h**2


def test_discretize_holds_weights_as_logs():
    # At beta = 60 the first cell weight of the refined grid, about
    # (h/4)^(2 beta + 2), underflows to 0; the matrix needs only ratios of
    # weights, which stay finite, and the level comes out right.
    beta, gamma = 60.0, 100.0
    grid = default_grid(beta, gamma, 1)
    assert (grid.h / 4.0) ** (2.0 * beta + 2.0) == 0.0
    ops = [discretize(beta, gamma, g) for g in (grid, refine(grid))]
    assert all(np.all(np.isfinite(op.diag)) and np.all(np.isfinite(op.offdiag)) for op in ops)
    coarse, fine = (lowest_eigenvalues(op, 1)[0] for op in ops)
    expect = 2.0 * (1.0 + beta) * gamma
    assert abs((4.0 * fine - coarse) / 3.0 - expect) / expect <= 1e-8


def test_discretize_domain_and_coarseness_warning():
    g = RadialGrid(12.0, 500)
    with pytest.raises(ValueError):
        discretize(0.0, 1.0, g)
    with pytest.raises(ValueError):
        discretize(1.0, -1.0, g)
    with pytest.warns(UserWarning, match="too coarse"):
        discretize(1.0, 5.0, RadialGrid(40.0, 120))


@pytest.mark.parametrize("r_max", [1e300, 1e155, 1e-300])
def test_discretize_box_outside_float_range(r_max):
    # h^2 gamma^2 r_max^2 overflows a float power at 1e300 and 1e155, and the
    # matrix entries overflow at all three; the error names the box, and
    # NumPy warns of nothing on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # the coarse-grid warning
        with pytest.raises(ValueError, match=re.escape(f"r_max={r_max!r}")):
            discretize(1.0, 0.5, RadialGrid(r_max, 2000))


def test_half_integer_case_odd_oscillator_levels():
    # beta = 1/2, gamma = 1 on the half line = odd 1D oscillator: nu^2 = 3, 7
    g = RadialGrid(12.0, 4000)
    w = lowest_eigenvalues(discretize(0.5, 1.0, g), 2)
    assert w[0] == pytest.approx(3.0, abs=1e-3)
    assert w[1] == pytest.approx(7.0, abs=1e-3)


def test_beta_one_levels():
    g = RadialGrid(12.0, 4000)
    w = lowest_eigenvalues(discretize(1.0, 1.0, g), 2)
    assert w[0] == pytest.approx(4.0, abs=1e-3)
    assert w[1] == pytest.approx(8.0, abs=1e-3)


def test_eigenvalues_strictly_increasing_and_deterministic():
    g = RadialGrid(10.0, 1500)
    op = discretize(1.3, 0.8, g)
    w1 = lowest_eigenvalues(op, 6)
    w2 = lowest_eigenvalues(op, 6)
    assert np.all(np.diff(w1) > 0)
    assert np.array_equal(w1, w2)


def test_lowest_eigenvalues_count_bounds():
    g = RadialGrid(6.0, 200)
    op = discretize(1.0, 1.0, g)
    with pytest.raises(ValueError):
        lowest_eigenvalues(op, 0)
    with pytest.raises(ValueError):
        lowest_eigenvalues(op, 201)
    # first selects a window of the same eigenvalues
    assert np.allclose(lowest_eigenvalues(op, 3, first=1), lowest_eigenvalues(op, 3)[1:],
                       rtol=1e-15, atol=0.0)


def test_second_order_convergence_ratio_smooth_case():
    # the beta = 1/2 problem has a smooth eigenfunction: clean h^2 error
    exact = np.array([3.0, 7.0, 11.0])
    grid = default_grid(0.5, 1.0, 3, n_points=4000)
    e1 = lowest_eigenvalues(discretize(0.5, 1.0, grid), 3) - exact
    e2 = lowest_eigenvalues(discretize(0.5, 1.0, refine(grid)), 3) - exact
    ratio = e1 / e2
    assert np.all(ratio > 3.6) and np.all(ratio < 4.4)


def test_oracle_matches_quantization_rule_random():
    rng = np.random.default_rng(41)
    for _ in range(5):
        beta = float(rng.uniform(0.5, 5.0))
        gamma = float(rng.uniform(0.2, 5.0))
        grid = default_grid(beta, gamma, 4)
        coarse = lowest_eigenvalues(discretize(beta, gamma, grid), 4)
        fine = lowest_eigenvalues(discretize(beta, gamma, refine(grid)), 4)
        rich = (4.0 * fine - coarse) / 3.0
        for k in range(4):
            expect = 2.0 * (2 * k + 1 + beta) * gamma
            assert abs(rich[k] - expect) / expect <= 1e-6


def test_discrete_mode_node_count():
    # Sturm oscillation: the k-th discrete eigenvector changes sign k times.
    beta, gamma = 1.7, 1.1
    grid = default_grid(beta, gamma, 4, n_points=2000)
    op = discretize(beta, gamma, grid)
    w, v = eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, 3))
    for k in range(4):
        vec = v[:, k]
        vec = vec[np.abs(vec) > 1e-9 * np.max(np.abs(vec))]
        flips = np.count_nonzero(np.sign(vec[:-1]) != np.sign(vec[1:]))
        assert flips == k


def test_verify_level_landau():
    sys = PhysicalSystem(v0=0.0, rho0=1.0, b_field=1.0)
    st = make_state(0, 1)
    lev = compute_level(sys, st, branch="free_field")
    dev = verify_level(sys, st, lev)
    assert dev <= 1e-6
    assert lev.oracle_dev == dev


def test_verify_level_upholds_golden_level():
    sys = PhysicalSystem(v0=1.0, rho0=1.0)
    st = make_state(0, 1)
    lev = compute_level(sys, st)
    assert verify_level(sys, st, lev) <= 1e-5


def test_verify_level_rejects_corrupted_energy():
    sys = PhysicalSystem(v0=1.0, rho0=1.0)
    st = make_state(0, 1)
    lev = compute_level(sys, st)
    corrupted = EnergyLevel(
        energy=lev.energy + 0.1, branch=lev.branch, state=st, residual=0.0
    )
    with pytest.warns(UserWarning, match="exceeds tolerance"):
        dev = verify_level(sys, st, corrupted, tol=1e-5)
    assert dev > 1e-3


def test_verify_level_negative_branch():
    sys = PhysicalSystem(v0=1.0, rho0=1.0, b_field=1.0)
    st = make_state(0, 2)
    lev = compute_level(sys, st, branch="negative")
    assert verify_level(sys, st, lev) <= 1e-5


def test_verify_level_special_case_branches():
    st = make_state(1, 1)
    sys = PhysicalSystem(v0=1.0, rho0=1.0, b_field=1.5)
    lev = compute_level(sys, st, limit="nonrel")
    assert verify_level(sys, st, lev) <= 1e-6

    fsys = PhysicalSystem(v0=1.0, rho0=1.0)
    for limit in ("kg-pho", "kg-ho", "nonrel-ho"):
        lev = compute_level(fsys, st, limit=limit)
        assert verify_level(fsys, st, lev) <= 1e-5


def test_oracle_check_reports_ratio_near_four():
    sys = PhysicalSystem(v0=1.0, rho0=1.0)
    st = make_state(0, 1)
    lev = compute_level(sys, st)
    check = oracle_check(sys, st, lev)
    assert check.deviation <= 1e-6
    assert 3.5 < check.convergence_ratio < 4.5
    assert check.nu2_analytic == pytest.approx((lev.energy + 1.0) ** 2, rel=1e-12)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(beta=_log_uniform(0.005, 20.0), gamma=_log_uniform(0.01, 100.0), n=st.integers(0, 10))
def test_default_grid_checks_every_beta(beta, gamma, n):
    # The free-field row is (nu^2, beta, gamma) = ((2n + 1 + m') omega_c, |m'|,
    # omega_c / 2), so m' = beta and omega_c = 2 gamma give any exact level.
    sys = PhysicalSystem(v0=0.0, rho0=1.0, b_field=2.0 * gamma, flux_xi=beta)
    state = make_state(n, 0, beta)
    check = oracle_check(sys, state, compute_level(sys, state, branch=FREE_FIELD))
    assert check.deviation <= 1e-8
    if beta >= 0.05:
        assert 3.6 <= check.convergence_ratio <= 4.4


def test_high_level_deviation():
    for beta in (0.005, 1.0, 20.0):
        sys = PhysicalSystem(v0=0.0, rho0=1.0, b_field=2.0, flux_xi=beta)
        state = make_state(40, 0, beta)
        check = oracle_check(sys, state, compute_level(sys, state, branch=FREE_FIELD))
        assert check.deviation <= 1e-7


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(beta=_log_uniform(0.05, 20.0), gamma=_log_uniform(0.01, 100.0), n=st.integers(0, 15))
def test_oracle_check_computes_only_eigenvalue_n(beta, gamma, n):
    # Selecting index n alone gives the n-th of the n + 1 lowest eigenvalues,
    # to the last bits, and those are the values the check extrapolates.
    sys = PhysicalSystem(v0=0.0, rho0=1.0, b_field=2.0 * gamma, flux_xi=beta)
    state = make_state(n, 0, beta)
    check = oracle_check(sys, state, compute_level(sys, state, branch=FREE_FIELD))
    grid = default_grid(beta, gamma, n + 1)
    for g, used in ((grid, check.nu2_coarse), (refine(grid), check.nu2_fine)):
        op = discretize(beta, gamma, g)
        alone = lowest_eigenvalues(op, n + 1, first=n)
        assert alone.shape == (1,)
        full = lowest_eigenvalues(op, n + 1)[n]
        assert abs(alone[0] - full) <= 1e-15 * abs(full)
        assert used == alone[0]
        for first in (-1, n + 1):
            with pytest.raises(ValueError):
                lowest_eigenvalues(op, n + 1, first=first)


def test_default_grid_grows_with_the_level():
    assert default_grid(1.0, 1.0, 1).n_points == 2000
    assert default_grid(1.0, 1.0, 201).n_points == 6000
    assert default_grid(1.0, 1.0, 201, n_points=500).n_points == 500


def test_level_200_keeps_the_floor():
    # A flat 2,000-point grid leaves this level unresolved: it warns and its
    # deviation is 9.0e-6; the grid that grows with n gives 2.2e-6.
    sys = PhysicalSystem(v0=0.0, rho0=1.0, b_field=1.0)  # beta = 1, gamma = 0.5
    state = make_state(200, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = oracle_check(sys, state, compute_level(sys, state, branch=FREE_FIELD))
    assert check.deviation <= 5e-6


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(beta=_log_uniform(0.05, 20.0), gamma=_log_uniform(0.01, 100.0), n=st.integers(0, 300))
@example(beta=20.0, gamma=100.0, n=300)
@example(beta=20.0, gamma=0.01, n=300)
def test_default_grid_resolves_levels_up_to_300(beta, gamma, n):
    # h^2 gamma^2 r_max^2 = ((4n + 2 + 2 beta + 40) / n_points)^2 whatever gamma.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        discretize(beta, gamma, default_grid(beta, gamma, n + 1))
