"""Every level the library returns satisfies its own row of the branch table,
and reports that row's quantization residual as ``residual``."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgpho.model import (
    BRANCHES,
    FREE_FIELD,
    KG_HO,
    KG_PHO,
    NEGATIVE,
    NONREL_HO,
    NONREL_PHO,
    POSITIVE,
    DegenerateProblemError,
    PhysicalSystem,
    make_state,
    radial_problem,
    radial_slopes,
    spectral_params,
)
from kgpho.spectra import compute_level, quantization_residual

FIELD_FREE_LIMITS = (NONREL_PHO, KG_PHO, KG_HO, NONREL_HO)

systems = st.builds(
    PhysicalSystem,
    v0=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
    rho0=st.floats(0.3, 3.0),
    b_field=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    flux_xi=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
)


@pytest.mark.filterwarnings("ignore:27 k n:UserWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sys=systems, n=st.integers(0, 4), m=st.integers(-3, 3), branch=st.sampled_from(BRANCHES))
def test_every_level_satisfies_its_table_row(sys, n, m, branch):
    if branch in FIELD_FREE_LIMITS:
        # These reductions reject fields (and need a well) by design.
        assume(sys.v0 > 0.0 and sys.b_field == 0.0)
        assume(branch == NONREL_PHO or sys.flux_xi == 0.0)
    state = make_state(n, m, sys.flux_xi)
    try:
        level = compute_level(sys, state, branch=branch)
    except (DegenerateProblemError, LookupError):
        return
    p = spectral_params(sys, level.energy, state, level.branch)
    if not p.bound_state:
        # Only the exactly degenerate rows: beta = |m'| = 0 or gamma = 0.
        assert p.beta2 == 0.0 or p.gamma2 == 0.0
        return
    residual = quantization_residual(p, n)
    assert abs(residual) <= 1e-9 * max(1.0, abs(p.nu2))
    assert level.residual == residual


def test_table_covers_every_branch_and_rejects_others():
    sys = PhysicalSystem(v0=1.0, rho0=1.0)
    state = make_state(0, 1)
    assert len(BRANCHES) == 8
    for branch in BRANCHES:
        assert len(radial_problem(sys, state, branch)(2.0)) == 3
    with pytest.raises(ValueError):
        radial_problem(sys, state, "tachyon")


def test_klein_gordon_slopes_match_their_rows():
    # nu^2 is quadratic and beta^2, gamma^2 are affine in E, so a central
    # difference of the row is its slope up to rounding.
    sys = PhysicalSystem(v0=0.7, rho0=1.3, b_field=0.4, flux_xi=0.2)
    state = make_state(1, 2, sys.flux_xi)
    h = 1e-3
    for branch in (POSITIVE, NEGATIVE, KG_PHO):
        triple, slopes = radial_problem(sys, state, branch), radial_slopes(sys, state, branch)
        for e in (-0.5, 1.5, 4.0):
            below, above = triple(e - h), triple(e + h)
            expect = [(a - b) / (2.0 * h) for a, b in zip(above, below)]
            assert slopes(e) == pytest.approx(expect, rel=1e-9)
    for branch in (FREE_FIELD, KG_HO, "tachyon"):
        with pytest.raises(ValueError):
            radial_slopes(sys, state, branch)
