"""Every level the library returns satisfies its own row of the branch table."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgpho.model import (
    BRANCHES,
    FREE_FIELD,
    NEGATIVE,
    POSITIVE,
    DegenerateProblemError,
    PhysicalSystem,
    make_state,
    radial_problem,
    spectral_params,
)
from kgpho.spectra import compute_level, quantization_residual

REQUESTS = [(POSITIVE, None), (NEGATIVE, None), (FREE_FIELD, None)] + [
    (POSITIVE, limit) for limit in ("nonrel", "nonrel-pho", "kg-pho", "kg-ho", "nonrel-ho")
]
FIELD_FREE_LIMITS = ("nonrel-pho", "kg-pho", "kg-ho", "nonrel-ho")

systems = st.builds(
    PhysicalSystem,
    v0=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
    rho0=st.floats(0.3, 3.0),
    b_field=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    flux_xi=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
)


@pytest.mark.filterwarnings("ignore:27 k n:UserWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sys=systems, n=st.integers(0, 4), m=st.integers(-3, 3), request=st.sampled_from(REQUESTS))
def test_every_level_satisfies_its_table_row(sys, n, m, request):
    branch, limit = request
    if limit in FIELD_FREE_LIMITS:
        # These reductions reject fields (and need a well) by design.
        assume(sys.v0 > 0.0 and sys.b_field == 0.0)
        assume(limit == "nonrel-pho" or sys.flux_xi == 0.0)
    state = make_state(n, m, sys.flux_xi)
    try:
        level = compute_level(sys, state, branch=branch, limit=limit)
    except (DegenerateProblemError, LookupError):
        return
    p = spectral_params(sys, level.energy, state, level.branch)
    if not p.bound_state:
        # Only the exactly degenerate rows: beta = |m'| = 0 or gamma = 0.
        assert p.beta2 == 0.0 or p.gamma2 == 0.0
        return
    residual = quantization_residual(p, n)
    assert abs(residual) <= 1e-9 * max(1.0, abs(p.nu2))


def test_table_covers_every_branch_and_rejects_others():
    sys = PhysicalSystem(v0=1.0, rho0=1.0)
    state = make_state(0, 1)
    assert len(BRANCHES) == 8
    for branch in BRANCHES:
        assert len(radial_problem(sys, state, branch)(2.0)) == 3
    with pytest.raises(ValueError):
        radial_problem(sys, state, "tachyon")
