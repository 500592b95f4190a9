"""kgpho: bound states of a planar relativistic spin-0 particle in a
pseudoharmonic well under uniform magnetic and solenoid flux fields.

The package computes exact energy spectra and normalized wave functions in
natural units (hbar = c = M = e = 1), covers the free-field Landau limit and
the non-relativistic / harmonic reductions, and verifies every analytic
level against an independent finite-difference eigenvalue oracle.
"""

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
    PhysicalSystem,
    QuantumState,
    SpectralParams,
    effective_quantum_number,
    make_state,
    radial_problem,
    spectral_params,
)
from .oracle import (
    OracleCheck,
    RadialGrid,
    TridiagonalOperator,
    default_grid,
    discretize,
    lowest_eigenvalues,
    oracle_check,
    refine,
    verify_level,
)
from .specfun import laguerre
from .spectra import (
    EnergyLevel,
    HoParams,
    NonRelParams,
    SweepRow,
    compute_level,
    ho_params,
    kg_ho_closed_form,
    kg_ho_energy,
    kg_ho_series,
    kg_pho_energy,
    landau_energy,
    nonrel_energy_with_fields,
    nonrel_ho_energy,
    nonrel_pho_energy,
    quantization_residual,
    solve_kg_energy,
    sweep_levels,
)
from .wavefun import (
    RadialWaveFunction,
    count_nodes,
    eval_psi,
    eval_radial,
    normalization_constant,
    radial_wavefunction,
    support_radius,
    turning_point,
)

__version__ = "0.1.0"
