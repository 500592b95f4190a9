"""kgpho: bound states of a planar relativistic spin-0 particle in a
pseudoharmonic well under uniform magnetic and solenoid flux fields.

The package computes exact energy spectra and normalized wave functions in
natural units (hbar = c = M = e = 1), covers the free-field Landau limit and
the non-relativistic / harmonic reductions, and verifies every analytic
level against an independent finite-difference eigenvalue oracle.

Import names from the modules that define them: ``kgpho.model``,
``kgpho.spectra``, ``kgpho.oracle`` and ``kgpho.wavefun``.
"""

__version__ = "0.1.0"
