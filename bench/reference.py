"""Independent reference for kgpho levels and wave functions (mpmath only).

Nothing here imports kgpho.  Levels come from the bound-state condition

    f(E) = nu^2 - 2 (2n + 1 + beta) gamma = 0

with the (nu^2, beta^2, gamma^2) map of the model:

    nu^2    = lam (lam' + 2 v0) - omega_c m'
    beta^2  = m'^2 + r0^2 v0 lam
    gamma^2 = (omega_c / 2)^2 + v0 lam / r0^2

and (lam, lam') = (E + 1, E - 1) on the positive branch, (E - 1, E + 1) on
the negative one.  The domain is beta^2 > 0 and gamma^2 > 0, plus E > -1 on
the positive branch, as the model documents.

Why a few evaluations per level suffice: nu^2 is convex in lam, and
2 (2n + 1 + beta) gamma is concave (gamma is the square root of a linear
function, beta gamma the square root of a product of two, and
(sqrt q)'' = -(b (c + d x) - d (a + b x))^2 / (4 q^(3/2)) <= 0), so f is
convex on its domain and has at most two roots.  A sign change of f across
[E - tol, E + tol] proves a root within tol of E; the slope sign there says
which of the two roots it is, and one more evaluation at the mirror point
2 t - E decides whether the other root lies closer to the principal target t.

The principal target is Mc^2 plus the non-relativistic energy, the lam -> 2
limit of the same map on the positive branch:
E_nr = Omega (n + (m~ + 1)/2) + omega_c m'/2 - 2 v0, with
Omega = sqrt(omega_c^2 + 8 v0 / r0^2) and m~ = sqrt(m'^2 + 2 v0 r0^2).
Free-field (v0 = 0) rows are non-relativistic Landau levels, energy without
Mc^2: 2 E - omega_c m' = 2 (2n + 1 + |m'|) omega_c / 2.

Wave functions are g(r) = N r^beta exp(-gamma r^2/2) L_n^(beta)(gamma r^2)
with N^2 = 2 gamma^(beta+1) n! / Gamma(n + beta + 1), whose radial norm
integral_0^inf g^2 r dr is exactly one.
"""

from __future__ import annotations

import mpmath
from mpmath.libmp import (from_float, from_int, mpf_add, mpf_mul, mpf_sign, mpf_sqrt,
                          mpf_sub, round_nearest)

MP = mpmath.MPContext()
MP.dps = 30
_PREC = MP.prec  # residual() works on raw mpf tuples at this precision: the
_RND = round_nearest  # same arithmetic as MP, without the per-operation objects
_TWO = from_int(2)

ENERGY_TOL = 1e-9  # relative root tolerance of a level, set before any run


class System:
    """Exact (mpf) parameters of one system, one m' and one branch."""

    def __init__(self, v0, r0, b, m_eff, branch):
        self.v0, self.r0, self.om, self.mp = (MP.mpf(x) for x in (v0, r0, b, m_eff))
        self.branch = branch
        self.shift = 1 if branch == "positive" else -1  # lam = E + shift
        # beta^2 = a + b lam, gamma^2 = c + d lam, nu^2 = lam (lam + k) - e
        self._a, self._b = self.mp ** 2, self.r0 ** 2 * self.v0
        self._c, self._d = (self.om / 2) ** 2, self.v0 / self.r0 ** 2
        self._raw = [x._mpf_ for x in (
            self._a, self._b, self._c, self._d, -self.om * self.mp,
            2 * self.v0 - 2 * self.shift, MP.mpf(self.shift))]

    def lam_min(self):
        """Lower edge of the domain in lam (exclusive)."""
        if self.branch == "positive":
            return MP.mpf(0)
        return max(-self._a / self._b, -self._c / self._d)

    def residual(self, n, energy):
        """f(E) for radial quantum number n, or None outside the domain."""
        a, b, c, d, minus_e, k, shift = self._raw
        energy = from_float(energy) if isinstance(energy, float) else MP.mpf(energy)._mpf_
        lam = mpf_add(energy, shift, _PREC, _RND)
        beta2 = mpf_add(a, mpf_mul(b, lam, _PREC, _RND), _PREC, _RND)
        gamma2 = mpf_add(c, mpf_mul(d, lam, _PREC, _RND), _PREC, _RND)
        if mpf_sign(beta2) <= 0 or mpf_sign(gamma2) <= 0 or (
                self.shift > 0 and mpf_sign(lam) <= 0):
            return None
        nu2 = mpf_add(mpf_mul(lam, mpf_add(lam, k, _PREC, _RND), _PREC, _RND),
                      minus_e, _PREC, _RND)
        weight = mpf_add(from_int(4 * n + 2), mpf_mul(_TWO, mpf_sqrt(beta2, _PREC, _RND)),
                         _PREC, _RND)
        return MP.make_mpf(mpf_sub(
            nu2, mpf_mul(weight, mpf_sqrt(gamma2, _PREC, _RND), _PREC, _RND), _PREC, _RND))

    def principal_target(self, n):
        v0, r0, om, mp = self.v0, self.r0, self.om, self.mp
        omega = MP.sqrt(om ** 2 + 8 * v0 / r0 ** 2)
        m_tilde = MP.sqrt(mp ** 2 + 2 * v0 * r0 ** 2)
        return 1 + omega * (n + (m_tilde + 1) / 2) + om * mp / 2 - 2 * v0

    def beta_gamma(self, energy):
        lam = MP.mpf(energy) + self.shift
        return MP.sqrt(self._a + self._b * lam), MP.sqrt(self._c + self._d * lam)


def is_principal_level(system, n, energy):
    """True when ``energy`` is within ENERGY_TOL of the principal root."""
    energy = MP.mpf(energy)
    tol = ENERGY_TOL * max(1, abs(energy))
    f_lo, f_hi = system.residual(n, energy - tol), system.residual(n, energy + tol)
    if f_lo is None or f_hi is None or f_lo * f_hi > 0:
        return False
    if system.branch == "positive":
        return True  # f(lam -> 0+) <= 0 and f convex: the only root
    rising = f_hi > f_lo
    mirror = 2 * system.principal_target(n) - energy
    if (mirror >= energy) == rising:
        return True  # the other root, if any, lies on the far side of energy
    f_mirror = system.residual(n, mirror)
    if f_mirror is None:  # mirror outside the domain: is there another root at all?
        edge = system.lam_min()
        edge += MP.mpf(10) ** (-20) * max(1, abs(edge))
        f_edge = system.residual(n, edge - system.shift)
        return f_edge is None or f_edge <= 0
    return f_mirror <= 0


def is_landau_level(n, m_eff, b, energy):
    """True when ``energy`` is within ENERGY_TOL of the free-field level."""
    om, mp = MP.mpf(b), MP.mpf(m_eff)
    exact = (2 * (2 * n + 1 + abs(mp)) * om / 2 + om * mp) / 2
    return abs(MP.mpf(energy) - exact) <= ENERGY_TOL * max(1, abs(exact))


def positive_root(system, n):
    """The unique positive-branch root, by bisection in lam at 30 digits."""
    lo, hi = MP.mpf(0), MP.mpf(1)
    while system.residual(n, hi - 1) < 0:
        lo, hi = hi, 2 * hi
    for _ in range(110):
        mid = (lo + hi) / 2
        if system.residual(n, mid - 1) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2 - 1


def radial_norm(n, beta, gamma):
    return MP.sqrt(2 * gamma ** (beta + 1) * MP.factorial(n) / MP.gamma(n + beta + 1))


def radial_value(n, beta, gamma, norm, r):
    r = MP.mpf(r)
    x = gamma * r * r
    return norm * r ** beta * MP.exp(-x / 2) * MP.laguerre(n, beta, x)
