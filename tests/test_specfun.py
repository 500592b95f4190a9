import math

import numpy as np
import pytest
from scipy.integrate import quad

from kgpho.specfun import laguerre


def laguerre_series(n, alpha, x):
    """Direct finite-series oracle: sum_k (-1)^k C(n+alpha, n-k) x^k / k!.

    Also returns the largest term magnitude; the alternating sum cannot be
    more accurate than eps times that envelope in double precision.
    """
    total = 0.0
    envelope = 0.0
    for k in range(n + 1):
        log_c = (
            math.lgamma(n + alpha + 1.0)
            - math.lgamma(k + alpha + 1.0)
            - math.lgamma(n - k + 1.0)
        )
        term = (-1.0) ** k * math.exp(log_c) * x**k / math.factorial(k)
        envelope = max(envelope, abs(term))
        total += term
    return total, envelope


def test_laguerre_degree_zero_is_one():
    assert laguerre(0, 0.7, 3.2) == 1.0


def test_laguerre_degree_one_closed_form():
    assert laguerre(1, 0.5, 2.0) == pytest.approx(-0.5, abs=1e-15)


def test_laguerre_degree_two_against_series():
    # (x^2 - 4x + 2)/2 at x=1
    assert laguerre(2, 0, 1.0) == pytest.approx(-0.5, abs=1e-14)
    assert laguerre_series(2, 0.0, 1.0)[0] == pytest.approx(-0.5, abs=1e-14)


def test_laguerre_matches_series_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(0, 21))
        alpha = float(rng.uniform(-0.9, 5.0))
        x = float(rng.uniform(0.0, 40.0))
        ref, envelope = laguerre_series(n, alpha, x)
        got = laguerre(n, alpha, x)
        # the oracle's own cancellation bounds the comparable accuracy
        assert abs(got - ref) <= 1e-12 * max(abs(ref), envelope)


def test_laguerre_high_degree_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    cases = [
        (5, 0.5, 10.0),
        (20, 0.0, 3.0),
        (50, 2.5, 120.0),
        (100, 0.7, 30.0),
        (150, 4.0, 500.0),
        (200, 0.5, 50.0),
        (200, 1.3, 400.0),
    ]
    for n, alpha, x in cases:
        ref = float(mp.laguerre(n, mp.mpf(alpha), mp.mpf(x)))
        got = laguerre(n, alpha, x)
        # Envelope of the recurrence bounds the attainable relative accuracy
        # near polynomial roots.
        env = max(abs(laguerre(k, alpha, x)) for k in range(n + 1))
        assert abs(got - ref) <= 1e-12 * env
        if abs(ref) > 1e-2 * env:
            assert got == pytest.approx(ref, rel=1e-11)


def test_laguerre_vectorizes_over_x():
    x = np.linspace(0.0, 12.0, 7)
    vals = laguerre(3, 1.5, x)
    assert vals.shape == x.shape
    for xi, vi in zip(x, vals):
        assert vi == pytest.approx(laguerre(3, 1.5, float(xi)), rel=1e-14)


@pytest.mark.parametrize(
    "n, alpha, x",
    [(-1, 0.5, 1.0), (2, -1.0, 1.0), (2, -1.5, 1.0), (2, 0.5, -0.5), (2.5, 0.5, 1.0)],
)
def test_laguerre_rejects_bad_input(n, alpha, x):
    with pytest.raises(ValueError):
        laguerre(n, alpha, x)


def test_laguerre_rejects_non_finite():
    with pytest.raises(ValueError):
        laguerre(2, 0.5, math.inf)
    with pytest.raises(ValueError):
        laguerre(2, math.nan, 1.0)


def test_recurrence_consistency():
    rng = np.random.default_rng(11)
    n = 40
    for _ in range(20):
        alpha = float(rng.uniform(-0.9, 4.0))
        x = float(rng.uniform(0.0, 120.0))
        L = [laguerre(k, alpha, x) for k in range(n + 2)]
        for k in range(1, n + 1):
            lhs = (k + 1) * L[k + 1]
            rhs = (2 * k + 1 + alpha - x) * L[k] - (k + alpha) * L[k - 1]
            scale = max(abs(lhs), abs(rhs), 1e-300)
            assert abs(lhs - rhs) <= 1e-11 * scale


def test_ode_residual_via_derivative_identity():
    # x y'' + (alpha + 1 - x) y' + n y = 0 with y' = -L_{n-1}^{(a+1)},
    # y'' = L_{n-2}^{(a+2)}.
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 15))
        alpha = float(rng.uniform(-0.5, 3.0))
        x = float(rng.uniform(0.1, 60.0))
        y = laguerre(n, alpha, x)
        yp = -laguerre(n - 1, alpha + 1.0, x)
        ypp = laguerre(n - 2, alpha + 2.0, x)
        terms = (x * ypp, (alpha + 1.0 - x) * yp, n * y)
        resid = sum(terms)
        assert abs(resid) <= 1e-10 * max(abs(t) for t in terms)


@pytest.mark.parametrize("alpha", [0.0, 0.5, math.sqrt(3.0)])
def test_orthogonality_weighted_integrals(alpha):
    for i in range(11):
        for j in range(i, 11):
            val, _ = quad(
                lambda x: x**alpha * math.exp(-x) * laguerre(i, alpha, x) * laguerre(j, alpha, x),
                0.0,
                np.inf,
                epsabs=1e-10,
                epsrel=1e-10,
                limit=200,
            )
            expected = (
                math.exp(math.lgamma(i + alpha + 1.0) - math.lgamma(i + 1.0))
                if i == j
                else 0.0
            )
            assert abs(val - expected) <= 1e-8
