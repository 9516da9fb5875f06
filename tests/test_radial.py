"""Exact power integrals against 30-digit mpmath quadrature, and their edge cases."""

import math

import mpmath
import numpy as np
import pytest

from biharm.radial import power_integral

# (coef, exp, lo, hi): finite pieces, origin pieces (lo = 0) and tail pieces (hi = inf)
CASES = [
    (1.0, 2.0, 0.5, 3.0),
    (2.5, -1.0, 0.1, 7.0),
    (0.3, -2.7, 1e-3, 1e2),
    (1.7, 0.4, 0.0, 2.0),
    (4.0, -0.9, 0.0, 1e-2),
    (1.0, -3.0, 2.0, math.inf),
    (0.2, -1.1, 1e3, math.inf),
    (-1.5, -4.5, 0.25, math.inf),
]


def _reference(coef, exp, lo, hi):
    """coef * int r**exp dr by quadrature in t = ln r, where the integrand
    exp((exp+1) t) stays smooth at an origin end and decays in a tail."""
    with mpmath.workdps(30):
        t_lo = -mpmath.inf if lo == 0.0 else mpmath.log(lo)
        t_hi = mpmath.inf if math.isinf(hi) else mpmath.log(hi)
        e1 = mpmath.mpf(exp) + 1
        return float(coef * mpmath.quad(lambda t: mpmath.exp(e1 * t), [t_lo, t_hi]))


@pytest.mark.parametrize("coef, exp, lo, hi", CASES)
def test_matches_mpmath(coef, exp, lo, hi):
    got = power_integral(coef, exp, lo, hi)
    assert isinstance(got, float)
    assert got == pytest.approx(_reference(coef, exp, lo, hi), rel=1e-13)


def test_vectorized_matches_scalar_calls():
    coef, exp, lo, hi = (np.array(col) for col in zip(*CASES))
    got = power_integral(coef, exp, lo, hi)
    assert got.shape == (len(CASES),)
    assert list(got) == [power_integral(*case) for case in CASES]


def test_log_case():
    assert power_integral(3.0, -1.0, 2.0, 2.0 * math.e) == pytest.approx(3.0, rel=1e-15)


def test_zero_coefficient_and_empty_interval_give_zero():
    assert power_integral(0.0, -5.0, 0.0, math.inf) == 0.0
    assert power_integral(1.0, 2.0, 3.0, 3.0) == 0.0
    assert power_integral(1.0, 2.0, 4.0, 3.0) == 0.0
    assert power_integral(1.0, -2.0, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("exp, lo, hi", [
    (-1.0, 0.0, 1.0),        # log divergence at the origin
    (-1.5, 0.0, 1.0),        # power divergence at the origin
    (-1.0, 1.0, math.inf),   # log divergence in the tail
    (-0.5, 1.0, math.inf),   # power divergence in the tail
    (2.0, 0.0, math.inf),
])
def test_divergent_pieces_are_infinite(exp, lo, hi):
    assert power_integral(2.0, exp, lo, hi) == math.inf
    assert power_integral(-2.0, exp, lo, hi) == -math.inf


@pytest.mark.parametrize("exp", [-2.5, -1.0, -0.5, 0.0, 1.5])
def test_additive_across_a_split_point(exp):
    lo, mid, hi = 0.3, 1.7, 9.0
    whole = power_integral(1.3, exp, lo, hi)
    parts = power_integral(1.3, exp, [lo, mid], [mid, hi])
    assert parts.sum() == pytest.approx(whole, rel=1e-14)
    if exp < -1.0:
        tail = power_integral(1.3, exp, mid, math.inf)
        assert power_integral(1.3, exp, lo, mid) + tail == pytest.approx(
            power_integral(1.3, exp, lo, math.inf), rel=1e-14)
