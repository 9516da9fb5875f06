"""Quadrature engine over (0, inf) against dr/r: exactness, closed-form tails,
additivity, divergence flags.  Finite ranges are windowed factors: a piece
that is nonzero only on [lo, hi)."""

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from biharm.profiles import ManifoldProfile, profile_piecewise
from biharm.quad import Factor, PowerIntegrand, integrate
from biharm.radial import PiecewisePower

INF = float("inf")


def window(lo, hi, exp=0.0):
    """r**exp on [lo, hi), zero elsewhere."""
    if lo == 0.0:
        return PiecewisePower((0.0, hi, INF), (1.0, 0.0), (exp, 0.0))
    if hi == INF:
        return PiecewisePower((0.0, lo, INF), (0.0, 1.0), (0.0, exp))
    return PiecewisePower((0.0, lo, hi, INF), (0.0, 1.0, 0.0), (0.0, exp, 0.0))


def power_on(lo, hi, exp):
    """int_lo^hi r**exp dr as an integrand against dr/r."""
    return PowerIntegrand((Factor(window(lo, hi, exp + 1.0), 0.0),))


def test_unit_interval_linear():
    res = integrate(power_on(0.0, 1.0, 1.0))
    assert res.value == pytest.approx(0.5, abs=1e-14)
    assert not res.diverged


def test_closed_form_tail():
    res = integrate(power_on(1.0, INF, -3.0))
    assert res.value == pytest.approx(0.5, rel=1e-13)


def test_exactness_on_pure_powers_randomized():
    rng = np.random.default_rng(3)
    for _ in range(120):
        k = rng.uniform(-8.0, 8.0)
        a = rng.uniform(1e-3, 10.0)
        b = a * rng.uniform(1.5, 200.0)
        expected = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        res = integrate(power_on(a, b, k))
        assert res.value == pytest.approx(expected, rel=1e-12)


def test_additivity_randomized():
    rng = np.random.default_rng(5)
    prof = ManifoldProfile(6.0, 4.0, 6)
    g = profile_piecewise("g", prof)
    v = profile_piecewise("v", prof)
    factors = (Factor(g, 0.7), Factor(g, 0.0), Factor(v, 0.0))
    whole = integrate(PowerIntegrand(factors))
    for _ in range(20):
        mid = 10.0 ** rng.uniform(-2, 3)
        left = integrate(PowerIntegrand(factors + (Factor(window(0.0, mid)),)))
        right = integrate(PowerIntegrand(factors + (Factor(window(mid, INF)),)))
        tol = whole.abs_error_estimate + left.abs_error_estimate + right.abs_error_estimate
        assert abs(whole.value - (left.value + right.value)) <= tol + 1e-13 * whole.value


def test_monotone_in_domain():
    smaller = integrate(power_on(1.0, 10.0, -2.0)).value
    bigger = integrate(power_on(0.5, 20.0, -2.0)).value
    assert bigger >= smaller


def test_shifted_factor_against_scipy():
    # independent oracle: adaptive quadrature of the same explicit integrand
    prof = ManifoldProfile(6.0, 4.0, 6)
    g = profile_piecewise("g", prof)
    v = profile_piecewise("v", prof)
    for rho in (0.3, 1.0, 7.5, 120.0):
        integrand = PowerIntegrand((Factor(g, rho), Factor(g, 0.0), Factor(v, 0.0)))
        res = integrate(integrand)

        def explicit(r):
            gs = (rho + r) ** (2 - 6) if rho + r <= 1 else (rho + r) ** -4.0
            gg = r ** (2 - 6) if r <= 1 else r ** -4.0
            vv = r ** 6
            return gs * gg * vv / r

        ref = 0.0
        pieces = sorted({0.0, min(1.0, max(1.0 - rho, 0.0)), 1.0, 10.0, 1e3})
        for lo, hi in zip(pieces, pieces[1:]):
            if hi > lo:
                ref += scipy_quad(explicit, lo, hi, limit=200)[0]
        ref += scipy_quad(explicit, 1e3, np.inf, limit=200)[0]
        assert res.value == pytest.approx(ref, rel=1e-8)


def test_tail_divergence_flagged_not_raised():
    res = integrate(power_on(1.0, INF, -1.0))
    assert res.diverged and res.value == INF
    assert res.tail_exponent == 0.0  # logarithmic boundary case


def test_origin_divergence_flagged():
    res = integrate(power_on(0.0, 1.0, -1.0))
    assert res.diverged


def test_zero_coefficient_piece_suppresses_divergence():
    # a source vanishing near the origin cannot diverge there
    pp = PiecewisePower((0.0, 1.0, INF), (0.0, 1.0), (0.0, -3.0))
    res = integrate(PowerIntegrand((Factor(pp, 0.0),)))
    assert not res.diverged
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_breakpoints_from_shifts():
    # gamma != n - 2 so the Green profile genuinely switches branch at 1
    prof = ManifoldProfile(6.0, 5.0, 6)
    g = profile_piecewise("g", prof)
    integrand = PowerIntegrand((Factor(g, 0.25), Factor(g, 0.0)))
    bps = integrand.breakpoints(0.0, INF)
    assert bps == pytest.approx([0.75, 1.0])
