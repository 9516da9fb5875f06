"""Quadrature engine over (0, inf) against dr/r, batched over shifts:
exactness, closed-form tails, additivity, divergence flags, and batched
calls against one-shift-at-a-time calls.  Finite ranges are windowed
factors: a piece that is nonzero only on [lo, hi); an unshifted integrand
is u(r) * ONE(rho + r)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as scipy_quad

from biharm.errors import ParameterError
from biharm.profiles import ManifoldProfile, profile_piecewise
from biharm.quad import PowerIntegrand, _near_segments, _series_zones, integrate
from biharm.radial import PiecewisePower, RadialFunction, log_grid, pp_product
from biharm.solver import default_grid

INF = float("inf")
ONE = PiecewisePower.single(1.0, 0.0)


def window(lo, hi, exp=0.0):
    """r**exp on [lo, hi), zero elsewhere."""
    if lo == 0.0:
        return PiecewisePower((0.0, hi, INF), (1.0, 0.0), (exp, 0.0))
    if hi == INF:
        return PiecewisePower((0.0, lo, INF), (0.0, 1.0), (0.0, exp))
    return PiecewisePower((0.0, lo, hi, INF), (0.0, 1.0, 0.0), (0.0, exp, 0.0))


def power_on(lo, hi, exp):
    """int_lo^hi r**exp dr as an integrand against dr/r."""
    return PowerIntegrand(window(lo, hi, exp + 1.0), ONE, 1.0)


def green_integrand(prof, rho, *extra):
    """g(rho + r) g(r) v(r) (times the extra unshifted factors) against dr/r."""
    g = profile_piecewise("g", prof)
    v = profile_piecewise("v", prof)
    return PowerIntegrand(pp_product(g, v, *extra), g, rho)


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
    whole = integrate(green_integrand(prof, 0.7))
    for _ in range(20):
        mid = 10.0 ** rng.uniform(-2, 3)
        left = integrate(green_integrand(prof, 0.7, window(0.0, mid)))
        right = integrate(green_integrand(prof, 0.7, window(mid, INF)))
        tol = whole.abs_error_estimate + left.abs_error_estimate + right.abs_error_estimate
        assert abs(whole.value - (left.value + right.value)) <= tol + 1e-13 * whole.value


def test_monotone_in_domain():
    smaller = integrate(power_on(1.0, 10.0, -2.0)).value
    bigger = integrate(power_on(0.5, 20.0, -2.0)).value
    assert bigger >= smaller


def test_shifted_factor_against_scipy():
    # independent oracle: adaptive quadrature of the same explicit integrand
    prof = ManifoldProfile(6.0, 4.0, 6)
    for rho in (0.3, 1.0, 7.5, 120.0):
        res = integrate(green_integrand(prof, rho))

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
    res = integrate(PowerIntegrand(pp, ONE, 1.0))
    assert not res.diverged
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_breakpoints_from_shifts():
    # gamma != n - 2 so the Green profile genuinely switches branch at 1;
    # for g(0.25 + r) g(r) v(r) the Gauss zone runs from a quarter of the
    # shift, 1/16, to four times it, 1, cut where the shifted factor switches
    prof = ManifoldProfile(6.0, 5.0, 6)
    g = profile_piecewise("g", prof)
    u = pp_product(g, profile_piecewise("v", prof))
    rho = np.array([0.25])
    low_end, high_start = _series_zones(u, g, rho)[3:]
    start, width = _near_segments(u, g, rho, low_end, high_start)[2:4]
    cuts = np.exp(np.append(start, start[-1] + width[-1]))
    assert cuts == pytest.approx([0.0625, 0.75, 1.0])


@pytest.mark.parametrize("rho", [0.013, 0.3, 2.7, 55.0, 3.1e4])
def test_gauss_zone_holds_only_the_near_breakpoints(rho):
    # for a 1024-node grid source, either split term's Gauss zone is cut only
    # at its seams rho/4 and 4 rho and at the breakpoints between them, so a
    # shift costs panels for ~140 nodes, not for all 1024
    prof = ManifoldProfile(7.0, 4.5, 5)   # g switches branch at 1
    grid = default_grid(1024)
    src = RadialFunction(grid, (1.0 + grid) ** -3.0, 0.0, -3.0).as_piecewise()
    g = profile_piecewise("g", prof)
    v = profile_piecewise("v", prof)
    shift = np.array([rho])
    nodes = np.append(grid, 1.0)
    for u, f, breaks in ((pp_product(src, v), g, np.append(nodes, 1.0 - rho)),
                         (pp_product(g, v), src, np.append(nodes - rho, 1.0))):
        low_end, high_start = _series_zones(u, f, shift)[3:]
        assert low_end == pytest.approx(rho / 4) and high_start == pytest.approx(4 * rho)
        start, width = _near_segments(u, f, shift, low_end, high_start)[2:4]
        cuts = np.exp(np.append(start, start[-1] + width[-1]))
        inside = breaks[(breaks > rho / 4) & (breaks < 4 * rho)]
        expected = np.unique(np.concatenate([[rho / 4, 4 * rho], inside]))
        assert cuts == pytest.approx(expected, rel=1e-12)


def test_scalar_shift_gives_scalars_and_arrays_keep_shape():
    prof = ManifoldProfile(6.0, 4.0, 6)
    one = integrate(green_integrand(prof, 1.0))
    assert np.ndim(one.value) == 0 and np.ndim(one.diverged) == 0
    many = integrate(green_integrand(prof, np.full((2, 3), 1.0)))
    assert many.value.shape == many.diverged.shape == many.tail_exponent.shape == (2, 3)
    assert np.all(many.value == one.value)


def test_bad_shifts_and_negative_factors_rejected():
    prof = ManifoldProfile(6.0, 4.0, 6)
    for rho in (0.0, -1.0, np.nan, [1.0, 0.0]):
        with pytest.raises(ParameterError):
            green_integrand(prof, rho)
    with pytest.raises(ParameterError):
        PowerIntegrand(PiecewisePower.single(-1.0, 0.0), ONE, 1.0)


def test_eval_is_the_integrand():
    prof = ManifoldProfile(6.0, 4.0, 6)
    rho = np.array([0.3, 2.0, 50.0])
    r = np.array([0.1, 1.5, 20.0])
    # (6, 4, 6): g = r**-4 and v = r**6 on both branches
    expected = (rho + r) ** -4.0 * r ** -4.0 * r ** 6 / r
    assert green_integrand(prof, rho).eval(r) == pytest.approx(expected, rel=1e-14)


# -- batched calls against one shift at a time ------------------------------

@st.composite
def admissible_profiles(draw):
    """(alpha, gamma, n) with gamma < alpha < 2 gamma (the existence window)."""
    gamma = draw(st.floats(1.0, 6.0))
    alpha = gamma * draw(st.floats(1.02, 1.98))
    return ManifoldProfile(alpha, gamma, draw(st.integers(3, 8)))


@st.composite
def split_sources(draw, prof):
    """Nonnegative sources whose split potentials converge: a grid source
    (16-128 nodes, possibly with zeros) or a closed-form piecewise power."""
    tail = prof.gamma - prof.alpha - draw(st.floats(0.2, 3.0))
    if draw(st.booleans()):
        n = draw(st.integers(16, 128))
        grid = log_grid(10.0 ** draw(st.floats(-3, 0)), 10.0 ** draw(st.floats(1, 4)), n)
        logs = np.array(draw(st.lists(st.floats(-30.0, 30.0), min_size=n, max_size=n)))
        on = np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))) > 0.1
        on[0] = on[-1] = True
        values = np.where(on, np.exp(logs), 0.0)
        return RadialFunction(grid, values, 0.0, tail).as_piecewise()
    bounds = sorted(set(draw(st.lists(st.floats(1e-2, 1e3), min_size=1, max_size=4))))
    exps = draw(st.lists(st.floats(-1.0, 3.0), min_size=len(bounds), max_size=len(bounds)))
    coefs = draw(st.lists(st.floats(0.1, 10.0), min_size=len(bounds) + 1,
                          max_size=len(bounds) + 1))
    return PiecewisePower([0.0, *bounds, INF], coefs, [*exps, tail])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batched_equals_one_shift_at_a_time(data):
    prof = data.draw(admissible_profiles())
    src = data.draw(split_sources(prof))
    rho = np.array(sorted(data.draw(st.lists(st.floats(1e-3, 1e5), min_size=1, max_size=12))))
    g = profile_piecewise("g", prof)
    v = profile_piecewise("v", prof)
    for u, f in ((pp_product(src, v), g), (pp_product(g, v), src), (pp_product(g, v), g)):
        batched = integrate(PowerIntegrand(u, f, rho), rel_tol=1e-10)
        single = [integrate(PowerIntegrand(u, f, r), rel_tol=1e-10) for r in rho]
        assert batched.value.tolist() == [s.value for s in single]
        assert batched.abs_error_estimate.tolist() == [s.abs_error_estimate for s in single]
        assert batched.diverged.tolist() == [s.diverged for s in single]
