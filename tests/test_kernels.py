"""Composed Green kernel, potential operators in three modes, MC oracle;
batched quadrature against the scalar values it replaced and 30-digit
mpmath references; positivity and monotonicity of split potentials."""

import bisect
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biharm.errors import DivergentIntegralError, ParameterError
from biharm.kernels import (BallSource, KERNEL_MODES, KernelSpec, MODE_EUCLIDEAN, MODE_SPLIT,
                            MODE_SURROGATE, annulus_lower_bound, compose_green, mc_oracle,
                            potential, potential_values, sphere_area)
from biharm.profiles import ManifoldProfile, SourceProfile, profile_piecewise
from biharm.quad import PowerIntegrand, integrate
from biharm.radial import (PiecewisePower, RadialFunction, fit_loglog_slope, log_grid,
                           pp_product)
from biharm.solver import default_grid

PROF = ManifoldProfile(6.0, 4.0, 6)
SRC = SourceProfile(0.0, 0.0)
PSI_F = pp_product(profile_piecewise("psi", PROF, SRC), profile_piecewise("f", PROF, power=3.5))
INF = float("inf")


def test_compose_green_unit_separation():
    # oracle: the reduction at rho = 1 collapses to int_0^inf r(1+r)^-4 dr,
    # and r(1+r)^-4 = (1+r)^-3 - (1+r)^-4 integrates to 1/2 - 1/3 = 1/6
    res = compose_green(PROF, 1.0)
    assert not res.diverged
    assert res.value == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_compose_green_far_field_slope():
    rhos = np.geomspace(1e2, 1e4, 17)
    vals = np.array([compose_green(PROF, r).value for r in rhos])
    slope = fit_loglog_slope(rhos, vals)
    assert slope == pytest.approx(-2.0, abs=0.05)   # -(2*gamma - alpha)


def test_compose_green_small_separation_singularity():
    # inside the unit ball the composed kernel carries the fourth-order
    # local singularity rho**(4-n)
    rhos = np.geomspace(1e-4, 1e-2, 9)
    vals = np.array([compose_green(PROF, r).value for r in rhos])
    assert fit_loglog_slope(rhos, vals) == pytest.approx(4.0 - 6.0, abs=0.05)


def test_split_mode_accepts_grid_sources():
    grid = log_grid(1e-1, 1e2, 48)
    src_rf = RadialFunction(grid, np.exp(-np.log(grid) ** 2 / 2.0))
    split = potential(KernelSpec(MODE_SPLIT, PROF), src_rf, grid)
    surro = potential(KernelSpec(MODE_SURROGATE, PROF), src_rf, grid)
    assert np.all(split.values > 0)
    ratio = split.values / surro.values
    assert 1e-3 < ratio.min() and ratio.max() < 1e3   # two-sided comparability


def test_compose_green_strictly_decreasing_positive():
    rhos = np.geomspace(1e-2, 1e3, 40)
    vals = np.array([compose_green(PROF, r).value for r in rhos])
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


def test_compose_green_divergence_dichotomy():
    for alpha in (4.0, 6.0, 8.0):
        for off in (-0.5, 0.0, 0.5):
            gamma = alpha / 2 + off
            res = compose_green(ManifoldProfile(alpha, gamma, 6), 3.0)
            assert res.diverged == (gamma <= alpha / 2)


def test_compose_green_rejects_bad_rho():
    with pytest.raises(ParameterError):
        compose_green(PROF, 0.0)


def test_surrogate_kernel_closed_form():
    # oracle: alpha * rho**(alpha-q-gamma) * (1/(alpha-q) + 1/(q+gamma-alpha))
    # for source r**-q; with (6, 4, q=5) this is 8 * rho**-3
    spec = KernelSpec(MODE_SURROGATE, PROF)
    grid = log_grid(1e-2, 1e4, 60)
    vals = potential_values(spec, PiecewisePower.single(1.0, -5.0), grid)
    assert np.max(np.abs(vals / (8.0 * grid ** -3.0) - 1.0)) < 1e-8


def test_euclidean_ball_anchors():
    spec = KernelSpec(MODE_EUCLIDEAN, PROF)
    ball = BallSource(1.0)
    at0 = potential_values(spec, ball, [0.0])[0]
    assert at0 == pytest.approx(math.pi ** 3 / 2.0, rel=1e-12)
    # far field: total mass times |x|**(2-n)
    at10 = potential_values(spec, ball, [10.0])[0]
    assert at10 == pytest.approx(math.pi ** 3 / 6.0 * 1e-4, rel=1e-12)


def test_zero_source_gives_zero():
    grid = log_grid(1e-1, 1e2, 32)
    for mode in KERNEL_MODES:
        zero = RadialFunction(grid, np.zeros_like(grid))
        assert np.all(potential(KernelSpec(mode, PROF), zero).values == 0.0)
    # rho**(2-n) overflows at this radius, but the source vanishes below it
    spec = KernelSpec(MODE_EUCLIDEAN, ManifoldProfile(107.0, 105.0, 107))
    assert potential_values(spec, BallSource(1e-10, 0.0), [1e-10])[0] == 0.0


def test_negative_source_values_rejected():
    # a value < 0 used to be read as a vanishing piece: a mixed-sign source
    # got the potential of its positive part, an all-negative one 0
    grid = log_grid(1e-1, 1e2, 32)
    mixed = np.exp(-np.log(grid) ** 2 / 2.0) * np.cos(np.log(grid))
    for values in (mixed, -np.abs(mixed)):
        with pytest.raises(ParameterError, match=">= 0"):
            potential(KernelSpec(MODE_SURROGATE, PROF), RadialFunction(grid, values))


def test_potential_monotone_in_source():
    rng = np.random.default_rng(12)
    grid = log_grid(1e-2, 1e3, 64)
    spec = KernelSpec(MODE_SURROGATE, PROF)
    base = np.exp(-np.log(grid) ** 2 / 2.0)   # tail steep enough to integrate
    lo = potential(spec, RadialFunction(grid, base))
    for _ in range(10):
        bump = base * (1.0 + 0.5 * rng.random(grid.size))
        hi = potential(spec, RadialFunction(grid, bump))
        assert np.all(hi.values >= lo.values)


def test_potential_positivity():
    spec = KernelSpec(MODE_SPLIT, PROF)
    grid = log_grid(1e-1, 1e2, 24)
    out = potential(spec, PSI_F, grid)
    assert np.all(out.values > 0)


def test_potential_divergence_names_exponent():
    spec = KernelSpec(MODE_SURROGATE, PROF)
    grid = log_grid(1e-1, 1e1, 16)
    with pytest.raises(DivergentIntegralError) as err:
        potential(spec, PiecewisePower.single(1.0, -1.0), grid)  # tail too fat
    assert err.value.location == "tail"
    with pytest.raises(DivergentIntegralError) as err:
        potential(spec, PiecewisePower.single(1.0, -6.5), grid)  # origin too hot
    assert err.value.location == "origin"
    with pytest.raises(DivergentIntegralError) as err:
        potential_values(KernelSpec(MODE_SPLIT, PROF), PiecewisePower.single(1.0, -2.0),
                         [0.5, 2.0])
    assert (err.value.location, err.value.exponent) == ("tail", 0.0)
    # r**-5.5 times the measure r**5 is integrable, the kernel at rho = 0 is not
    source = PiecewisePower((0.0, 1.0, INF), (1.0, 0.0), (-5.5, 0.0))
    for mode in (MODE_SURROGATE, MODE_EUCLIDEAN):
        with pytest.raises(DivergentIntegralError) as err:
            potential_values(KernelSpec(mode, PROF), source, [0.0])
        assert (err.value.location, err.value.exponent) == ("origin", -4.5)


def test_annulus_lower_bound():
    assert annulus_lower_bound(PROF, 10.0) == pytest.approx(0.01, abs=1e-15)
    with pytest.raises(ParameterError):
        annulus_lower_bound(PROF, 0.5)


def test_annulus_bound_comparable_to_composed_kernel():
    # two-sided comparability with constant exactly B(alpha-gamma, 2g-a) = 1/6
    # for (6, 4): the bound shares the composed kernel's exponent
    ratios = [compose_green(PROF, R).value / annulus_lower_bound(PROF, R)
              for R in (1.0, 10.0, 100.0, 1000.0)]
    assert all(r == pytest.approx(1.0 / 6.0, rel=1e-9) for r in ratios)


def test_max_kernel_comparable_to_shifted_power():
    # max(rho, r)**-gamma vs (rho+r)**-gamma within a factor 2**gamma
    rng = np.random.default_rng(4)
    gamma = 4.0
    rho = 10.0 ** rng.uniform(-2, 3, 500)
    r = 10.0 ** rng.uniform(-2, 3, 500)
    ratio = np.maximum(rho, r) ** -gamma / (rho + r) ** -gamma
    assert np.all(ratio >= 1.0 - 1e-12)
    assert np.all(ratio <= 2.0 ** gamma + 1e-9)


def test_split_and_surrogate_modes_agree_within_constants():
    # both represent the same potential up to two-sided constants
    grid = log_grid(1e-1, 1e3, 48)
    split = potential(KernelSpec(MODE_SPLIT, PROF), PSI_F, grid)
    surro = potential(KernelSpec(MODE_SURROGATE, PROF), PSI_F, grid)
    ratio = split.values / surro.values
    assert ratio.max() / ratio.min() < 50.0


def test_radial_function_power_interp_exact():
    grid = log_grid(1e-1, 1e2, 20)
    rf = RadialFunction(grid, 3.0 * grid ** -2.0)
    probe = np.geomspace(0.05, 300.0, 50)   # includes extrapolation regions
    assert np.allclose(rf(probe), 3.0 * probe ** -2.0, rtol=1e-9)
    exps = rf.as_piecewise().exps
    assert exps[0] == pytest.approx(-2.0, abs=1e-9)
    assert exps[-1] == pytest.approx(-2.0, abs=1e-9)


def test_mc_oracle_anchors():
    ball = BallSource(1.0)
    est, se = mc_oracle(6, 0.0, ball, 50000, seed=42)
    assert est == pytest.approx(math.pi ** 3 / 2.0, rel=1e-12)  # zero-variance case
    est, se = mc_oracle(6, 10.0, ball, 300000, seed=7)
    assert abs(est - math.pi ** 3 / 6.0 * 1e-4) <= 3.0 * se
    assert mc_oracle(6, 2.0, BallSource(1.0, 0.0), 1000, seed=1) == (0.0, 0.0)


def test_mc_oracle_reproducible():
    ball = BallSource(1.3, 0.7)
    a = mc_oracle(6, 2.5, ball, 20000, seed=9)
    b = mc_oracle(6, 2.5, ball, 20000, seed=9)
    assert a == b


def test_mc_oracle_rejects_low_dimension():
    with pytest.raises(ParameterError):
        mc_oracle(4, 1.0, BallSource(1.0), 1000, seed=0)


def test_negative_radius_rejected():
    with pytest.raises(ParameterError):
        mc_oracle(6, -1.0, BallSource(1.0), 1000, seed=0)
    for mode in (MODE_SURROGATE, MODE_EUCLIDEAN):
        spec = KernelSpec(mode, PROF)
        with pytest.raises(ParameterError):
            potential_values(spec, BallSource(1.0), [1.0, -1.0])
        # the origin itself stays allowed
        assert potential_values(spec, BallSource(1.0), [0.0])[0] > 0.0


def test_sphere_area_values():
    assert sphere_area(6) == pytest.approx(math.pi ** 3, rel=1e-14)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)


# -- batched quadrature against the scalar per-rho values it replaced --------

REFERENCE = json.loads(Path(__file__).with_name("quad_reference.json").read_text())


def reference_sources():
    """The split-potential sources of quad_reference.json, by name."""
    g48 = log_grid(1e-2, 1e3, 48)
    g96 = log_grid(1e-3, 1e4, 96)
    vals = (1.0 + g96) ** -3.5 * (1.0 + 0.3 * np.sin(3.0 * np.log(g96)))
    vals[40:47] = 0.0
    return {"grid48": RadialFunction(g48, np.exp(-np.log(g48) ** 2 / 2.0)),
            "grid96_zeros": RadialFunction(g96, vals, 0.0, -3.5),
            "psi_f": PSI_F,
            "ball": BallSource(1.5, 2.0)}


@pytest.mark.parametrize("key", sorted(REFERENCE["compose_green"]))
def test_compose_green_matches_scalar_reference(key):
    alpha, gamma, n, mode = key.split(",")
    prof = ManifoldProfile(float(alpha), float(gamma), int(n), mode)
    res = compose_green(prof, np.array(REFERENCE["rho"]))
    np.testing.assert_allclose(res.value, REFERENCE["compose_green"][key], rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", sorted(REFERENCE["split"]))
def test_split_potential_matches_scalar_reference(name):
    vals = potential_values(KernelSpec(MODE_SPLIT, PROF), reference_sources()[name],
                            REFERENCE["rho"])
    np.testing.assert_allclose(vals, REFERENCE["split"][name], rtol=1e-13, atol=0)


def test_kernel_table_rows_equal_single_calls():
    rhos = log_grid(1e-2, 1e4, 31)
    batched = compose_green(PROF, rhos)
    assert batched.value.tolist() == [compose_green(PROF, r).value for r in rhos]


# -- 30-digit mpmath references ----------------------------------------------

def _mp_piecewise(pp):
    b, lc, e = pp.bounds.tolist(), pp.log_coefs.tolist(), pp.exps.tolist()

    def f(x):
        j = min(max(bisect.bisect_right(b, x) - 1, 0), len(lc) - 1)
        return mpmath.exp(lc[j]) * x ** mpmath.mpf(e[j])

    return f


def _mp_integral(u, f, rho):
    """int u(r) f(rho + r) dr/r at 30 digits, in t = ln r, cut at every breakpoint."""
    with mpmath.workdps(30):
        rho = mpmath.mpf(rho)
        mu, mf = _mp_piecewise(u), _mp_piecewise(f)
        cuts = {float(b) for b in u.bounds[1:-1]} | {float(b - rho) for b in f.bounds[1:-1]
                                                       if b > rho} | {float(rho)}
        ts = [-mpmath.inf] + sorted(mpmath.log(c) for c in cuts) + [mpmath.inf]
        return float(mpmath.quad(lambda t: mu(mpmath.exp(t)) * mf(rho + mpmath.exp(t)), ts))


# (alpha, gamma, n) in the existence window; (6, 3.05) has gamma just above
# alpha/2, so the composed kernel's tail decays like r**-1.1
MP_POINTS = [(6.0, 4.0, 6), (7.0, 4.5, 5), (5.0, 3.0, 3), (8.0, 5.0, 7), (6.0, 3.05, 6)]


# besides a spread of radii, those where a zone edge (rho/4, 4 rho) meets a
# breakpoint of g: r = 1 in u and r = 1 - rho in f(rho + r)
@pytest.mark.parametrize("alpha, gamma, n", MP_POINTS)
@pytest.mark.parametrize("rho", [1e-2, 0.5, 1.0, 2.0, 1e3,
                                 0.2, 0.25, 0.79, 0.8, 1.01, 1.25, 3.99, 4.0, 4.01])
def test_green_and_split_terms_against_mpmath(alpha, gamma, n, rho):
    prof = ManifoldProfile(alpha, gamma, n)
    g = profile_piecewise("g", prof)
    v = profile_piecewise("v", prof)
    src = PiecewisePower((0.0, 1.0, INF), (1.0, 1.0), (0.0, gamma - alpha - 1.5))
    green = compose_green(prof, rho).value
    assert green == pytest.approx(_mp_integral(pp_product(g, v), g, rho), rel=1e-10)
    # the two terms of a split potential, built as kernels builds them
    first = integrate(PowerIntegrand(pp_product(src, v), g, rho)).value
    second = integrate(PowerIntegrand(pp_product(g, v), src, rho)).value
    assert first == pytest.approx(_mp_integral(pp_product(src, v), g, rho), rel=1e-10)
    assert second == pytest.approx(_mp_integral(pp_product(g, v), src, rho), rel=1e-10)
    split = potential_values(KernelSpec(MODE_SPLIT, prof), src, [rho])[0]
    assert split == pytest.approx(first + second, rel=1e-15)


@pytest.mark.parametrize("rho", [1e20, 1e40])
def test_split_terms_of_a_grid_source_at_huge_radii(rho):
    # in the first term every grid node lies in the low zone, whose whole
    # pieces come from the moment table; rho**(sigma - k) is formed in the
    # exponent
    src = reference_sources()["grid48"].as_piecewise()
    g = profile_piecewise("g", PROF)
    v = profile_piecewise("v", PROF)
    for u, f in ((pp_product(src, v), g), (pp_product(g, v), src)):
        got = integrate(PowerIntegrand(u, f, rho)).value
        assert got == pytest.approx(_mp_integral(u, f, rho), rel=1e-10)


# the split potential of a source decaying like r**-3 has tail exponent
# alpha - gamma - 3, which is 0 at (8, 5, 6), so there the source decays like r**-4
@pytest.mark.parametrize("alpha, gamma, n, decay", [(6.0, 4.0, 6, 3.0), (7.0, 4.5, 5, 3.0),
                                                    (5.0, 3.0, 7, 3.0), (8.0, 5.0, 6, 4.0)])
def test_error_estimates_stay_below_1e_10_of_the_value(alpha, gamma, n, decay):
    # the Gauss zone's estimate is the distance between its two fixed levels;
    # both split terms of a grid source, and a two-regime composed kernel
    prof = ManifoldProfile(alpha, gamma, n)
    g = profile_piecewise("g", prof)
    v = profile_piecewise("v", prof)
    grid = default_grid(1024)
    src = RadialFunction(grid, (1.0 + grid) ** -decay).as_piecewise()
    for res in (integrate(PowerIntegrand(pp_product(src, v), g, grid)),
                integrate(PowerIntegrand(pp_product(g, v), src, grid)),
                compose_green(prof, np.geomspace(1e-3, 1e3, 121))):
        assert not res.diverged.any()
        pos = res.value > 0.0
        assert pos.any()
        assert np.all(res.abs_error_estimate[pos] <= 1e-10 * res.value[pos])


def _mp_surrogate_potential(prof, grid, values, tails, rho):
    """Surrogate-exact potential of the log-log interpolant of float nodes,
    with power-law tails through the end nodes, in closed form at 40 digits:
    rho**-gamma int_0^rho s w + int_rho^inf r**-gamma s w, w = alpha r**(alpha-1)."""
    with mpmath.workdps(40):
        al, gam, rho = mpmath.mpf(prof.alpha), mpmath.mpf(prof.gamma), mpmath.mpf(rho)
        g = [mpmath.mpf(x) for x in grid]
        v = [mpmath.mpf(x) for x in values]
        # (lo, hi, coefficient, exponent) of s on each piece
        pieces = [(mpmath.mpf(0), g[0], v[0] / g[0] ** tails[0], mpmath.mpf(tails[0]))]
        for i in range(len(g) - 1):
            e = mpmath.log(v[i + 1] / v[i]) / mpmath.log(g[i + 1] / g[i])
            pieces.append((g[i], g[i + 1], v[i] / g[i] ** e, e))
        pieces.append((g[-1], mpmath.inf, v[-1] / g[-1] ** tails[1], mpmath.mpf(tails[1])))

        def integral(c, q, lo, hi):   # int_lo^hi c r**(q-1) dr, q != 0
            if hi <= lo:
                return mpmath.mpf(0)
            return c * ((0 if mpmath.isinf(hi) else hi ** q) - (0 if lo == 0 else lo ** q)) / q

        inner = sum(integral(al * c, e + al, lo, min(hi, rho)) for lo, hi, c, e in pieces)
        outer = sum(integral(al * c, e + al - gam, max(lo, rho), hi) for lo, hi, c, e in pieces)
        return float(rho ** -gam * inner + outer)


@pytest.mark.parametrize("rho", [0.5, 999.0, 1000.25, 5000.0])
def test_steep_segment_surrogate_potential_against_mpmath(rho):
    # the segment (1000, 1000.5) rises with slope 55276: a linear
    # coefficient v/g**sigma leaves the float range
    grid = (1.0, 10.0, 1000.0, 1000.5, 2000.0)
    values = (1e-3, 1e-4, 1e-6, 1e6, 1e-2)
    src = RadialFunction(np.array(grid), np.array(values), 0.0, -8.0)
    got = potential_values(KernelSpec(MODE_SURROGATE, PROF), src, [rho])[0]
    ref = _mp_surrogate_potential(PROF, grid, values, (0.0, -8.0), rho)
    assert got == pytest.approx(ref, rel=1e-12)


# -- positivity and monotonicity of split potentials ------------------------

@st.composite
def ordered_grid_sources(draw):
    """(profile, s1, s2) with 0 <= s1 <= s2 pointwise: grid sources on one
    grid, s1 nonzero and possibly vanishing on some segments, s2 = s1 times
    a factor >= 1 at each node (so zeros, hold pieces and tails line up)."""
    gamma = draw(st.floats(1.0, 6.0))
    prof = ManifoldProfile(gamma * draw(st.floats(1.02, 1.98)), gamma, draw(st.integers(3, 8)))
    n = draw(st.integers(16, 128))
    grid = log_grid(10.0 ** draw(st.floats(-3, 0)), 10.0 ** draw(st.floats(1, 4)), n)
    logs = np.array(draw(st.lists(st.floats(-30.0, 30.0), min_size=n, max_size=n)))
    on = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    on[draw(st.integers(0, n - 1))] = True
    bump = np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n)))
    tail = prof.gamma - prof.alpha - draw(st.floats(0.2, 3.0))
    v1 = np.where(on, np.exp(logs), 0.0)
    return (prof, RadialFunction(grid, v1, 0.0, tail),
            RadialFunction(grid, v1 * (1.0 + bump), 0.0, tail))


@settings(max_examples=40, deadline=None)
@given(ordered_grid_sources(), st.lists(st.floats(1e-3, 1e5), min_size=1, max_size=8))
def test_split_potentials_positive_and_monotone(sources, rho):
    prof, s1, s2 = sources
    spec = KernelSpec(MODE_SPLIT, prof)
    lo = potential_values(spec, s1, rho)
    hi = potential_values(spec, s2, rho)
    assert np.all(lo > 0.0)
    assert np.all(lo <= hi * (1.0 + 1e-12))
