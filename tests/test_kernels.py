"""Composed Green kernel, potential operators in three modes, MC oracle;
batched quadrature against the scalar values it replaced and 30-digit
mpmath references; positivity and monotonicity of split potentials."""

import bisect
import json
import math
import re
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from biharm.errors import DivergentIntegralError, ParameterError
from biharm.kernels import (BallSource, KERNEL_MODES, KernelSpec, MODE_EUCLIDEAN, MODE_SPLIT,
                            MODE_SURROGATE, annulus_lower_bound, compose_green, mc_oracle,
                            potential, potential_values, sphere_area)
from biharm.profiles import ManifoldProfile, SourceProfile, profile_piecewise
from biharm import kernels, quad
from biharm.quad import PowerIntegrand, integrate, integrate_grid
from biharm.radial import (PiecewisePower, RadialFunction, fit_loglog_slope, log_grid,
                           power_integral, pp_product)
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


@pytest.mark.parametrize("on_grid", [False, True])
def test_split_divergence_names_the_end_that_diverges(on_grid):
    # u = src * v is r**-7 * r**6 near the origin, r**-5 * r**6 near infinity
    # (tail exponent 1 - 4 = -3 < 0), then r**-2 * r**6 (tail exponent 0)
    spec = KernelSpec(MODE_SPLIT, PROF)
    grid = default_grid(64)
    vals = (1.0 + grid) ** -3.0
    for tails, rho, want in (((-7.0, -5.0), [0.5, 2.0], ("origin", -1.0)),
                             ((0.0, -2.0), [0.5, 2.0], ("tail", 0.0))):
        if on_grid:
            source, rho = RadialFunction(grid, vals, *tails), grid
        else:
            source = PiecewisePower((0.0, 1.0, INF), (1.0, 1.0), tails)
        with pytest.raises(DivergentIntegralError) as err:
            potential_values(spec, source, rho)
        assert (err.value.location, err.value.exponent) == want
        assert f"{want[1]}" in str(err.value)


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
    samples = (1 << 16) + 1001   # two batches
    assert mc_oracle(12, 0.3, ball, samples, seed=12) == mc_oracle(12, 0.3, ball, samples, seed=12)


@pytest.mark.parametrize("n", [5, 6, 12, 107, 340])
def test_direction_cosines_have_the_sphere_coordinate_law(n):
    # u_1 of u uniform on S**(n-1): E u_1**(2k) = (2k-1)!! / (n (n+2) ... (n+2k-2)),
    # so the exact moments up to the eighth fix both means and their errors
    draws = 10 ** 6
    omega = kernels._direction_cosines(np.random.default_rng(20240), n, draws)
    assert omega.shape == (draws,) and np.all(np.abs(omega) <= 1.0)
    m2, m4 = 1.0 / n, 3.0 / (n * (n + 2))
    m6, m8 = 15.0 / (n * (n + 2) * (n + 4)), 105.0 / (n * (n + 2) * (n + 4) * (n + 6))
    sq = omega * omega
    for mean, exact, var in ((np.mean(sq), m2, m4 - m2 ** 2),
                             (np.mean(sq * sq), m4, m8 - m4 ** 2)):
        assert abs(mean - exact) <= 5.0 * math.sqrt(var / draws), (mean, exact)


@pytest.mark.parametrize("n, x, radius", [
    (5, 0.5, 1.0), (5, 3.0, 1.0), (12, 1.0, 1.5), (12, 6.0, 1.0),
    (50, 0.3, 1.0), (50, 15.0, 1.0), (107, 0.2, 0.5), (107, 10.0, 1.0),
])
def test_oracle_is_unbiased_in_every_dimension(n, x, radius):
    # near field (x < 2 * radius) and far field at each n, the far x of order
    # sqrt(n) or more, where the kernel's spread over the ball stays moderate
    src = BallSource(radius)
    prof = ManifoldProfile(float(n), n - 2.0, n)
    exact = potential_values(KernelSpec(MODE_EUCLIDEAN, prof), src, [x])[0]
    for seed in range(5):
        est, se = mc_oracle(n, x, src, 200000, seed)
        assert abs(est - exact) <= 4.0 * se, (seed, est, exact, se)


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


def _max_kernel_values_splitting_every_radius(kexp, weighted, rho):
    """_max_kernel_values with every radius split inside its piece."""
    b, lc, e = weighted.bounds, weighted.log_coefs, weighted.exps
    prefix = np.concatenate([[0.0], np.cumsum(power_integral(lc, e, b[:-1], b[1:]))])
    outer_full = power_integral(lc, e + kexp, b[:-1], b[1:])
    suffix = np.concatenate([np.cumsum(outer_full[::-1])[::-1], [0.0]])
    idx = weighted.piece_index(rho)
    inner = prefix[idx] + power_integral(lc[idx], e[idx], b[idx], rho)
    outer = suffix[idx + 1] + power_integral(lc[idx], e[idx] + kexp, rho, b[idx + 1])
    pos = rho > b[:-1][lc > -INF].min(initial=INF)
    first = np.zeros_like(rho)
    first[pos] = rho[pos] ** kexp * inner[pos]
    return first + outer


@pytest.mark.parametrize("mode", [MODE_SURROGATE, MODE_EUCLIDEAN])
def test_max_kernel_values_skip_empty_splits_exactly(mode):
    # at a piece's start the split pieces are an empty interval and a whole
    # piece, already in the prefix and suffix sums
    kexp, measure = kernels._max_kernel_data(KernelSpec(mode, PROF))
    grid = default_grid(256)
    between = np.sqrt(grid[1:] * grid[:-1])
    rho = np.concatenate([[0.0], grid, between, grid * (1.0 + 1e-6), [1e-5, 2e6, 1e30]])
    grid_source = RadialFunction(grid, PSI_F.eval(grid))
    shell = PiecewisePower((0.0, 0.5, 1.0, INF), (0.0, 2.0, 0.0), (0.0, -1.5, 0.0))
    for source in (grid_source.as_piecewise(), PSI_F, shell):
        weighted = pp_product(source, measure)
        got = kernels._max_kernel_values(kexp, weighted, rho)
        assert np.array_equal(got, _max_kernel_values_splitting_every_radius(kexp, weighted, rho))
        assert got[0] > 0.0


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

def _mp_integral(u, f, rho, method="tanh-sinh"):
    """int u(r) f(rho + r) dr/r at 30 digits, in t = ln r, cut at every
    breakpoint; between cuts the integrand is one power product, integrated
    as exp(log c + e_u t + e_f ln(rho + e^t))."""
    def piece(pp, bounds, x):
        j = min(max(bisect.bisect_right(bounds, float(x)) - 1, 0), pp.npieces - 1)
        return float(pp.log_coefs[j]), float(pp.exps[j])

    ub, fb = u.bounds.tolist(), f.bounds.tolist()

    with mpmath.workdps(30):
        rho = mpmath.mpf(rho)
        cuts = {float(b) for b in u.bounds[1:-1]} | {float(b - rho) for b in f.bounds[1:-1]
                                                       if b > rho} | {float(rho)}
        ts = [-mpmath.inf] + sorted(mpmath.log(c) for c in cuts) + [mpmath.inf]
        total = mpmath.mpf(0)
        for lo, hi in zip(ts, ts[1:]):
            # a point inside (lo, hi), where the pieces are read
            if mpmath.isfinite(lo + hi):
                t = (lo + hi) / 2
            else:
                t = lo + 1 if hi == mpmath.inf else hi - 1
            (lcu, eu), (lcf, ef) = piece(u, ub, mpmath.exp(t)), piece(f, fb, rho + mpmath.exp(t))
            if lcu + lcf > -math.inf:
                lc = mpmath.mpf(lcu) + lcf

                def log_h(t):
                    return lc + eu * t + ef * mpmath.log(rho + mpmath.exp(t))

                # mpmath.quad stops at an absolute error of 1e-30, so each
                # piece is scaled to its larger finite end
                peak = max(log_h(e) for e in (lo, hi) if mpmath.isfinite(e))
                total += mpmath.exp(peak) * mpmath.quad(lambda t: mpmath.exp(log_h(t) - peak),
                                                        [lo, hi], method=method)
        return float(total)


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
    assert green == pytest.approx(_mp_integral(pp_product(g, v), g, rho), rel=1e-10, abs=0.0)
    # the two terms of a split potential, built as kernels builds them
    first = integrate(PowerIntegrand(pp_product(src, v), g, rho)).value
    second = integrate(PowerIntegrand(pp_product(g, v), src, rho)).value
    assert first == pytest.approx(_mp_integral(pp_product(src, v), g, rho), rel=1e-10, abs=0.0)
    assert second == pytest.approx(_mp_integral(pp_product(g, v), src, rho), rel=1e-10, abs=0.0)
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
        assert got == pytest.approx(_mp_integral(u, f, rho), rel=1e-10, abs=0.0)


def test_split_terms_of_a_1024_node_grid_source_at_zone_seams():
    # the low zone keeps f's piece at rho alone, so its seam is f's next
    # bound: rho on a node (the low zone runs to the next one), one ulp below
    # the node 1, where g switches branch too (the low zone is ~1e-16 wide
    # and the near zone starts there), and beyond the last node (f's tail)
    prof = ManifoldProfile(7.0, 4.5, 5)
    g = profile_piecewise("g", prof)
    v = profile_piecewise("v", prof)
    grid = default_grid(1024)
    src = RadialFunction(grid, (1.0 + grid) ** -3.0).as_piecewise()
    rho = np.array([grid[500], np.nextafter(1.0, 0.0), 2.0 * grid[-1]])
    # _mp_integral(u, f, r, method="gauss-legendre") at each rho, stored: the
    # 1024-piece source makes each reference take about a second
    refs = ((0.17921720859889467, 0.6832873038511275, 0.0006465228638863379),
            (0.23082237084448115, 0.8399605581877464, 0.0008330700782776389))
    for (u, f), term_refs in zip(((pp_product(src, v), g), (pp_product(g, v), src)), refs):
        got = integrate(PowerIntegrand(u, f, rho))
        for i, ref in enumerate(term_refs):
            assert got.value[i] == pytest.approx(ref, rel=1e-10, abs=0.0)
            assert got.abs_error_estimate[i] <= 1e-10 * ref


# the split potential of a source decaying like r**-3 has tail exponent
# alpha - gamma - 3, which is 0 at (8, 5, 6), so there the source decays like r**-4
@pytest.mark.parametrize("alpha, gamma, n, decay", [(6.0, 4.0, 6, 3.0), (7.0, 4.5, 5, 3.0),
                                                    (5.0, 3.0, 7, 3.0), (8.0, 5.0, 6, 4.0)])
def test_error_estimates_stay_below_1e_10_of_the_value(alpha, gamma, n, decay):
    # the Gauss zone's estimate is a fixed share of its sum on slope-sized panels;
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


# -- grid sources on their own log-uniform grid --------------------------------

GRID_PROFILES = [ManifoldProfile(6.0, 4.0, 6),        # g and g*v one piece each
                 ManifoldProfile(7.0, 5.0, 6),        # both two pieces
                 ManifoldProfile(6.5, 6.0, 5),        # alpha - gamma = 0.5: e**x (e**x - 1)**-0.5
                 ManifoldProfile(9.0, 5.5, 8),        # (e**x - 1)**2.5 at r > 1, steep v inside
                 ManifoldProfile(5.0, 3.0, 6, "pure-power")]
GRIDS = {"default127": default_grid(128),             # 1.0 a node
         "default64": default_grid(64),               # h = 0.33: several panels a cell
         "log384": log_grid(1e-2, 1e4, 384)}          # 1.0 inside a cell


def grid_sources(prof, grid):
    """Smooth, zero-node (two runs of zeros) and one-steep-node sources on
    grid, decaying fast enough for the split potential to converge.  The
    steep node is 10 times its neighbours: log slope 64 on log384 (and
    slope times a ulp of ln r, the float error of any rule, stays ~1e-14)."""
    decay = prof.gamma - prof.alpha - 1.0
    smooth = (1.0 + grid) ** decay
    zeros = smooth * (1.0 + 0.3 * np.sin(3.0 * np.log(grid)))
    zeros[grid.size // 3:grid.size // 3 + 5] = 0.0
    zeros[-4:] = 0.0
    steep = smooth.copy()
    steep[grid.size // 2] *= 10.0
    return {"smooth": RadialFunction(grid, smooth, 0.5, decay),
            "zeros": RadialFunction(grid, zeros, 0.0, decay - 0.5),
            "steep": RadialFunction(grid, steep)}


def split_terms(prof, src):
    """The two split-potential integrands of kernels, on the source's grid."""
    g = profile_piecewise("g", prof)
    v = profile_piecewise("v", prof)
    pp = src.as_piecewise()
    return (PowerIntegrand(pp_product(pp, v), g, src.grid),
            PowerIntegrand(pp_product(g, v), pp, src.grid))


@pytest.fixture
def grid_path(monkeypatch):
    """Records, per integrate_grid call, whether the grid path returned."""
    taken = []
    real = quad._grid_integrate

    def spy(*args):
        res = real(*args)
        taken.append(res is not None)
        return res

    monkeypatch.setattr(quad, "_grid_integrate", spy)
    return taken


def assert_grid_matches(term):
    ref, got = integrate(term), integrate_grid(term)
    np.testing.assert_array_equal(got.diverged, ref.diverged)
    np.testing.assert_array_equal(got.tail_exponent, ref.tail_exponent)
    np.testing.assert_allclose(got.value, ref.value, rtol=1e-13, atol=0)
    live = ~ref.diverged & (ref.value > 0)
    assert np.all(got.abs_error_estimate[live] <= 1e-10 * got.value[live])


@pytest.mark.parametrize("prof", GRID_PROFILES, ids=lambda p: f"{p.alpha},{p.gamma},{p.dim_n}")
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("kind", ["smooth", "zeros", "steep"])
def test_grid_path_matches_integrate(grid_path, prof, grid, kind):
    src = grid_sources(prof, GRIDS[grid])[kind]
    for term in split_terms(prof, src):
        assert_grid_matches(term)
    assert grid_path == [True, True]
    values = potential_values(KernelSpec(MODE_SPLIT, prof), src, src.grid)
    ref = sum(integrate(term).value for term in split_terms(prof, src))
    np.testing.assert_allclose(values, ref, rtol=1e-13, atol=0)


def beyond(pp, lo, hi):
    """pp cut at lo and hi and vanishing between them: the source of the
    rows' tails past a padded grid with those ends."""
    b = np.unique(np.concatenate([pp.bounds, [lo, hi]]))
    p = pp.piece_index(b[:-1])
    keep = (b[1:] <= lo) | (b[:-1] >= hi)
    return PiecewisePower._from_logs(b, np.where(keep, pp.log_coefs[p], -np.inf),
                                     np.where(keep, pp.exps[p], 0.0))


def within(pp, lo, hi):
    """pp cut at lo and hi and vanishing past them: the source the grid path
    sums on a padded grid with those ends."""
    b = np.unique(np.concatenate([pp.bounds, [lo, hi]]))
    p = pp.piece_index(b[:-1])
    keep = (b[:-1] >= lo) & (b[1:] <= hi)
    return PiecewisePower._from_logs(b, np.where(keep, pp.log_coefs[p], -np.inf),
                                     np.where(keep, pp.exps[p], 0.0))


def tail_calls(monkeypatch, silent=False):
    """Records each _tail_series call's arguments and a copy of its result
    (the grid path adds into the arrays); with silent, every row's tails
    read 0 and are ok."""
    calls = []
    real = quad._tail_series

    def spy(*args):
        value, err, ok = real(*args)
        if silent:
            value, err, ok = np.zeros(ok.size), np.zeros(ok.size), np.ones(ok.size, bool)
        calls.append((args, (value.copy(), err.copy(), ok.copy())))
        return value, err, ok

    monkeypatch.setattr(quad, "_tail_series", spy)
    return calls


@pytest.mark.parametrize("prof", GRID_PROFILES, ids=lambda p: f"{p.alpha},{p.gamma},{p.dim_n}")
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("kind", ["smooth", "zeros", "steep"])
def test_grid_window_is_the_source_beyond_the_grid(monkeypatch, prof, grid, kind):
    # with every row's tails read as 0, the grid path is integrate of the
    # grid factor vanishing past the padded grid's ends: the window it sums
    # and the tails past it split the source with nothing left out or twice
    calls = tail_calls(monkeypatch, silent=True)
    x = GRIDS[grid]
    h = quad._log_step(x)
    for on_u, term in zip((True, False), split_terms(prof, grid_sources(prof, x)[kind])):
        calls.clear()
        got = quad._grid_integrate(term, h, on_u)
        [((_, _, _, lo, hi, _), _)] = calls
        assert hi > x[-1] and (lo < x[0] if on_u else lo == x[0])
        inside = within(term.u if on_u else term.f, lo, hi)
        ref = integrate(PowerIntegrand(inside, term.f, x) if on_u
                        else PowerIntegrand(term.u, inside, x))
        whole = integrate(term)
        np.testing.assert_array_equal(got.diverged, whole.diverged)
        live = ~whole.diverged
        np.testing.assert_allclose(got.value[live], ref.value[live], rtol=1e-13, atol=0)


@pytest.mark.parametrize("prof", GRID_PROFILES, ids=lambda p: f"{p.alpha},{p.gamma},{p.dim_n}")
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("kind", ["smooth", "zeros", "steep"])
def test_grid_tails_are_the_source_beyond_the_grid(monkeypatch, prof, grid, kind):
    # each row's series past the padded grid's ends against integrate of the
    # grid factor vanishing between them: u's for the first term, f's for
    # the second, whose grid is padded above only.  The pads reach past
    # every breakpoint a tail would cross, so each tail is one piece of the
    # grid factor w and one of the other factor kern at its row
    calls = tail_calls(monkeypatch)
    x = GRIDS[grid]
    h = quad._log_step(x)
    for on_u, term in zip((True, False), split_terms(prof, grid_sources(prof, x)[kind])):
        calls.clear()
        assert quad._grid_integrate(term, h, on_u) is not None
        [((w, kern, _, lo, hi, _), (value, err, ok))] = calls
        assert np.all(ok)
        assert hi >= w.bounds[-2]
        if on_u:
            assert lo <= w.bounds[1] and np.all(hi >= kern.bounds[-2] - x)
            assert np.all(lo <= kern.bounds[kern.piece_index(x) + 1] - x)
        else:
            assert lo == x[0] and np.all(hi >= x + kern.bounds[-2])
        tails = beyond(w, lo, hi)
        ref = integrate(PowerIntegrand(tails, kern, x) if on_u else PowerIntegrand(kern, tails, x))
        np.testing.assert_allclose(value, ref.value, rtol=1e-13, atol=0)
        assert np.all(err <= 1e-10 * value)


def test_grid_path_sums_f_grid_branch_cells_in_one_call(monkeypatch):
    # on f's grid one _branch_cells call takes every row, the last rows'
    # cells past the grid's end included; u's grid makes none
    calls = []
    real = quad._branch_cells
    monkeypatch.setattr(quad, "_branch_cells", lambda *args: calls.append(args[2]) or real(*args))
    for prof in GRID_PROFILES:
        for grid in GRIDS.values():
            h = quad._log_step(grid)
            for src in grid_sources(prof, grid).values():
                for on_u, term in zip((True, False), split_terms(prof, src)):
                    calls.clear()
                    assert quad._grid_integrate(term, h, on_u) is not None
                    assert [x.tolist() for x in calls] == ([] if on_u else [grid.tolist()])


def test_grid_path_never_calls_integrate(monkeypatch):
    # on both grids, for every profile, grid and source here: no call of
    # integrate's zones; and on f's grid g v = r**2 on both sides of 1 at
    # (7, 5, 6): one kernel piece, one correlation
    calls, pieces = [], []
    real_correlate = quad._correlate

    def correlations(*args):
        pieces.append(args)
        return real_correlate(*args)

    monkeypatch.setattr(quad, "integrate", lambda *args: calls.append(args))
    monkeypatch.setattr(quad, "_correlate", correlations)
    for prof in GRID_PROFILES:
        for grid in GRIDS.values():
            h = quad._log_step(grid)
            for src in grid_sources(prof, grid).values():
                for on_u, term in zip((True, False), split_terms(prof, src)):
                    pieces.clear()
                    assert quad._grid_integrate(term, h, on_u) is not None
                    assert calls == []
                    if not on_u and prof == GRID_PROFILES[1]:
                        assert len(pieces) == 1


def test_grid_path_uses_several_panels(monkeypatch):
    # at h = 0.33 the r**8 inside gives u a slope of 8: three panels a cell;
    # on log384 the steep node's two cells need three, so every cell gets
    # three (the second term's kernel (e**x - 1)**2.5 needs more anyway)
    panels = []
    real = quad._correlate

    def spy(F, *args):
        panels.append(F.shape[1] // quad._GAUSS_NODES.size)
        return real(F, *args)

    monkeypatch.setattr(quad, "_correlate", spy)
    prof = GRID_PROFILES[3]
    for grid, kind in (("default64", "smooth"), ("log384", "steep")):
        for term in split_terms(prof, grid_sources(prof, GRIDS[grid])[kind]):
            panels.append("term")
            assert_grid_matches(term)
    per_term = " ".join(map(str, panels)).split("term")[1:]
    assert [set(p.split()) for p in per_term] == [{"3"}, {"3"}, {"3"}, {"4"}]


def test_grid_path_leaves_steep_cells_and_large_tables_to_integrate(monkeypatch):
    # alpha - gamma = 5e5: each term needs ~5e5 panels a cell, past
    # _MAX_PANELS, so the grid path gives up before it builds a table, and
    # both routes end in integrate's range check
    grid = default_grid(128)
    for on_u, term in zip((True, False), split_terms(ManifoldProfile(2e6, 1.5e6, 6),
                                                     RadialFunction(grid, np.exp(-grid)))):
        tracemalloc.start()
        try:
            assert quad._grid_integrate(term, quad._log_step(grid), on_u) is None
            assert tracemalloc.get_traced_memory()[1] < 2 ** 20
        finally:
            tracemalloc.stop()
        with pytest.raises(ParameterError) as ref:
            integrate(term)
        with pytest.raises(ParameterError, match=re.escape(str(ref.value))):
            integrate_grid(term)
    # a jump of 1e3 between nodes asks for 8 panels a cell: a kernel table
    # of (2 x 144) x 8 panels, the 127 nodes and 9 pad nodes past each end
    # (ln 4 / h = 8.4 for h = 0.164), one short of passing a lowered
    # _GRID_PANELS
    jump = np.where(np.arange(grid.size) == 64, 1e3, 1.0)
    steep = RadialFunction(grid, (1.0 + grid) ** -3.0 * jump)
    term = split_terms(PROF, steep)[0]
    assert quad._grid_integrate(term, quad._log_step(grid), True) is not None
    monkeypatch.setattr(quad, "_GRID_PANELS", 288 * 8)
    assert quad._grid_integrate(term, quad._log_step(grid), True) is not None
    monkeypatch.setattr(quad, "_GRID_PANELS", 288 * 8 - 1)
    assert quad._grid_integrate(term, quad._log_step(grid), True) is None
    assert integrate_grid(term).value.tolist() == integrate(term).value.tolist()


@pytest.mark.parametrize("divergent", [(-7.0, -3.0), (0.5, -2.0)])
def test_grid_path_flags_divergence_as_integrate(grid_path, divergent):
    # origin (u = r**-1 at 0) and logarithmic tail (exponent 0) on one grid
    src = RadialFunction(default_grid(128), (1.0 + default_grid(128)) ** -3.0, *divergent)
    for term in split_terms(PROF, src):
        assert_grid_matches(term)
    assert grid_path == [True, True]


@st.composite
def log_uniform_sources(draw):
    """(profile, grid source) on a log-uniform grid: random node values,
    some of them 0, and random tails."""
    gamma = draw(st.floats(1.0, 6.0))
    prof = ManifoldProfile(gamma * draw(st.floats(1.02, 1.98)), gamma, draw(st.integers(3, 8)),
                           draw(st.sampled_from(["two-regime", "pure-power"])))
    n = draw(st.integers(3, 64))
    grid = log_grid(10.0 ** draw(st.floats(-3, 0)), 10.0 ** draw(st.floats(1, 4)), n)
    # a walk of up to 2 e-folds a node: log slopes up to ~55, where float
    # rounding in ln r costs either rule ~5e-14
    logs = np.cumsum(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    on = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    on[draw(st.integers(0, n - 1))] = True
    tails = (draw(st.floats(0.0, 4.0)), prof.gamma - prof.alpha - draw(st.floats(0.2, 3.0)))
    return prof, RadialFunction(grid, np.where(on, np.exp(logs), 0.0), *tails)


@settings(max_examples=40, deadline=None)
@given(log_uniform_sources())
# the window of the second term ends at a node whose cell is the first live
# one: a series piece of zero width there once read as nonzero, so the grid
# path gave up on a value of 0
@example((ManifoldProfile(1.5, 1.0, 3), RadialFunction(
    log_grid(0.1, 1e3, 10), np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 1.0, 0]), 0.0, -1.5)))
# a grid from 0.6: g's breakpoint at 1 cuts a pad cell below the grid; from
# 0.95 the ratio caps' pad would leave it in the first row's tail below the
# padded grid, so the pad runs on down to 1 - 0.95
@example((ManifoldProfile(7.0, 5.0, 6), RadialFunction(
    log_grid(0.6, 1e3, 12), (1.0 + log_grid(0.6, 1e3, 12)) ** -3.0, 1.0, -3.0)))
@example((ManifoldProfile(7.0, 5.0, 6), RadialFunction(
    log_grid(0.95, 1e3, 12), (1.0 + log_grid(0.95, 1e3, 12)) ** -3.0, 1.0, -3.0)))
# v's breakpoint at 1 in the tail above a grid that ends below 1 (and g v's in
# the second term's), or below one that starts above 1
@example((ManifoldProfile(9.0, 5.5, 8), RadialFunction(
    log_grid(1e-3, 0.5, 12), np.exp(-log_grid(1e-3, 0.5, 12)), 1.0, -4.5)))
@example((ManifoldProfile(9.0, 5.5, 8), RadialFunction(
    log_grid(2.0, 1e3, 12), log_grid(2.0, 1e3, 12) ** -4.5, 1.0, -4.5)))
# a divergent origin under a source that vanishes past the grid, and a divergent tail
@example((ManifoldProfile(7.0, 5.0, 6), RadialFunction(
    log_grid(1e-2, 1e2, 12), (1.0 + log_grid(1e-2, 1e2, 12)) ** -3.0 * (np.arange(12) < 11), -7.0, -3.0)))
@example((ManifoldProfile(7.0, 5.0, 6), RadialFunction(
    log_grid(1e-2, 1e2, 12), (1.0 + log_grid(1e-2, 1e2, 12)) ** -3.0, 0.5, -1.0)))
# a zero cell before the grid's end, then the tail: g v's breakpoint cuts the
# cell past the end, which the tail sums and the row's own cells must not
@example((ManifoldProfile(1.5, 1.0, 3), RadialFunction(
    log_grid(1.0, 10.0, 23), np.eye(1, 23, 0)[0] + np.eye(1, 23, 22)[0], 0.0, -1.5)))
# three nodes, h = ln 10: the tail series alone would need one pad node, but
# the last row's cells 0 and 1 past it on f's grid need two
@example((ManifoldProfile(1.5, 1.0, 3), RadialFunction(log_grid(0.1, 10.0, 3), [1.0, 0, 0])))
# ln(1/0.1)/h = 9: the first term's pad ends on v's breakpoint at 1, but its
# ninth node is built as 1 - 4.4e-16; a spare tenth node takes the pad past 1
@example((ManifoldProfile(9.0, 5.5, 8), RadialFunction(
    log_grid(0.01, 0.1, 10), np.exp(-log_grid(0.01, 0.1, 10)), 1.0, -4.5)))
def test_grid_path_matches_integrate_on_random_sources(source):
    # the grid path takes every term, and it makes no zone call
    prof, src = source
    taken, zone_calls, running = [], [], []
    real_grid, real_integrate = quad._grid_integrate, quad.integrate

    def grid_path(*args):
        running.append(True)
        try:
            taken.append(real_grid(*args))
        finally:
            running.pop()
        return taken[-1]

    def zones(integrand):
        zone_calls.extend(running)
        return real_integrate(integrand)

    quad._grid_integrate, quad.integrate = grid_path, zones
    try:
        for term in split_terms(prof, src):
            assert_grid_matches(term)
    finally:
        quad._grid_integrate, quad.integrate = real_grid, real_integrate
    assert all(res is not None for res in taken) and len(taken) == 2
    assert zone_calls == []


def test_other_inputs_keep_todays_values():
    spec = KernelSpec(MODE_SPLIT, ManifoldProfile(7.0, 5.0, 6))
    uniform = log_grid(1e-2, 1e4, 96)
    bent = uniform * np.exp(0.01 * np.sin(np.arange(96)))   # not log-uniform
    cases = [(RadialFunction(bent, (1.0 + bent) ** -3.0), bent),
             (RadialFunction(uniform, (1.0 + uniform) ** -3.0), uniform[::2]),    # off-grid radii
             (RadialFunction(uniform, (1.0 + uniform) ** -3.0), uniform * 1.5)]
    for src, rho in cases:
        g = profile_piecewise("g", spec.prof)
        v = profile_piecewise("v", spec.prof)
        pp = src.as_piecewise()
        today = (integrate(PowerIntegrand(pp_product(pp, v), g, rho)).value
                 + integrate(PowerIntegrand(pp_product(g, v), pp, rho)).value)
        assert potential_values(spec, src, rho).tolist() == today.tolist()
