"""Composed Green kernel, potential operators in three modes, MC oracle."""

import math

import numpy as np
import pytest

from biharm.errors import DivergentIntegralError, ParameterError
from biharm.kernels import (BallSource, KernelSpec, MODE_EUCLIDEAN, MODE_SPLIT,
                            MODE_SURROGATE, ProfilePowerSource, annulus_lower_bound,
                            compose_green, mc_oracle, potential, potential_values,
                            sphere_area)
from biharm.profiles import ManifoldProfile, SourceProfile
from biharm.radial import PiecewisePower, RadialFunction, fit_loglog_slope, log_grid

PROF = ManifoldProfile(6.0, 4.0, 6)
SRC = SourceProfile(0.0, 0.0)


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
    src_rf = RadialFunction.from_values(grid, np.exp(-np.log(grid) ** 2 / 2.0))
    split = potential(KernelSpec(MODE_SPLIT, PROF), src_rf, grid, SRC)
    surro = potential(KernelSpec(MODE_SURROGATE, PROF), src_rf, grid, SRC)
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
    spec = KernelSpec(MODE_SURROGATE, PROF)
    grid = log_grid(1e-1, 1e2, 32)
    out = potential(spec, RadialFunction.zero(grid))
    assert out.is_zero


def test_potential_monotone_in_source():
    rng = np.random.default_rng(12)
    grid = log_grid(1e-2, 1e3, 64)
    spec = KernelSpec(MODE_SURROGATE, PROF)
    base = np.exp(-np.log(grid) ** 2 / 2.0)   # tail steep enough to integrate
    lo = potential(spec, RadialFunction.from_values(grid, base))
    for _ in range(10):
        bump = base * (1.0 + 0.5 * rng.random(grid.size))
        hi = potential(spec, RadialFunction.from_values(grid, bump))
        assert np.all(hi.values >= lo.values)


def test_potential_positivity():
    spec = KernelSpec(MODE_SPLIT, PROF)
    grid = log_grid(1e-1, 1e2, 24)
    out = potential(spec, ProfilePowerSource((("psi", 1.0), ("f", 3.5))), grid, SRC)
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
    src = ProfilePowerSource((("psi", 1.0), ("f", 3.5)))
    split = potential(KernelSpec(MODE_SPLIT, PROF), src, grid, SRC)
    surro = potential(KernelSpec(MODE_SURROGATE, PROF), src, grid, SRC)
    ratio = split.values / surro.values
    assert ratio.max() / ratio.min() < 50.0


def test_radial_function_csv_round_trip(tmp_path):
    grid = log_grid(1e-2, 1e2, 33)
    rf = RadialFunction.from_values(grid, 2.0 * grid ** -1.5)
    path = tmp_path / "radial.csv"
    rf.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "rho,value"
    back = RadialFunction.read_csv(path)
    assert np.allclose(back.grid, rf.grid, rtol=1e-11)
    assert np.allclose(back.values, rf.values, rtol=1e-11)


def test_radial_function_power_interp_exact():
    grid = log_grid(1e-1, 1e2, 20)
    rf = RadialFunction.from_values(grid, 3.0 * grid ** -2.0)
    probe = np.geomspace(0.05, 300.0, 50)   # includes extrapolation regions
    assert np.allclose(rf(probe), 3.0 * probe ** -2.0, rtol=1e-9)
    assert rf.tail_left == pytest.approx(-2.0, abs=1e-9)
    assert rf.tail_right == pytest.approx(-2.0, abs=1e-9)


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


def test_sphere_area_values():
    assert sphere_area(6) == pytest.approx(math.pi ** 3, rel=1e-14)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
