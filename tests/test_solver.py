"""Existence machinery: bounds, constants, smallness, Picard iteration, residuals."""

import math

import numpy as np
import pytest

from biharm.errors import DivergentIntegralError, NonConvergenceError, ParameterError
from biharm.kernels import KernelSpec, MODE_EUCLIDEAN, MODE_SPLIT, MODE_SURROGATE, potential
from biharm.profiles import (ExponentPlan, ManifoldProfile, SourceProfile, plan_exponents,
                             profile_piecewise)
from biharm.radial import PiecewisePower, RadialFunction, log_grid, pp_product
from biharm.solver import (apply_T, default_grid, estimate_constants,
                           measure_lipschitz, pick_l, residual_check,
                           solve_fixed_point, surrogate_fd_apply, verify_prop1,
                           verify_prop2, _envelope)

PROF = ManifoldProfile(6.0, 4.0, 6)
SRC = SourceProfile(0.0, 0.0)
PLAN = plan_exponents(PROF, SRC, 4)          # a = 7/8, b = 2
SPEC = KernelSpec(MODE_SURROGATE, PROF)
GRID = default_grid(512)
OUTSIDE_UNIT_BALL = PiecewisePower((0.0, 1.0, math.inf), (0.0, 1.0), (0.0, 0.0))


@pytest.fixture(scope="module")
def constants():
    return estimate_constants(PLAN, SPEC, SRC, GRID)


@pytest.fixture(scope="module")
def solved(constants):
    return solve_fixed_point(PLAN, SPEC, SRC, GRID, tol=1e-10, constants=constants)


def test_bounded_potential_checks_surrogate():
    check = verify_prop1(PLAN, SPEC, SRC, GRID)
    assert 0 < check.sup_ratio1 < math.inf and 0 < check.sup_ratio2 < math.inf
    assert check.variation1 < 0.20 and check.variation2 < 0.20


def test_contraction_checks_surrogate():
    check = verify_prop2(PLAN, SPEC, SRC, GRID)
    assert 0 < check.sup_ratio < math.inf
    assert 0 < check.global_sup < math.inf
    assert check.variation < 0.20


def test_broken_plan_names_the_failing_condition():
    broken = ExponentPlan(4.0, 0.7, 2.0)
    with pytest.raises(DivergentIntegralError, match="condition 3"):
        verify_prop1(broken, SPEC, SRC, GRID)
    with pytest.raises(DivergentIntegralError, match="weighted_source_tail"):
        verify_prop1(broken, SPEC, SRC, GRID)
    # the contraction side trips its combined tail inequality first
    with pytest.raises(ParameterError, match="combined tail"):
        verify_prop2(broken, SPEC, SRC, GRID)


def test_degenerate_grid_rejected():
    with pytest.raises(ParameterError, match="degenerate"):
        verify_prop1(PLAN, SPEC, SRC, np.array([1.0, 2.0]))


def test_combined_tail_inequality_precondition():
    # b barely above a breaks (2g-a)(b-a) > alpha-gamma; asserted pre-scan
    bad = ExponentPlan(4.0, 0.875, 0.9)
    with pytest.raises(ParameterError, match="combined tail"):
        verify_prop2(bad, SPEC, SRC, GRID)


def test_pick_l_reference_value():
    # 0.9 * min((1/20)**(1/3), (1/40)**(1/3)) = 0.9 * 0.2924017... = 0.2631615...
    l = pick_l(ExponentPlan(4.0, 0.875, 2.0), 10.0, 10.0)
    assert l == pytest.approx(0.263161596439158, rel=1e-12)
    assert 2 * 10.0 * l ** 4 < l
    assert 10.0 * 4 * l ** 3 < 1.0


def test_pick_l_linear_case():
    # p = 2 with negligible contraction constant: l = 0.9 / (2C)
    l = pick_l(ExponentPlan(2.0, 0.5, 1.5), 5.0, 1e-9)
    assert l == pytest.approx(0.9 / 10.0, rel=1e-12)


def test_constants_stable_under_refinement(constants):
    finer = estimate_constants(PLAN, SPEC, SRC, default_grid(1024))
    assert finer.C == pytest.approx(constants.C, rel=0.01)
    assert finer.C_prime == pytest.approx(constants.C_prime, rel=0.01)


def test_constants_monotone_in_grid_range(constants):
    sub = estimate_constants(PLAN, SPEC, SRC, log_grid(1e-1, 1e3, 256))
    assert sub.C <= constants.C * (1 + 1e-9)
    assert sub.C_prime <= constants.C_prime * (1 + 1e-9)


def test_profile_modes_give_comparable_constants():
    # pure-power profiles make the weighted source non-integrable at the
    # origin, so the comparability scan uses sources supported outside the
    # unit ball, where the modes may differ only through the measure
    sups = {}
    for mode in ("two-regime", "pure-power"):
        prof = ManifoldProfile(6.0, 4.0, 6, mode=mode)
        spec = KernelSpec(MODE_SURROGATE, prof)
        source = pp_product(profile_piecewise("psi", prof, SRC),
                            profile_piecewise("f", prof, power=3.5), OUTSIDE_UNIT_BALL)
        inner = potential(spec, source, GRID)
        outer = potential(spec, inner)
        fa = _envelope(prof, GRID, 0.875)
        sups[mode] = float(np.max(outer.values / fa))
    assert 0.2 < sups["pure-power"] / sups["two-regime"] < 5.0


def test_apply_T_from_zero(constants):
    l = pick_l(PLAN, constants.C, constants.C_prime)
    plan = PLAN.with_l(l)
    out = apply_T(plan, SPEC, SRC, RadialFunction(GRID, np.zeros_like(GRID)))
    fa = _envelope(PROF, GRID, float(plan.a))
    assert np.all(out.values > 0.0)
    assert np.all(out.values <= plan.l * fa)


def test_apply_T_monotone(constants):
    rng = np.random.default_rng(2)
    l = pick_l(PLAN, constants.C, constants.C_prime)
    plan = PLAN.with_l(l)
    fa = _envelope(PROF, GRID, float(plan.a))
    u1 = l * fa * rng.uniform(0.0, 0.6, GRID.size)
    u2 = u1 + l * fa * rng.uniform(0.0, 0.4, GRID.size)
    t1 = apply_T(plan, SPEC, SRC, RadialFunction(GRID, u1))
    t2 = apply_T(plan, SPEC, SRC, RadialFunction(GRID, u2))
    assert np.all(t2.values >= t1.values)


def test_apply_T_membership_enforced(constants):
    l = pick_l(PLAN, constants.C, constants.C_prime)
    plan = PLAN.with_l(l)
    fa = _envelope(PROF, GRID, float(plan.a))
    with pytest.raises(ParameterError, match="invariant set"):
        apply_T(plan, SPEC, SRC, RadialFunction(GRID, 2.0 * l * fa))
    with pytest.raises(ParameterError, match="smallness"):
        apply_T(PLAN, SPEC, SRC, RadialFunction(GRID, np.zeros_like(GRID)))


def test_invariant_set_preserved_no_tolerance(constants):
    rng = np.random.default_rng(8)
    l = pick_l(PLAN, constants.C, constants.C_prime)
    plan = PLAN.with_l(l)
    fa = _envelope(PROF, GRID, float(plan.a))
    for _ in range(100):
        u = l * fa * rng.uniform(0.0, 1.0, GRID.size)
        out = apply_T(plan, SPEC, SRC, RadialFunction(GRID, u))
        assert np.all(out.values >= 0.0)
        assert np.all(out.values <= l * fa)


def test_measured_lipschitz_band(constants):
    l = pick_l(PLAN, constants.C, constants.C_prime)
    plan = PLAN.with_l(l)
    predictor = constants.C_prime * 4.0 * l ** 3
    measured = measure_lipschitz(plan, SPEC, SRC, GRID, pairs=30, seed=1)
    assert measured < 1.0
    assert 0.5 * predictor <= measured <= predictor * (1.0 + 1e-9)


def test_solve_converges_and_stays_inside(solved):
    assert solved.final_step < 1e-10
    assert solved.membership_margin > 0.0
    assert solved.measured_rate < 1.0
    assert np.all(solved.u.values > 0.0)
    assert np.all(solved.h.values > 0.0)


def test_solve_iteration_bound(solved, constants):
    measured = measure_lipschitz(solved.plan, SPEC, SRC, GRID, pairs=20, seed=3)
    bound = math.ceil(math.log(1e-10) / math.log(measured)) + 2
    assert solved.iterations <= bound


def test_fixed_point_reapplication(solved):
    again = apply_T(solved.plan, SPEC, SRC, solved.u)
    fa = _envelope(PROF, GRID, float(solved.plan.a))
    assert float(np.max(np.abs(again.values - solved.u.values) / fa)) < 1e-9


def test_iterates_increase_monotonically(constants):
    l = pick_l(PLAN, constants.C, constants.C_prime)
    plan = PLAN.with_l(l)
    u = RadialFunction(GRID, np.zeros_like(GRID))
    prev = u.values
    for _ in range(3):
        u = apply_T(plan, SPEC, SRC, u)
        assert np.all(u.values >= prev)
        prev = u.values


def test_solve_nonconvergence_raises():
    with pytest.raises(NonConvergenceError):
        solve_fixed_point(PLAN, SPEC, SRC, GRID, tol=1e-10, maxit=1)


@pytest.mark.parametrize("nodes", [256, 512, 1024, 2048, 4096])
def test_crossover_is_one_node_with_one_kink_stencil(nodes):
    grid = default_grid(nodes)
    i = (grid.size - 1) // 3
    assert grid[i] == 1.0
    # the operator is linear: node j uses the centered stencil iff its value
    # depends on both neighbours; a one-sided kink stencil drops one of them
    cols = {}
    for k in range(i - 9, i + 10):
        unit = np.zeros(grid.size)
        unit[k] = 1.0
        cols[k] = surrogate_fd_apply(PROF, grid, unit)
    window = range(i - 8, i + 9)
    one_sided = [j for j in window if cols[j - 1][j - 1] == 0.0 or cols[j + 1][j - 1] == 0.0]
    assert one_sided == [i]


def test_surrogate_stencil_needs_the_crossover_node():
    grid = log_grid(1e-3, 1e6, 1001)   # spans r = 1 without a node there
    assert not (grid == 1.0).any()
    with pytest.raises(ParameterError, match="crossover"):
        surrogate_fd_apply(PROF, grid, np.ones(grid.size))


def test_surrogate_stencil_is_central_on_a_grid_beyond_the_crossover():
    grid = log_grid(2.0, 1e4, 64)
    vals = (1.0 + grid) ** -2.5
    dt = np.log(grid[1]) - np.log(grid[0])
    utt = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / dt ** 2
    ut = (vals[2:] - vals[:-2]) / (2.0 * dt)
    central = -grid[1:-1] ** (4.0 - 6.0) * (utt + 4.0 * ut) / (6.0 * 4.0)
    assert np.array_equal(surrogate_fd_apply(PROF, grid, vals), central)


def test_residual_check_requires_surrogate(solved):
    split_report = type(solved)(**{**solved.__dict__, "spec": KernelSpec(MODE_SPLIT, PROF)})
    with pytest.raises(ParameterError, match="surrogate"):
        residual_check(PROF, split_report)


def test_residuals_small_on_solver_grid(solved):
    res1, res2 = residual_check(PROF, solved)
    assert res1 < 5e-3 and res2 < 5e-3


def test_manufactured_pair_residuals():
    # oracle: u* = potential(potential(src)) satisfies L u* = potential(src)
    # and L potential(src) = src exactly in the continuum
    grid = default_grid(1024)
    src_vals = pp_product(profile_piecewise("psi", PROF, SRC),
                          profile_piecewise("f", PROF, power=3.5)).eval(grid)
    src_rf = RadialFunction(grid, src_vals)
    h_star = potential(SPEC, src_rf)
    u_star = potential(SPEC, h_star)
    res1 = np.max(np.abs(surrogate_fd_apply(PROF, grid, u_star.values) - h_star.values[1:-1]))
    res1 /= np.abs(h_star.values).max()
    res2 = np.max(np.abs(surrogate_fd_apply(PROF, grid, h_star.values) - src_vals[1:-1]))
    res2 /= np.abs(src_vals).max()
    assert res1 < 1e-3 and res2 < 1e-3


def test_split_mode_prop_checks_small_grid():
    spec = KernelSpec(MODE_SPLIT, PROF)
    grid = log_grid(1e-2, 1e4, 128)
    check = verify_prop1(PLAN, spec, SRC, grid)
    assert 0 < check.sup_ratio1 < math.inf and 0 < check.sup_ratio2 < math.inf


def test_weighted_source_ratio_flattens_far_out():
    # with b at its inclusive endpoint the envelope bound is sharp, so the
    # ratio's log-log slope tends to zero
    from biharm.radial import fit_loglog_slope
    spec = KernelSpec(MODE_SPLIT, PROF)
    grid = log_grid(1e-2, 1e4, 160)
    source = pp_product(profile_piecewise("psi", PROF, SRC),
                        profile_piecewise("f", PROF, power=3.5))
    p1 = potential(spec, source, grid)
    ratio = p1.values / profile_piecewise("f", PROF, power=2.0).eval(grid)
    mask = grid >= grid[-1] / 10.0
    assert abs(fit_loglog_slope(grid[mask], ratio[mask])) < 0.05
