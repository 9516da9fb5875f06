"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, straight from the contract; nothing is deferred
to later calibration.
"""

import filecmp
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from biharm.cli import run as cli_run
from biharm.errors import DivergentIntegralError
from biharm.kernels import (BallSource, KernelSpec, MODE_EUCLIDEAN, MODE_SPLIT,
                            MODE_SURROGATE, compose_green, mc_oracle,
                            potential_values)
from biharm.liouville import WitnessConfig, verdict
from biharm.profiles import (ExponentPlan, ManifoldProfile, SourceProfile,
                             critical_exponent, plan_exponents)
from biharm.radial import RadialFunction, fit_loglog_slope, log_grid
from biharm.solver import (default_grid, estimate_constants, measure_lipschitz,
                           residual_check, solve_fixed_point, verify_prop1,
                           verify_prop2)
from biharm.spectral import (SurrogateOperator, annulus_mesh, check_inf_bound,
                             lambda1_annulus)

PROF = ManifoldProfile(6.0, 4.0, 6)
SRC = SourceProfile(0.0, 0.0)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL - {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s exceeds {budget_seconds}s"
    print(f"ACCEPTANCE {number:2d} PASS - {description} [{elapsed:.1f}s]", flush=True)


def test_criterion_1_exponent_table():
    with criterion(1, "critical exponent table, exact rational arithmetic", 1.0):
        assert critical_exponent(5, 3, 0) == Fraction(5)
        assert critical_exponent(6, 4, 0) == Fraction(3)
        assert critical_exponent(6, 4, 2) == Fraction(4)


def test_criterion_2_composed_kernel_closed_form():
    with criterion(2, "composed kernel value 1/6 and far-field slope -2", 60.0):
        assert compose_green(PROF, 1.0).value == pytest.approx(1.0 / 6.0, abs=1e-6)
        rhos = np.geomspace(1e2, 1e4, 17)
        vals = np.array([compose_green(PROF, r).value for r in rhos])
        assert fit_loglog_slope(rhos, vals) == pytest.approx(-2.0, abs=0.05)


def test_criterion_3_finiteness_dichotomy():
    with criterion(3, "divergence iff gamma <= alpha/2 on a 20-point grid", 60.0):
        cases = 0
        for alpha in (4.0, 5.0, 6.0, 7.0, 8.0):
            for offset in (-0.25, 0.0, 0.25, 1.0):
                gamma = alpha / 2.0 + offset
                res = compose_green(ManifoldProfile(alpha, gamma, 6), 2.0)
                assert res.diverged == (gamma <= alpha / 2.0)
                cases += 1
        assert cases == 20


def test_criterion_4_euclidean_oracle_agreement():
    with criterion(4, "euclidean kernel vs Monte Carlo on 20 seeded cases", 120.0):
        spec = KernelSpec(MODE_EUCLIDEAN, PROF)
        # anchor: potential of the unit ball at the origin is pi**3/2
        ball = BallSource(1.0)
        est, se = mc_oracle(6, 0.0, ball, 400000, seed=1000)
        assert est == pytest.approx(math.pi ** 3 / 2.0, rel=1e-12)
        assert abs(est - potential_values(spec, ball, [0.0])[0]) <= 3.0 * se + 1e-12
        # anchor: far field equals mass * |x|**(2-n) = (pi**3/6) * 1e-4
        est, se = mc_oracle(6, 10.0, ball, 1000000, seed=1001)
        exact = potential_values(spec, ball, [10.0])[0]
        assert exact == pytest.approx(math.pi ** 3 / 6.0 * 1e-4, rel=1e-12)
        assert abs(est - exact) <= 3.0 * se
        rng = np.random.default_rng(2024)
        for case in range(18):
            radius = rng.uniform(0.5, 2.0)
            height = rng.uniform(0.5, 2.0)
            regime = case % 3
            if regime == 0:
                x = rng.uniform(0.0, radius)
            elif regime == 1:
                x = rng.uniform(radius, 2.0 * radius)
            else:
                x = rng.uniform(2.0 * radius, 15.0)
            src = BallSource(radius, height)
            est, se = mc_oracle(6, x, src, 200000, seed=1100 + case)
            exact = potential_values(spec, src, [x])[0]
            assert abs(est - exact) <= 3.0 * se + 1e-12, (case, x, radius)


def test_criterion_5_eigenvalue_scaling():
    with criterion(5, "surrogate eigenvalue scaling and interval sanity", 60.0):
        # at alpha = gamma, Euler's equation: (gamma**2/4 + pi**2/ln(r2/r1)**2)/(gamma*alpha)
        gamma, r_in, r_out = 2.0, 1.0, math.e
        exact = (gamma ** 2 / 4.0 + math.pi ** 2 / math.log(r_out / r_in) ** 2) / (gamma * gamma)
        res = lambda1_annulus(SurrogateOperator(gamma, gamma), r_in, r_out, 256)
        assert res.value == pytest.approx(exact, abs=1e-3)
        for alpha, gamma in ((6.0, 4.0), (5.0, 3.0), (4.5, 3.0)):
            op = SurrogateOperator(alpha, gamma)
            radii = [1e2, 1e3, 1e4]
            lams = [lambda1_annulus(op, R / 4.0, R, 256).value for R in radii]
            slope = fit_loglog_slope(np.array(radii), np.array(lams))
            assert slope == pytest.approx(-(alpha - gamma), rel=0.05)


def test_criterion_6_infimum_inequality_suite():
    with criterion(6, "fourth-order infimum inequality on 100 random cases", 120.0):
        from scipy.linalg import eigh_tridiagonal
        import biharm.spectral as spectral
        # equality case: the discrete eigenfunction sits at zero within tau_fd
        op = SurrogateOperator(6.0, 4.0)
        n = 256
        grid = annulus_mesh(1.0, 4.0, n)
        ab, w = spectral._assemble(op, 1.0, 4.0, n)
        evals, evecs = eigh_tridiagonal(ab[1] / w, ab[0, 1:] / np.sqrt(w[:-1] * w[1:]),
                                        select="i", select_range=(0, 0))
        values = np.zeros(grid.size)
        values[1:-1] = np.abs(evecs[:, 0]) / np.sqrt(w)
        chk = check_inf_bound(op, RadialFunction(grid, values), float(evals[0]))
        assert abs(chk.min_value) <= chk.tau_fd

        from biharm.radial import PiecewisePower
        rng = np.random.default_rng(99)
        for _ in range(100):
            r_in = rng.uniform(0.5, 2.0)
            r_out = r_in * rng.uniform(3.0, 9.0)
            alpha = rng.uniform(4.0, 7.0)
            gamma = rng.uniform(alpha / 2 + 0.3, alpha - 0.3)
            opi = SurrogateOperator(alpha, gamma)
            mesh = annulus_mesh(r_in, r_out, 160)
            lo = r_in + (r_out - r_in) * rng.uniform(0.25, 0.4)
            hi = r_in + (r_out - r_in) * rng.uniform(0.55, 0.75)
            q = rng.uniform(-2.0, 2.0)
            bump = PiecewisePower((0.0, lo, hi, math.inf),
                                  (0.0, rng.uniform(0.5, 4.0) / lo ** q, 0.0),
                                  (0.0, q, 0.0))
            spec = KernelSpec(MODE_SURROGATE, ManifoldProfile(alpha, gamma, 6))
            f = RadialFunction(mesh, potential_values(spec, bump, mesh))
            lam = lambda1_annulus(opi, r_in, r_out, 128)
            assert check_inf_bound(opi, f, lam).holds


def test_criterion_7_witness_triptych_and_sign_agreement():
    with criterion(7, "witness triptych at (6,4,0) plus 50-tuple sign agreement", 300.0):
        cfg = WitnessConfig()
        rep2 = verdict(PROF, SRC, 2.0, cfg, mesh=256)
        assert rep2.verdict == "CONTRADICTION"
        assert rep2.gap_fitted == pytest.approx(4.0, abs=0.2)

        rep3 = verdict(PROF, SRC, 3.0, cfg, mesh=256)
        assert rep3.verdict == "CONTRADICTION"
        assert rep3.e_rhs == pytest.approx(-2.0, abs=0.1)
        assert rep3.e_lambda == pytest.approx(-2.0, abs=0.1)
        assert rep3.log_flag and rep3.log_correlation >= 0.999

        rep4 = verdict(PROF, SRC, 4.0, cfg, mesh=256)
        assert rep4.verdict == "NO_CONTRADICTION"

        rng = np.random.default_rng(31)
        checked = 0
        while checked < 50:
            alpha = rng.uniform(4.0, 7.0)
            gamma = rng.uniform(alpha / 2 + 0.3, alpha - 0.3)
            m = rng.uniform(max(2 * (gamma - alpha) + 0.3, -1.0), 1.5)
            p_star = (alpha + m) / (2 * gamma - alpha)
            sub = rng.random() < 0.5
            if sub:
                if p_star < 1.3:
                    continue
                p = rng.uniform(1.15, p_star - 0.15) if p_star - 0.15 > 1.15 else p_star - 0.1
            else:
                p = p_star + rng.uniform(0.15, 1.5)
            prof = ManifoldProfile(alpha, gamma, 6)
            src = SourceProfile(min(m, 0.0), m)
            rep = verdict(prof, src, p, cfg, mesh=128)
            assert rep.sign_agreement, (alpha, gamma, m, p, rep.gap_fitted, rep.gap_rational)
            if sub:
                assert rep.verdict == "CONTRADICTION", (alpha, gamma, m, p)
            else:
                assert rep.verdict != "CONTRADICTION", (alpha, gamma, m, p)
            checked += 1


def test_criterion_8_bounded_potential_checks():
    with criterion(8, "bounded-potential sup-ratios and the named divergence error", 120.0):
        plan = plan_exponents(PROF, SRC, 4)
        assert float(plan.a) == 0.875 and float(plan.b) == 2.0
        spec = KernelSpec(MODE_SPLIT, PROF)
        grid = log_grid(1e-2, 1e4, 384)
        check1 = verify_prop1(plan, spec, SRC, grid)
        check2 = verify_prop2(plan, spec, SRC, grid)
        for sup in (check1.sup_ratio1, check1.sup_ratio2, check2.sup_ratio, check2.global_sup):
            assert 0.0 < sup < math.inf
        for var in (check1.variation1, check1.variation2, check2.variation):
            assert var < 0.20
        broken = ExponentPlan(4.0, 0.7, 2.0)
        with pytest.raises(DivergentIntegralError, match="condition 3 \\(weighted_source_tail\\)"):
            verify_prop1(broken, spec, SRC, grid)


def test_criterion_9_fixed_point_and_residuals():
    with criterion(9, "fixed point: contraction, membership, residual order", 300.0):
        plan = plan_exponents(PROF, SRC, 4)
        spec = KernelSpec(MODE_SURROGATE, PROF)
        grid = default_grid(1024)
        constants = estimate_constants(plan, spec, SRC, grid)
        report = solve_fixed_point(plan, spec, SRC, grid, tol=1e-10)
        assert report.final_step < 1e-10
        assert report.membership_margin > 0.0

        predictor = constants.C_prime * 4.0 * report.l ** 3
        lipschitz = measure_lipschitz(report.plan, spec, SRC, default_grid(512),
                                      pairs=30, seed=17)
        assert lipschitz < 1.0
        assert lipschitz <= predictor * (1.0 + 1e-9)
        bound = math.ceil(math.log(1e-10) / math.log(lipschitz)) + 2
        assert report.iterations <= bound

        res_by_nodes = {}
        for nodes in (2048, 4096):
            rep = solve_fixed_point(plan, spec, SRC, default_grid(nodes), tol=1e-10)
            res_by_nodes[nodes] = residual_check(PROF, rep)
        res1, res2 = res_by_nodes[2048]
        assert res1 <= 1e-3 and res2 <= 1e-3
        shrink1 = res_by_nodes[2048][0] / res_by_nodes[4096][0]
        shrink2 = res_by_nodes[2048][1] / res_by_nodes[4096][1]
        assert 3.0 <= shrink1 <= 5.5
        assert 3.0 <= shrink2 <= 5.5


def test_criterion_10_deterministic_artifacts(tmp_path):
    with criterion(10, "byte-identical artifacts across repeated runs", 120.0):
        witness_args = ["witness", "--alpha", "6", "--gamma", "4", "--m", "0",
                        "--p", "3", "--mesh", "96",
                        "--r-values", "1024,4096,16384,65536"]
        oracle_args = ["oracle", "--n", "6", "--x", "4", "--ball-radius", "1.5",
                       "--samples", "100000", "--seed", "77"]
        solve_args = ["solve", "--alpha", "6", "--gamma", "4", "--s", "0",
                      "--p", "4", "--nodes", "256"]
        for out in (tmp_path / "a", tmp_path / "b"):
            assert cli_run(witness_args + ["--out-dir", str(out / "w")]) == 0
            assert cli_run(oracle_args + ["--out-dir", str(out / "o")]) == 0
            assert cli_run(solve_args + ["--out-dir", str(out / "s")]) == 0
        for sub, names in (("w", ("report.json", "witness.csv", "resolved.cfg")),
                           ("o", ("report.json", "resolved.cfg")),
                           ("s", ("report.json", "solution.csv", "resolved.cfg"))):
            for name in names:
                a = tmp_path / "a" / sub / name
                b = tmp_path / "b" / sub / name
                assert filecmp.cmp(a, b, shallow=False), f"{sub}/{name}"
