"""Surrogate eigenvalues: discretization order, scaling law, infimum check."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh_tridiagonal, lapack

import biharm.spectral as spectral
from biharm import cli
from biharm.errors import ParameterError
from biharm.kernels import KernelSpec, MODE_SURROGATE, potential_values
from biharm.profiles import ManifoldProfile
from biharm.radial import PiecewisePower, RadialFunction
from biharm.spectral import (SurrogateOperator, annulus_mesh, check_annuli, check_inf_bound,
                             fd_error_constant, lambda1_annulus)

OP = SurrogateOperator(6.0, 4.0)


def euler_lambda1(gamma, r_in, r_out):
    """Exact lambda1 of SurrogateOperator(gamma, gamma) on (r_in, r_out): in
    t = ln r, u = r**(-gamma/2) v turns L into (-v'' + gamma**2/4 v)/gamma**2."""
    return (gamma ** 2 / 4.0 + math.pi ** 2 / math.log(r_out / r_in) ** 2) / gamma ** 2


def test_interval_laplacian_eigenvalue():
    # at alpha = gamma the operator is the interval Laplacian in ln r, shifted
    for gamma, r_in, r_out in ((2.0, 1.0, math.e), (3.0, 0.5, 2.0)):
        res = lambda1_annulus(SurrogateOperator(gamma, gamma), r_in, r_out, 256)
        exact = euler_lambda1(gamma, r_in, r_out)
        assert res.richardson == pytest.approx(exact, rel=1e-7, abs=0.0)
        assert abs(res.richardson - exact) <= res.error_estimate
        assert res.lambda1 > 0


def bessel_lambda1(alpha, gamma, r_in, r_out):
    """Exact lambda1 of SurrogateOperator(alpha, gamma), alpha != gamma, on
    (r_in, r_out): the first root in lambda of the cross-product
    J_nu(k x1) Y_nu(k x2) - J_nu(k x2) Y_nu(k x1), x = r**q (DLMF 10.21).

    The sign scan starts at the Rayleigh bound (min a / max w) pi**2/width**2
    and steps by 1.1; a step over two roots brackets a later eigenvalue,
    which the caller's comparison then fails on.
    """
    with mpmath.workdps(20):
        a, g, r1, r2 = map(mpmath.mpf, (alpha, gamma, r_in, r_out))
        nu, x1, x2 = g / abs(a - g), r1 ** ((a - g) / 2), r2 ** ((a - g) / 2)

        def sign(lam):
            k = 2 * mpmath.sqrt(lam * g * a) / abs(a - g)
            return mpmath.sign(mpmath.besselj(nu, k * x1) * mpmath.bessely(nu, k * x2)
                               - mpmath.besselj(nu, k * x2) * mpmath.bessely(nu, k * x1))

        min_a, max_w = r1 ** (g + 1) / g, a * max(r1 ** (a - 1), r2 ** (a - 1))
        lo = min_a / max_w * mpmath.pi ** 2 / (r2 - r1) ** 2
        s_lo = sign(lo)
        while sign(lo * mpmath.mpf("1.1")) == s_lo:
            lo *= mpmath.mpf("1.1")
        hi = lo * mpmath.mpf("1.1")
        for _ in range(50):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if sign(mid) == s_lo else (lo, mid)
        return float(lo)


@settings(max_examples=10, deadline=None)
@given(gamma=st.floats(1.2, 8.0), alpha_over_gamma=st.floats(1.1, 1.98),
       r_in=st.floats(-1.0, 2.0).map(lambda e: 10.0 ** e), r_ratio=st.floats(1.5, 32.0),
       mesh=st.sampled_from([64, 128, 256]))
@example(gamma=6.0, alpha_over_gamma=4.0 / 6.0, r_in=0.5, r_ratio=4.0, mesh=256)
# the h**2 and h**4 terms cancel in the (64, 128) increment: 9.4e-8 of lambda1,
# where the Richardson value is 2.5e-7 off; the (32, 64) pair's value is not
@example(gamma=3.46875, alpha_over_gamma=1.6171875, r_in=1.0, r_ratio=28.0, mesh=64)
def test_richardson_error_estimate_bounds_the_exact_eigenvalue(gamma, alpha_over_gamma, r_in,
                                                               r_ratio, mesh):
    # operators of the witness window gamma < alpha < 2 gamma, on annuli up to
    # the scan's (R/2, 16 R), and one alpha < gamma example
    alpha, r_out = alpha_over_gamma * gamma, r_ratio * r_in
    res = lambda1_annulus(SurrogateOperator(alpha, gamma), r_in, r_out, mesh)
    assert abs(res.richardson - bessel_lambda1(alpha, gamma, r_in, r_out)) <= res.error_estimate


def test_scaling_law_slope():
    radii = [1e2, 1e3, 1e4]
    lams = [lambda1_annulus(OP, R / 4.0, R, 192).value for R in radii]
    slope = np.polyfit(np.log(radii), np.log(lams), 1)[0]
    assert slope == pytest.approx(-2.0, rel=0.05)   # -(alpha - gamma)


def test_scaling_two_sided_constant():
    # lambda1 * R**(alpha-gamma) steady across two decades (observation)
    for alpha, gamma in ((6.0, 4.0), (5.0, 3.0), (4.5, 3.0)):
        op = SurrogateOperator(alpha, gamma)
        vals = [lambda1_annulus(op, R / 4.0, R, 128).value * R ** (alpha - gamma)
                for R in (1e2, 1e3, 1e4)]
        assert max(vals) / min(vals) < 1.10


def test_domain_monotonicity():
    assert lambda1_annulus(OP, 1.0, 2.0, 128).value > lambda1_annulus(OP, 1.0, 4.0, 128).value


def test_richardson_pair_ratio():
    coarse = lambda1_annulus(OP, 1.0, 4.0, 128)
    fine = lambda1_annulus(OP, 1.0, 4.0, 256)
    best = fine.richardson
    ratio = (coarse.lambda1 - best) / (fine.lambda1 - best)
    assert 3.5 <= ratio <= 4.5


def test_mesh_and_domain_validation():
    with pytest.raises(ParameterError):
        lambda1_annulus(OP, 2.0, 1.0, 128)
    with pytest.raises(ParameterError):
        lambda1_annulus(OP, 1.0, 2.0, 32)
    with pytest.raises(ParameterError):
        lambda1_annulus(OP, 0.0, 1.0, 128)   # surrogate needs r_in > 0


def _wrapped_smallest_eigenvalue(ab, w, rel_tol=1e-12, maxit=500):
    """The inverse iteration through scipy's checked banded Cholesky wrappers."""
    cb = cholesky_banded(ab)
    x = np.full(ab.shape[1], 1.0)
    x /= math.sqrt(float(x @ (w * x)))
    lam_prev = None
    for _ in range(maxit):
        y = cho_solve_banded((cb, False), w * x)
        norm = math.sqrt(float(y @ (w * y)))
        y /= norm
        lam = float(y @ (w * x)) / norm
        if lam_prev is not None and abs(lam - lam_prev) <= rel_tol * abs(lam):
            return lam
        lam_prev = lam
        x = y
    raise AssertionError("no convergence")


@pytest.mark.parametrize("mesh", [64, 256, 1024])
@pytest.mark.parametrize("op, r_in, r_out", [
    *((OP, R / 4.0, 16.0 * R) for R in np.geomspace(1e-3, 1e6, 4)),
    (SurrogateOperator(5.0, 3.0), 0.5e-3, 2e6),
    (SurrogateOperator(3.0, 3.0), 0.5, 2.0),
])
def test_lapack_iteration_equals_scipys_wrappers(op, r_in, r_out, mesh):
    # the same dpbtrf/dpbtrs calls without scipy's checks: every float the same
    ab, w = spectral._assemble(op, r_in, r_out, mesh)
    lam, _, _ = spectral._smallest_eigenvalue(ab, w)
    assert lam == _wrapped_smallest_eigenvalue(ab, w)


def test_not_positive_definite_is_a_parameter_error(monkeypatch):
    ab = np.array([[0.0, -3.0, -1.0], [2.0, 2.0, 2.0]])   # leading 2x2 minor 4 - 9 < 0
    with pytest.raises(ParameterError, match="not positive definite"):
        spectral._smallest_eigenvalue(ab, np.ones(3))
    monkeypatch.setattr(spectral, "_assemble", lambda op, r_in, r_out, n: (ab, np.ones(3)))
    with pytest.raises(ParameterError, match=r"annulus \(1.0, 2.0\): .* not positive definite"):
        lambda1_annulus(OP, 1.0, 2.0, 64)


def test_every_step_calls_the_module_solve(monkeypatch):
    # a profiler counts iterations by wrapping spectral.cho_solve_banded: it
    # is LAPACK's dpbtrs itself, so a scan for Python functions skips it
    assert spectral.cho_solve_banded is lapack.dpbtrs
    calls = []

    def counted(*args):
        calls.append(1)
        return lapack.dpbtrs(*args)

    monkeypatch.setattr(spectral, "cho_solve_banded", counted)
    ab, w = spectral._assemble(OP, 1.0, 4.0, 64)
    spectral._smallest_eigenvalue(ab, w)
    assert len(calls) >= 3


def _cold(op, r_in, r_out, mesh):
    """lambda1_annulus' (coarse, fine, half-mesh) eigenvalues with every
    iteration started from a vector of ones."""
    return tuple(spectral._smallest_eigenvalue(*spectral._assemble(op, r_in, r_out, m))[0]
                 for m in (mesh, 2 * mesh, mesh // 2))


WARM_CASES = [*((OP, R / 4.0, 16.0 * R) for R in np.geomspace(1e-3, 1e6, 4)),
              (SurrogateOperator(5.0, 3.0), 0.5e-3, 2e6),
              (SurrogateOperator(3.0, 3.0), 0.5, 2.0)]


@pytest.mark.parametrize("mesh", [64, 256, 1024])
@pytest.mark.parametrize("op, r_in, r_out", WARM_CASES)
def test_warm_fine_solve_agrees_with_cold_and_converged_ones(op, r_in, r_out, mesh):
    # the fine mesh starts from the interpolated coarse eigenvector; the stop
    # rule is the same, so the value moves by less than it allows
    res = lambda1_annulus(op, r_in, r_out, mesh)
    coarse, fine, half = _cold(op, r_in, r_out, mesh)
    assert res.lambda1 == pytest.approx(fine, rel=1e-12, abs=0.0)
    # the coarse solve still starts from ones: the same floats
    assert res.lambda1 + (res.lambda1 - coarse) / 3.0 == res.richardson
    # the half-mesh solve starts from the coarse eigenvector
    estimate = max(abs(fine - coarse) / 3.0, abs(res.richardson - coarse - (coarse - half) / 3.0))
    assert res.error_estimate == pytest.approx(estimate, rel=0.0, abs=1e-11 * fine)
    converged = _wrapped_smallest_eigenvalue(*spectral._assemble(op, r_in, r_out, 2 * mesh),
                                             rel_tol=1e-16, maxit=2000)
    assert res.lambda1 == pytest.approx(converged, rel=1e-13, abs=0.0)
    assert res.iterations[1] < res.iterations[0]


def test_foreign_and_random_starts_converge_to_the_same_eigenvalue():
    cold = lambda1_annulus(OP, 1.0, 4.0, 128)
    rng = np.random.default_rng(5)
    starts = [lambda1_annulus(SurrogateOperator(5.0, 3.0), 1e3, 2e4, 128).vectors,
              lambda1_annulus(SurrogateOperator(3.0, 3.0), 0.5, 2.0, 128).vectors,
              (rng.uniform(0.1, 1.0, 128), rng.uniform(0.1, 1.0, 256))]
    for start in starts:
        warm = lambda1_annulus(OP, 1.0, 4.0, 128, start=start)
        assert warm.lambda1 == pytest.approx(cold.lambda1, rel=1e-12, abs=0.0)
        assert warm.richardson == pytest.approx(cold.richardson, rel=1e-12, abs=0.0)


def _eigen_results(monkeypatch, tmp_path, argv):
    """The EigenResults of one eigen command, in radius order."""
    results, orig = [], spectral.lambda1_annulus

    def kept(*args, **kwargs):
        results.append((args, orig(*args, **kwargs)))
        return results[-1][1]

    monkeypatch.setattr(spectral, "lambda1_annulus", kept)
    assert cli.run(["eigen", *argv, "--out-dir", str(tmp_path / "o")]) == 0
    return results


@pytest.mark.parametrize("r_values", ["1e-30,1e30", "1e30,1e-30"])
def test_eigen_starts_from_radii_thirty_decades_apart(monkeypatch, tmp_path, r_values):
    # each radius starts from the last one's eigenvectors, whose W-norm on the
    # new annulus is (R_new/R_old)**((alpha-1)/2): 1e270 here, squared past
    # the float range unless the start is scaled first
    results = _eigen_results(monkeypatch, tmp_path, ["--alpha", "10", "--gamma", "7",
                                                     "--mesh", "64", "--r-values", r_values])
    op = SurrogateOperator(10.0, 7.0)
    assert results[1][1].iterations[0] < results[0][1].iterations[0]   # the start was used
    for (op_arg, r_in, r_out, mesh), res in results:
        coarse, fine, _ = _cold(op, r_in, r_out, mesh)
        assert res.lambda1 == pytest.approx(fine, rel=1e-12, abs=0.0)
        assert res.richardson == pytest.approx(fine + (fine - coarse) / 3.0, rel=1e-12, abs=0.0)


def test_eigen_scan_reuses_its_eigenvectors(monkeypatch, tmp_path):
    # six radii at mesh 1024 took 12 steps per solve from ones, 144 in all
    calls = []

    def counted(*args):
        calls.append(1)
        return lapack.dpbtrs(*args)

    assert spectral.cho_solve_banded is lapack.dpbtrs
    monkeypatch.setattr(spectral, "cho_solve_banded", counted)
    assert cli.run(["eigen", "--alpha", "6", "--gamma", "4", "--mesh", "1024", "--r-values",
                    "1e2,1e3,1e4,1e5,1e6,1e7", "--out-dir", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert sum(map(sum, report["inverse_iterations"])) == len(calls) <= 60


def _raised(call):
    try:
        call()
    except ParameterError as exc:
        return str(exc)
    return None


def _full_check(op, r_in, r_out, mesh):
    """check_annuli's message on one annulus, or None, by full assembly:
    a at both ends and every entry of each mesh's diagonal and weight must
    be normal floats."""
    if not r_out > r_in > 0.0:
        return f"need 0 < r_in < r_out, got ({r_in}, {r_out})"
    if mesh < 64:
        return f"mesh must be at least 64 interior nodes, got {mesh}"
    with np.errstate(all="ignore"):
        coefs = [op.stiffness(np.array([r_in, r_out]))]
        for m in (mesh, 2 * mesh, mesh // 2):
            ab, w = spectral._assemble(op, r_in, r_out, m)
            coefs += [ab[1], w]
    if all(((x >= np.finfo(float).tiny) & (x < np.inf)).all() for x in coefs):
        return None
    return (f"annulus ({r_in!r}, {r_out!r}) is out of range: "
            "the operator's coefficients leave the normal float range")


def _scan(op, radii, inner, outer, mesh):
    """The annuli (inner R, outer R) at the given radii R."""
    with np.errstate(over="ignore", under="ignore"):
        return op, inner * radii, outer * radii, mesh


def _decades(alpha, gamma, exps, inner, outer, mesh):
    with np.errstate(over="ignore", under="ignore"):
        radii = np.power(10.0, exps)
    return _scan(SurrogateOperator(alpha, gamma), radii, inner, outer, mesh)


@st.composite
def _scans(draw):
    """A scan of annuli: at radii 10**e, huge, tiny, 0 and inf ones
    included, or at radii a few ulps from the R where full assembly starts
    or stops refusing, near where one end entry of a, a diagonal or w meets
    the smallest normal float or the largest float.  Such an entry scales
    like R**power, which places that R to within a few dozen ulps; a
    bisection over the floats between finds it."""
    op = SurrogateOperator(draw(st.floats(0.05, 12.0)), draw(st.floats(0.05, 12.0)))
    inner, outer = draw(st.floats(0.01, 0.9)), draw(st.floats(1.1, 64.0))
    mesh = draw(st.sampled_from([64, 97]))
    if draw(st.booleans()):
        exps = draw(st.lists(st.floats(-330.0, 320.0), min_size=1, max_size=5))
        return _decades(op.alpha, op.gamma, exps, inner, outer, mesh)
    ab, w = spectral._assemble(op, inner, outer, draw(st.sampled_from([mesh, 2 * mesh, mesh // 2])))
    value, power = draw(st.sampled_from([
        (op.stiffness(inner), op.gamma + 1.0), (op.stiffness(outer), op.gamma + 1.0),
        (ab[1, 0], op.gamma - 1.0), (ab[1, -1], op.gamma - 1.0),
        (w[0], op.alpha - 1.0), (w[-1], op.alpha - 1.0)]))
    limit = draw(st.sampled_from([np.finfo(float).tiny, np.finfo(float).max]))
    log_r = (mpmath.log(limit) - mpmath.log(value)) / power if power else mpmath.inf
    assume(abs(log_r) < 700)
    # positive floats order as their bit patterns
    bits = int(np.array(float(mpmath.exp(log_r))).view(np.int64))
    lo, hi = bits - 64, bits + 64

    def accepts(i):   # full assembly takes the annulus at R with bit pattern i
        with np.errstate(over="ignore"):
            r = np.int64(i).view(float)
            return _full_check(op, float(inner * r), float(outer * r), mesh) is None

    if accepts(lo) != accepts(hi):
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepts(mid) == accepts(lo) else (lo, mid)
        bits = hi
    steps = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=8))
    return _scan(op, (bits + np.array(steps)).view(float), inner, outer, mesh)


@settings(max_examples=300, deadline=None)
@given(scan=_scans())
@example(scan=_decades(6.0, 4.0, [40.0, 60.0, 61.0], 0.5, 16.0, 64))
@example(scan=_decades(0.5, 4.0, [0.0, 300.0, -400.0], 0.5, 16.0, 64))
# outer * 1e308 overflows to an inf outer radius
@example(scan=_decades(1.0, 1.0, [308.0], 0.5, 2.0, 64))
def test_one_pass_check_raises_as_the_first_failing_annulus(scan):
    # the ends rule refuses the annuli that full assembly refuses, first one first
    op, r_in, r_out, mesh = scan
    expected = [_full_check(op, float(a), float(b), mesh) for a, b in zip(r_in, r_out)]
    assert [_raised(lambda: check_annuli(op, a, b, mesh)) for a, b in zip(r_in, r_out)] == expected
    assert _raised(lambda: check_annuli(op, r_in, r_out, mesh)) == next(filter(None, expected), None)


def _discrete_eigenpair(op, r_in, r_out, n):
    ab, w = spectral._assemble(op, r_in, r_out, n)
    d = ab[1] / w
    e = ab[0, 1:] / np.sqrt(w[:-1] * w[1:])
    evals, evecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    vec = np.abs(evecs[:, 0]) / np.sqrt(w)
    return float(evals[0]), vec


def test_inf_bound_eigenfunction_equality_case():
    grid = annulus_mesh(1.0, 4.0, 256)
    lam, vec = _discrete_eigenpair(OP, 1.0, 4.0, 256)
    values = np.zeros(grid.size)
    values[1:-1] = vec
    chk = check_inf_bound(OP, RadialFunction(grid, values), lam)
    assert abs(chk.min_value) <= chk.tau_fd


def test_inf_bound_for_potential_of_bump():
    grid = annulus_mesh(1.0, 4.0, 256)
    spec = KernelSpec(MODE_SURROGATE, ManifoldProfile(6.0, 4.0, 6))
    bump = PiecewisePower((0.0, 1.6, 2.8, float("inf")), (0.0, 1.0, 0.0), (0.0, 0.5, 0.0))
    f = RadialFunction(grid, potential_values(spec, bump, grid))
    lam = lambda1_annulus(OP, 1.0, 4.0, 256)
    chk = check_inf_bound(OP, f, lam)
    assert chk.holds
    assert chk.tau_fd > 0


def test_inf_bound_randomized_suite():
    rng = np.random.default_rng(21)
    for _ in range(30):
        r_in = rng.uniform(0.5, 2.0)
        r_out = r_in * rng.uniform(3.0, 9.0)
        alpha = rng.uniform(4.0, 7.0)
        gamma = rng.uniform(alpha / 2 + 0.3, alpha - 0.3)
        op = SurrogateOperator(alpha, gamma)
        grid = annulus_mesh(r_in, r_out, 160)
        lo = r_in + (r_out - r_in) * rng.uniform(0.25, 0.4)
        hi = r_in + (r_out - r_in) * rng.uniform(0.55, 0.75)
        q = rng.uniform(-2.0, 2.0)
        bump = PiecewisePower((0.0, lo, hi, float("inf")),
                              (0.0, rng.uniform(0.5, 4.0) / lo ** q, 0.0), (0.0, q, 0.0))
        spec = KernelSpec(MODE_SURROGATE, ManifoldProfile(alpha, gamma, 6))
        f = RadialFunction(grid, potential_values(spec, bump, grid))
        lam = lambda1_annulus(op, r_in, r_out, 128)
        assert check_inf_bound(op, f, lam).holds


def test_inf_bound_hypothesis_violation_raises():
    # a linear ramp has L f = -a'(r)/w < 0 everywhere: the inequality's
    # boundary hypothesis fails and the check must refuse to apply it
    grid = annulus_mesh(1.0, 4.0, 128)
    f = RadialFunction(grid, grid.copy())
    lam = lambda1_annulus(OP, 1.0, 4.0, 128)
    with pytest.raises(ParameterError, match="hypothesis"):
        check_inf_bound(OP, f, lam)


def test_inf_bound_rejects_negative_f():
    grid = annulus_mesh(1.0, 4.0, 128)
    vals = np.sin(np.linspace(0, 2 * math.pi, grid.size))
    with pytest.raises(ParameterError, match=">= 0"):
        check_inf_bound(OP, RadialFunction(grid, vals + 0.0), 1.0)


def test_fd_constant_cached_and_positive():
    c1 = fd_error_constant()
    assert c1 > 0
    assert fd_error_constant() == c1
