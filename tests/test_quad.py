"""Quadrature engine over (0, inf) against dr/r, batched over shifts:
exactness, closed-form tails, additivity, divergence flags, and batched
calls against one-shift-at-a-time calls.  Finite ranges are windowed
factors: a piece that is nonzero only on [lo, hi); an unshifted integrand
is u(r) * ONE(rho + r)."""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad as scipy_quad

from biharm import quad
from biharm.errors import ParameterError
from biharm.kernels import MODE_SPLIT, KernelSpec, potential_values
from biharm.profiles import ManifoldProfile, profile_piecewise
from biharm.quad import (_K, _STEEP, _X, PowerIntegrand, _gauss_zone, _low_zone, _near_breakpoints,
                         _near_segments, _series_zones, _zones, integrate)
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


def near_segments(u, f, rho, lo, hi):
    """quad's Gauss-zone segments over (lo, hi) at each shift."""
    return _near_segments(u, f, rho, lo, hi, _near_breakpoints(u, f, rho, lo, hi))


def test_gauss_rule_is_numpys_8_node_legendre_rule():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert quad._GAUSS_NODES.tolist() == nodes.tolist()
    assert quad._GAUSS_WEIGHTS.tolist() == weights.tolist()


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
    start, width = near_segments(u, g, rho, low_end, high_start)[2:4]
    cuts = np.exp(np.append(start, start[-1] + width[-1]))
    assert cuts == pytest.approx([0.0625, 0.75, 1.0])


@pytest.mark.parametrize("rho", [0.013, 0.3, 2.7, 55.0, 3.1e4])
def test_gauss_zone_holds_only_the_near_breakpoints(rho):
    # for a 1024-node grid source, either split term's Gauss zone is cut only
    # at its seams and at the breakpoints between them, so a shift costs
    # panels for ~140 nodes, not for all 1024.  The low zone keeps f's piece
    # at rho alone: its seam is f's first bound above rho (less rho), or
    # rho/4 if nearer; the high zone's seam is 4 rho
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
        seam = min(f.bounds[f.bounds > rho][0] - rho, _X * rho)
        assert low_end == pytest.approx(seam, rel=1e-12)
        assert high_start == pytest.approx(rho / _X)
        start, width = near_segments(u, f, shift, low_end, high_start)[2:4]
        cuts = np.exp(np.append(start, start[-1] + width[-1]))
        inside = breaks[(breaks > seam) & (breaks < rho / _X)]
        expected = np.unique(np.concatenate([[seam, rho / _X], inside]))
        assert cuts == pytest.approx(expected, rel=1e-12)
        assert cuts.size < 200


@pytest.mark.parametrize("prof, most", [(ManifoldProfile(6.0, 4.0, 6), 4),
                                         (ManifoldProfile(7.0, 4.5, 5), 6)])
def test_series_pieces_per_shift_do_not_grow_with_the_grid(monkeypatch, prof, most):
    # the low zone expands f's piece at rho alone, and the high zone the
    # factor with fewer pieces (g, or g v), so integrating a 1024-node grid
    # source's two split terms costs each shift one low-zone series per term
    # and one high-zone series per live piece of g or g v beyond 4 rho: 4 in
    # all where g and v are single powers, up to 6 where both switch branch
    # at 1.  On its own grid the split potential takes no zone series at all:
    # the tails are cells of the padded grid and one series per shift past
    # it, and the two cells past each shift of the second term a
    # Gauss-Jacobi rule and finer Gauss panels
    grid = default_grid(1024)
    src = RadialFunction(grid, (1.0 + grid) ** -3.0).as_piecewise()
    row = _low_zone(src, grid)[1]
    assert row.size == grid.size and np.unique(row).size == row.size
    per_shift = np.zeros(grid.size, int)

    def counting(zone):
        def counted(*args):
            out = zone(*args)
            np.add.at(per_shift, out[1], 1)
            return out
        return counted

    monkeypatch.setattr(quad, "_low_zone", counting(quad._low_zone))
    monkeypatch.setattr(quad, "_high_zone", counting(quad._high_zone))
    g, v = profile_piecewise("g", prof), profile_piecewise("v", prof)
    for u, f in ((pp_product(src, v), g), (pp_product(g, v), src)):
        _zones(u, f, grid)
    assert per_shift.min() >= 4 and per_shift.max() <= most
    per_shift[:] = 0
    potential_values(KernelSpec(MODE_SPLIT, prof), src, grid)
    assert per_shift.max() == 0


def test_fixed_series_length_suffices_at_every_exponent():
    # a series takes the terms 0.._K: at the ratio cap r of a piece of exponent
    # e, the last, |binom(beta, _K)| r**_K m_0, is below 1e-15 of the sum,
    # which is at least min(1, (1 + sign r)**beta) m_0, for beta = e, sign +1
    # (low zone, first high-zone form) and beta = e - 1, sign -1 (second form)
    e = np.union1d(np.linspace(-1000.0, 1000.0, 200001), np.arange(-1000.0, 1001.0))
    r = _STEEP / np.maximum(np.abs(e), _STEEP / _X)
    for beta, sign in ((e, 1.0), (e - 1.0, -1.0)):
        last = np.ones(e.size)
        for j in range(_K):
            last *= np.abs(beta - j) * r / (j + 1)
        assert (last <= 1e-15 * np.minimum(1.0, (1.0 + sign * r) ** beta)).all()


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


# -- the Gauss zone's a-priori error bound -----------------------------------

@settings(max_examples=60, deadline=None)
@given(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0), st.floats(-50.0, 50.0),
       st.floats(-3.0, 3.0), st.floats(-6.0, 4.0), st.floats(-3.0, 0.9))
@example(12.0, -12.0, 0.0, 0.0, -1.0, 0.9)   # steep and wide: 96 slope-sized panels
@example(-12.0, 12.0, 0.0, 0.0, -0.5, 0.0)   # a segment across ln rho
@example(1.0, -2.0, 0.0, 0.0, -1.0, 0.0)     # one panel at the constant's worst case
def test_gauss_bound_holds_against_mpmath(e_u, e_f, log_c, log_rho, offset, log_width):
    # one segment of c r**e_u (rho + r)**e_f against dr/r, from r = rho e**offset,
    # panelled as the near zone panels it; its Gauss sum is within the
    # reported bound of a 30-digit integral, up to float rounding: each node
    # value is exp of a sum whose terms reach |log c| + (|e_u| + |e_f|) (|t| + |L|),
    # t = ln r and L = ln(rho + r), so it carries a relative error of a few ulps
    # of that
    rho = 10.0 ** log_rho
    u = PiecewisePower.single(np.exp(log_c), e_u)
    f = PiecewisePower.single(1.0, e_f)
    lo = rho * np.exp(offset)
    segs = near_segments(u, f, np.array([rho]), np.array([lo]),
                         np.array([lo * np.exp(10.0 ** log_width)]))
    value, bound = (x[0] for x in _gauss_zone(segs, 1))
    start, width, lc = (float(x[0]) for x in segs[2:5])
    with mpmath.workdps(30):
        t0, t1 = mpmath.mpf(start), mpmath.mpf(start) + width

        def log_h(t):
            return lc + e_u * t + e_f * mpmath.log(rho + mpmath.exp(t))

        # mpmath.quad stops at an absolute error of 1e-30, so the integrand
        # is scaled to a peak near 1
        peak = max(log_h(t) for t in (t0, (t0 + t1) / 2, t1))
        ref = mpmath.exp(peak) * mpmath.quad(lambda t: mpmath.exp(log_h(t) - peak),
                                             mpmath.linspace(t0, t1, 2 + int(width)))
        big_t = max(abs(t0), abs(t1))
        big_l = max(abs(mpmath.log(rho + mpmath.exp(t))) for t in (t0, t1))
        rounding = float(8 * np.finfo(float).eps * (4 + abs(lc) + (abs(e_u) + abs(e_f))
                                                    * (big_t + big_l)) * ref)
        assert 0.0 <= bound < np.inf
        assert abs(value - float(ref)) <= bound + rounding


def test_error_estimate_covers_a_piece_too_steep_for_its_panels():
    # f is 1 below 2 and (x/2)**e beyond, so past r = 1 the integrand falls
    # like e**(e (r - 1)/2).  At e = -3000 the segment's panels are sized by
    # its slope, so the value is right and its bound finite; at e = -3e5 it
    # would need more than _MAX_PANELS panels, so its bound reads inf
    def integral(e):
        f = PiecewisePower._from_logs(np.array([0.0, 2.0, INF]),
                                      np.array([0.0, -e * np.log(2.0)]), np.array([0.0, e]))
        return integrate(PowerIntegrand(PiecewisePower.single(1.0, 2.0), f, 1.0))

    res = integral(-3000.0)
    assert res.value == pytest.approx(0.5 + 4.0 / 2998.0 - 2.0 / 2999.0, rel=0.0, abs=1e-13)
    assert res.abs_error_estimate < INF
    assert integral(-3e5).abs_error_estimate == INF


def test_panel_chunks_leave_the_sums_unchanged(monkeypatch):
    # each segment is summed within one chunk of panels and the rows from the
    # segment sums, each series row is reduced on its own, and a block of
    # shifts adds its Gauss zones in entry order, so blocks of a few floats
    # (three panels' nodes; one shift's seams or one series piece's terms
    # each) give the same bits as one block
    prof = ManifoldProfile(7.0, 4.5, 5)
    grid = default_grid(256)
    src = RadialFunction(grid, (1.0 + grid) ** -3.0).as_piecewise()
    g = profile_piecewise("g", prof)
    u = pp_product(g, profile_piecewise("v", prof))
    whole = _zones(u, src, grid)
    counts, series = [], []
    real_blocks, real_binomial = quad._blocks, quad._binomial

    def blocks(sizes, budget):
        out = list(real_blocks(sizes, budget))
        counts.append(len(out))
        return out

    monkeypatch.setattr(quad, "_blocks", blocks)
    monkeypatch.setattr(quad, "_binomial", lambda *args: series.append(1) or real_binomial(*args))
    monkeypatch.setattr(quad, "_BLOCK_FLOATS", 24)
    chunked = _zones(u, src, grid)
    # one seam blocking and a panel chunking per seam block, each into more
    # than one block, and one binomial table per series block, more than the
    # two series calls
    assert len(counts) == 1 + counts[0] and min(counts) > 1
    assert len(series) > 2
    assert np.array_equal(chunked[0], whole[0])
    assert np.array_equal(chunked[1], whole[1])


# -- the two cells past a shift on f's grid: the kernel's branch point ------

def _branch_reference(x, h, kernel, cells, cuts):
    """int_0^2h kern(r) f(s) e**z/(e**z - 1) dz at 30 digits, r = x (e**z - 1)
    and s = x e**z, with kernel(r) and cells[k] the (log c, e) of the pieces
    (cell k being z in [k h, (k + 1) h]); cuts are the kernel's breakpoints
    in z and the (log c, e) of the pieces they start.  Also returns the
    integrals of those pieces continued to z = 0, the size of what the
    rule's differences cancel."""
    with mpmath.workdps(30):
        x, h = mpmath.mpf(x), mpmath.mpf(h)

        def segment(a, b, piece, cell):
            (lc_k, e_k), (lc_f, e_f) = piece, cells[cell]

            def log_h(z):   # less (e_k - 1) ln z on a segment from 0
                smooth = (e_k - 1) * mpmath.log(mpmath.expm1(z) / z) if a == 0 else (
                    (e_k - 1) * mpmath.log(mpmath.expm1(z)))
                return lc_k + e_k * mpmath.log(x) + smooth + lc_f + e_f * (mpmath.log(x) + z) + z

            if a == 0:   # z = v**(1/e_k) takes the weight z**(e_k - 1) into dv/e_k
                a, b, g = 0, b ** e_k, lambda v: log_h(v ** (1 / e_k)) - mpmath.log(e_k)
            else:
                g = log_h
            inner = [a + (b - a) * q for q in (0.25, 0.5, 0.75)]
            peak = max(g(v) for v in inner)
            # mpmath.quad stops at an absolute error of 1e-30: scaled to a peak near 1
            return mpmath.exp(peak) * mpmath.quad(lambda v: mpmath.exp(g(v) - peak), [a, b])

        def piece_at(z):
            return kernel(x * mpmath.expm1(z))

        edges = sorted({mpmath.mpf(0), h, 2 * h, *(mpmath.mpf(z) for z, _ in cuts)})
        value = sum(segment(a, b, piece_at((a + b) / 2), int((a + b) / 2 > h))
                    for a, b in zip(edges, edges[1:]))
        continued = 0
        for z, piece in cuts:
            z = mpmath.mpf(z)
            continued += segment(0, min(z, h), piece, 0) + (segment(h, z, piece, 1) if z > h else 0)
        return float(value), float(continued)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 5.0), st.floats(-2.5, 0.5), st.floats(-3.0, 3.0), st.floats(-64.0, 64.0),
       st.floats(-64.0, 64.0), st.floats(-3.0, 3.0),
       st.none() | st.tuples(st.floats(0.02, 0.98), st.floats(0.01, 5.0)))
@example(1.0, -0.5, 0.0, -3.0, -3.0, 0.0, None)     # beta = e_k - 1 = 0
@example(2.0, -0.8, 1.0, -3.0, -3.5, 0.0, None)     # beta = 1
@example(3.0, -1.4, -1.0, 5.0, 5.0, 0.0, None)      # beta = 2
@example(0.01, -0.5, 0.0, -3.0, -3.0, 0.0, None)    # beta = -0.99
@example(0.01, -1.0, 2.0, 0.0, 0.0, -3.0, None)     # ... and a drop past cell 0
@example(1e-200, -0.5, 0.0, -3.0, -3.0, 0.0, None)  # beta = -1 in floats, e_k > 0
@example(2.0, 0.0, 1.0, -2.0, -2.0, 0.0, (0.3, 0.5))   # g v = r**2, then r**0.5, in cell 0
@example(2.0, 0.0, 1.0, -2.0, -2.0, 0.0, (0.7, 3.5))   # ... and r**3.5 in cell 1
@example(2.0, 0.7, 0.0, -40.0, -40.0, 0.0, None)       # wider than the rule's span
@example(1.0, -0.015625, 0.25, -5.0, 0.0, 0.0, (0.125, 0.015625))   # the rules for r**0.015625
                                                                     # cancel to 1/300
def test_branch_cells_against_mpmath(e_k, log_h, log_x, e0, e1, jump, cut):
    # cells 0 and 1 past a shift x on f's grid of step h: a kernel c r**e_k,
    # the Gauss-Jacobi weight z**beta, beta = e_k - 1 in (-1, 4], or one that
    # switches to r**e_b at r_b; f pieces of exponent e0 and e1 on the cells,
    # with a jump of e**jump between them.  Each value is within its error
    # estimate of a 30-digit integral, up to float rounding: a weighted node
    # value is exp of a sum whose terms reach L = 4 + |ln e| + (e + |e_f|)
    # (|ln x| + 2h + 1), e a kernel exponent (the weights grow like 1/e), so
    # it carries a relative error of a few ulps of L, on the value and on
    # what the kernel piece's two rule sums cancel
    h, x = 10.0 ** log_h, 10.0 ** log_x
    lc_k = -e_k * np.log(x)   # the kernel is 1 at r = x, f at the cell boundary
    lc0 = -e0 * (np.log(x) + h)
    lc1 = -e1 * (np.log(x) + h) + jump
    bounds, lcs, exps = [0.0], [lc_k], [e_k]
    cuts = []
    if cut is not None:
        r_b = x * np.expm1(2.0 * h * cut[0])
        e_b = cut[1]
        bounds.append(r_b)
        lcs.append(lc_k + (e_k - e_b) * np.log(r_b))   # continuous at r_b
        exps.append(e_b)
        cuts.append((np.log1p(r_b / x), (mpmath.mpf(lcs[-1]), mpmath.mpf(e_b))))
    kern = PiecewisePower._from_logs(np.array([*bounds, INF]), np.array(lcs), np.array(exps))
    s = x * np.exp([h, 2.0 * h])
    f = PiecewisePower._from_logs(np.array([0.0, x, s[0], s[1], INF]),
                                  np.array([-INF, lc0, lc1, -INF]), np.array([0.0, e0, e1, 0.0]))
    one = np.ones(1)
    with np.errstate(all="ignore"):
        value, err, ok = quad._branch_cells(
            kern, f, np.array([x]), ((lc0 * one, e0 * one, INF * one), (lc1 * one, e1 * one, INF * one)), h)
    assert ok[0] and 0.0 <= err[0] < INF

    def kernel(r):
        i = int(kern.piece_index(float(r)))
        return mpmath.mpf(float(kern.log_coefs[i])), mpmath.mpf(float(kern.exps[i]))

    cells = [(mpmath.mpf(lc0), mpmath.mpf(e0)), (mpmath.mpf(lc1), mpmath.mpf(e1))]
    ref, continued = _branch_reference(x, h, kernel, cells, cuts)
    big = (4.0 + max(abs(np.log(exps))) + (max(exps) + max(abs(e0), abs(e1)))
           * (abs(np.log(x)) + 2.0 * h + 1.0))
    rounding = 8 * np.finfo(float).eps * big * (ref + 2.0 * continued)
    assert abs(value[0] - ref) <= err[0] + rounding


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
        batched = integrate(PowerIntegrand(u, f, rho))
        single = [integrate(PowerIntegrand(u, f, r)) for r in rho]
        assert batched.value.tolist() == [s.value for s in single]
        assert batched.abs_error_estimate.tolist() == [s.abs_error_estimate for s in single]
        assert batched.diverged.tolist() == [s.diverged for s in single]
