"""Exact power integrals against 30-digit mpmath quadrature, and their edge
cases; piecewise-power products against pointwise products; the array-backed
product and grid conversion against the scalar loops they replaced."""

import bisect
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biharm.errors import ParameterError
from biharm.radial import PiecewisePower, RadialFunction, power_integral, pp_product

# (coef, exp, lo, hi): finite pieces, origin pieces (lo = 0) and tail pieces (hi = inf)
CASES = [
    (1.0, 2.0, 0.5, 3.0),
    (2.5, -1.0, 0.1, 7.0),
    (0.3, -2.7, 1e-3, 1e2),
    (1.7, 0.4, 0.0, 2.0),
    (4.0, -0.9, 0.0, 1e-2),
    (1.0, -3.0, 2.0, math.inf),
    (0.2, -1.1, 1e3, math.inf),
    (1.5, -4.5, 0.25, math.inf),
]
# the same pieces as power_integral takes them, with log coefficients
LOG_CASES = [(math.log(coef), exp, lo, hi) for coef, exp, lo, hi in CASES]


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
    got = power_integral(math.log(coef), exp, lo, hi)
    assert isinstance(got, float)
    assert got == pytest.approx(_reference(coef, exp, lo, hi), rel=1e-13, abs=0.0)


def _closed_form(coef, exp, lo, hi):
    """coef * (hi**q - lo**q) / q with q = exp + 1 (coef * ln(hi/lo) at q = 0),
    at 40 digits: quadrature over a narrow window can itself be off by 5e-12."""
    with mpmath.workdps(40):
        q = mpmath.mpf(exp) + 1
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        return float(coef * (mpmath.log(hi / lo) if q == 0 else (hi ** q - lo ** q) / q))


# narrow pieces lose digits to the difference of two nearly equal powers,
# most of all with exp near -1; the expm1 form keeps them
@pytest.mark.parametrize("coef, exp, lo, hi", [
    (1.0, 9.0, 1.0, 1.001),
    (2.0, -9.0, 3.0, 3.003),
    (0.5, -1.0, 7.0, 7.007),
    (1.3, -8.5, 1e-2, 1.001e-2),
    (1.0, -0.999, 1.0, 1.001),
    (3.0, -1.002, 50.0, 50.05),
])
def test_narrow_pieces_match_mpmath(coef, exp, lo, hi):
    got = power_integral(math.log(coef), exp, lo, hi)
    assert got == pytest.approx(_closed_form(coef, exp, lo, hi), rel=1e-12)


def test_random_narrow_pieces_match_mpmath():
    """hi/lo - 1 in [1e-3, 1e-1], lo in [1e-3, 1e3], exp = -1 +- 10**[-3, 0.9]."""
    rng = np.random.default_rng(17)
    lo = 10.0 ** rng.uniform(-3.0, 3.0, 200)
    hi = lo * (1.0 + 10.0 ** rng.uniform(-3.0, -1.0, 200))
    coef = rng.uniform(0.1, 10.0, 200)
    exp = -1.0 + rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-3.0, 0.9, 200)
    ref = [_closed_form(*case) for case in zip(coef, exp, lo, hi)]
    np.testing.assert_allclose(power_integral(np.log(coef), exp, lo, hi), ref, rtol=1e-12, atol=0)


def test_vectorized_matches_scalar_calls():
    log_coef, exp, lo, hi = (np.array(col) for col in zip(*LOG_CASES))
    got = power_integral(log_coef, exp, lo, hi)
    assert got.shape == (len(CASES),)
    assert list(got) == [power_integral(*case) for case in LOG_CASES]


def test_log_case():
    assert power_integral(math.log(3.0), -1.0, 2.0, 2.0 * math.e) == pytest.approx(3.0, rel=1e-15)


def test_zero_coefficient_and_empty_interval_give_zero():
    assert power_integral(-math.inf, -5.0, 0.0, math.inf) == 0.0
    assert power_integral(0.0, 2.0, 3.0, 3.0) == 0.0
    assert power_integral(0.0, 2.0, 4.0, 3.0) == 0.0
    assert power_integral(0.0, -2.0, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("exp, lo, hi", [
    (-1.0, 0.0, 1.0),        # log divergence at the origin
    (-1.5, 0.0, 1.0),        # power divergence at the origin
    (-1.0, 1.0, math.inf),   # log divergence in the tail
    (-0.5, 1.0, math.inf),   # power divergence in the tail
    (2.0, 0.0, math.inf),
])
def test_divergent_pieces_are_infinite(exp, lo, hi):
    assert power_integral(math.log(2.0), exp, lo, hi) == math.inf


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


@st.composite
def piecewise_powers(draw):
    """Up to five pieces with breakpoints in [1e-2, 1e2], zero pieces included."""
    inner = draw(st.lists(st.floats(1e-2, 1e2), min_size=0, max_size=4, unique=True))
    bounds = [0.0] + sorted(inner) + [math.inf]
    k = len(bounds) - 1
    coefs = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 10.0)), min_size=k, max_size=k))
    exps = draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k))
    return PiecewisePower(tuple(bounds), tuple(coefs), tuple(exps))


@settings(max_examples=200, deadline=None)
@given(piecewise_powers(), piecewise_powers(),
       st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=20))
def test_pp_product_is_the_pointwise_product(a, b, radii):
    r = np.array(radii)
    expected = a.eval(r) * b.eval(r)
    got = pp_product(a, b).eval(r)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


# -- bit-identity with the scalar loops -------------------------------------

def _loop_pp_product(*pps):
    """The per-piece scalar product loop: (bounds, log_coefs, exps) lists."""
    bounds = sorted(set().union(*(pp.bounds.tolist() for pp in pps)))
    log_coefs, exps = [], []
    for j in range(len(bounds) - 1):
        mid = bounds[j] + 1.0 if math.isinf(bounds[j + 1]) else 0.5 * (bounds[j] + bounds[j + 1])
        lc, e = 0.0, 0.0
        for pp in pps:
            k = min(max(bisect.bisect_right(pp.bounds.tolist(), mid) - 1, 0), pp.npieces - 1)
            lc += pp.log_coefs.tolist()[k]
            e += pp.exps.tolist()[k]
        log_coefs.append(lc)
        exps.append(e if lc != -math.inf else 0.0)
    return bounds, log_coefs, exps


def _loop_decade_fit(g, v, left):
    """np.polyfit of ln v against ln r over the nodes of the first or last
    decade, picked one at a time; 0 when they are under 3 or one is 0."""
    nodes = [(r, x) for r, x in zip(g, v) if (r <= g[0] * 10.0 if left else r >= g[-1] / 10.0)]
    if len(nodes) < 3 or any(x == 0.0 for _, x in nodes):
        return 0.0
    return float(np.polyfit(np.log([r for r, _ in nodes]), np.log([x for _, x in nodes]), 1)[0])


def _loop_as_piecewise(rf):
    """The per-segment scalar conversion loop: (bounds, log_coefs, exps) lists.

    Each piece is a power law through its left node (the first piece through
    the first node): a segment between positive values takes the log-log
    slope, a positive value followed by 0 holds its level, and a piece
    whose left node is 0 vanishes.  A tail not given is fitted over its
    outer decade.  Logs are numpy's, one scalar at a time.
    """
    g, v = rf.grid, rf.values
    pieces = [(0, rf.tail_left if rf.tail_left is not None else _loop_decade_fit(g, v, True))]
    for i in range(g.size - 1):
        if v[i] > 0 and v[i + 1] > 0:
            pieces.append((i, np.log(v[i + 1] / v[i]) / np.log(g[i + 1] / g[i])))
        else:
            pieces.append((i, 0.0))
    pieces.append((g.size - 1, rf.tail_right if rf.tail_right is not None
                   else _loop_decade_fit(g, v, False)))
    log_coefs, exps = [], []
    for node, e in pieces:
        if v[node] > 0:
            log_coefs.append(float(np.log(v[node]) - e * np.log(g[node])))
            exps.append(float(e))
        else:
            log_coefs.append(-math.inf)
            exps.append(0.0)
    return [0.0, *g.tolist(), math.inf], log_coefs, exps


def _fields(pp):
    return pp.bounds.tolist(), pp.log_coefs.tolist(), pp.exps.tolist()


# breakpoints drawn from a small shared pool, so factors share and repeat them
_POOL = (0.25, 0.5, 1.0, 1.0 + 2.0 ** -40, 3.0, 7.5, 1e3)


@st.composite
def pooled_piecewise_powers(draw):
    """One to five pieces on pooled or free breakpoints; zero pieces and the
    single-piece case included."""
    inner = draw(st.lists(st.one_of(st.sampled_from(_POOL), st.floats(1e-3, 1e3)),
                          max_size=4, unique=True))
    bounds = [0.0] + sorted(inner) + [math.inf]
    k = len(bounds) - 1
    coefs = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=k, max_size=k))
    exps = draw(st.lists(st.floats(-6.0, 6.0), min_size=k, max_size=k))
    return PiecewisePower(bounds, coefs, exps)


@settings(max_examples=200, deadline=None)
@given(st.lists(pooled_piecewise_powers(), min_size=1, max_size=4))
def test_pp_product_matches_the_scalar_loop_exactly(pps):
    assert _fields(pp_product(*pps)) == _loop_pp_product(*pps)


def test_pp_product_single_piece_and_coincident_bounds():
    a = PiecewisePower.single(2.0, 1.5)
    assert _fields(pp_product(a)) == ([0.0, math.inf], a.log_coefs.tolist(), [1.5])
    b = PiecewisePower((0.0, 1.0, 3.0, math.inf), (0.0, 4.0, 4.0), (2.0, -1.0, -1.0))
    fields = _fields(pp_product(a, b, b))
    assert fields == _loop_pp_product(a, b, b)
    bounds, log_coefs, exps = fields
    assert bounds == [0.0, 1.0, 3.0, math.inf] and exps == [0.0, -0.5, -0.5]
    assert log_coefs[0] == -math.inf
    assert np.exp(log_coefs[1:]) == pytest.approx([32.0, 32.0], rel=1e-15)


@st.composite
def radial_functions(draw):
    """Grids of 2..12 nodes; values with zeros (so positive-then-zero hold
    pieces occur), and given or fitted tails."""
    grid = sorted(draw(st.lists(st.floats(1e-3, 1e4), min_size=2, max_size=12, unique=True)))
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
                           min_size=len(grid), max_size=len(grid)))
    tails = st.one_of(st.none(), st.floats(-6.0, 6.0))
    return RadialFunction(np.array(grid), np.array(values), draw(tails), draw(tails))


@settings(max_examples=200, deadline=None)
@given(radial_functions())
def test_as_piecewise_matches_the_scalar_loop_exactly(rf):
    assert _fields(rf.as_piecewise()) == _loop_as_piecewise(rf)


def _mp_loglog(grid, values, r):
    """The log-log interpolant of the float nodes at r, at 40 digits."""
    i = min(max(bisect.bisect_right(grid, r) - 1, 0), len(grid) - 2)
    with mpmath.workdps(40):
        g0, g1, v0, v1 = (mpmath.mpf(x) for x in (grid[i], grid[i + 1], values[i], values[i + 1]))
        return v0 * (mpmath.mpf(r) / g0) ** (mpmath.log(v1 / v0) / mpmath.log(g1 / g0))


def test_steep_segment_keeps_its_values():
    # slope 55276: a linear coefficient v/g**sigma leaves the float range.
    # The value is exp(L + e ln r) with L and e ln r both near 3.8e5, so it
    # carries a few units of eps * |e ln r| ~ 8e-11 of rounding, wherever
    # L is formed.
    grid, values = (1000.0, 1000.5), (1e-6, 1e6)
    rf = RadialFunction(np.array(grid), np.array(values))
    r = np.linspace(1000.0, 1000.5, 101)   # includes 1000.25
    ref = np.array([float(_mp_loglog(grid, values, x)) for x in r])
    floor = np.finfo(float).eps * np.abs(rf.as_piecewise().exps[1] * np.log(r))
    assert np.all(np.abs(rf(r) / ref - 1.0) <= 3.0 * floor)


def test_as_piecewise_hold_piece_and_zero_tails():
    rf = RadialFunction(np.array([1.0, 2.0, 4.0, 8.0]), np.array([1.0, 4.0, 0.0, 0.0]))
    bounds, log_coefs, exps = _fields(rf.as_piecewise())
    assert bounds == [0.0, 1.0, 2.0, 4.0, 8.0, math.inf]
    assert log_coefs == [0.0, 0.0, math.log(4.0), -math.inf, -math.inf]
    assert exps == [0.0, 2.0, 0.0, 0.0, 0.0]


def test_missing_tails_are_fitted_over_the_outer_decades():
    # four nodes in the first decade, three in the last, on a bumpy profile
    grid = np.array([0.01, 0.02, 0.04, 0.08, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 200.0, 400.0])
    values = np.exp(-np.log(grid) ** 2 / 8.0) * (1.0 + 0.2 * np.sin(3.0 * np.log(grid)))
    exps = RadialFunction(grid, values).as_piecewise().exps
    assert exps[0] == np.polyfit(np.log(grid[:4]), np.log(values[:4]), 1)[0]
    assert exps[-1] == np.polyfit(np.log(grid[-3:]), np.log(values[-3:]), 1)[0]
    # a given tail wins over the fit
    given = RadialFunction(grid, values, -1.5, 2.5).as_piecewise().exps
    assert (given[0], given[-1]) == (-1.5, 2.5)


def test_tails_are_flat_where_a_decade_has_under_3_positive_nodes():
    # one node in the first decade; two positive of four in the last
    grid = np.array([1e-3, 1e-1, 1.0, 2.0, 4.0, 8.0])
    pp = RadialFunction(grid, np.array([1.0, 2.0, 0.0, 0.0, 3.0, 5.0])).as_piecewise()
    assert (pp.exps[0], pp.exps[-1]) == (0.0, 0.0)
    assert np.isfinite(pp.log_coefs[[0, -1]]).all()   # live tails, held at the end values


@pytest.mark.parametrize("values", [
    (1.0, -2.0, 3.0),
    (-1.0, -2.0, -3.0),
    (1.0, math.nan, 3.0),
    (1.0, 2.0, math.inf),
])
def test_radial_function_rejects_negative_or_nonfinite_values(values):
    with pytest.raises(ParameterError, match="finite and >= 0"):
        RadialFunction(np.array([1.0, 2.0, 4.0]), np.array(values))


# -- representation ----------------------------------------------------------

@pytest.mark.parametrize("bounds, coefs, exps", [
    ((1.0, math.inf), (1.0,), (0.0,)),               # does not start at 0
    ((0.0,), (), ()),                                # no piece
    ((0.0, 2.0, 2.0, math.inf), (1.0,) * 3, (0.0,) * 3),   # repeated bound
    ((0.0, 3.0, 2.0, math.inf), (1.0,) * 3, (0.0,) * 3),   # decreasing
    ((0.0, 1.0, 3.0), (1.0, 1.0), (0.0, 0.0)),       # finite last bound
    ((0.0, 1.0, math.inf), (1.0,), (0.0, 0.0)),      # one coef short
    ((0.0, 1.0, math.inf), (1.0, 1.0), (0.0,)),      # one exp short
    ((0.0, 1.0, math.inf), (1.0, -2.0), (0.0, 0.0)),  # negative coefficient
    ((0.0, math.inf), (math.nan,), (0.0,)),           # nan coefficient
    ((0.0, math.inf), (math.inf,), (0.0,)),           # infinite coefficient
    ((0.0, math.inf), (1.0,), (math.nan,)),           # nan exponent
    ((0.0, math.inf), (1.0,), (-math.inf,)),          # infinite exponent
])
def test_invalid_pieces_rejected(bounds, coefs, exps):
    with pytest.raises(ParameterError):
        PiecewisePower(bounds, coefs, exps)


def test_fields_are_read_only_copies():
    coefs = np.array([1.0, 2.0])
    pp = PiecewisePower([0.0, 1.0, math.inf], coefs, (0.0, 1))
    coefs[0] = 5.0
    for field in (pp.bounds, pp.log_coefs, pp.exps):
        assert isinstance(field, np.ndarray) and field.dtype == np.float64
        assert not field.flags.writeable
        with pytest.raises(ValueError):
            field[0] = 3.0
    assert pp.log_coefs.tolist() == np.log([1.0, 2.0]).tolist()


def test_large_inputs_scale_near_linearly():
    """The product of two 2**16-piece inputs and the conversion of a
    2**16-node grid; per-piece loops, quadratic in the piece count, took
    minutes at this size."""
    n = 1 << 16
    rng = np.random.default_rng(0)
    grid = np.geomspace(1e-4, 1e6, n)
    a = PiecewisePower(np.concatenate(([0.0], grid[::2], [math.inf])),
                       rng.uniform(0.5, 2.0, n // 2 + 1), rng.uniform(-3.0, 3.0, n // 2 + 1))
    b = PiecewisePower(np.concatenate(([0.0], grid[1::2], [math.inf])),
                       rng.uniform(0.5, 2.0, n // 2 + 1), rng.uniform(-3.0, 3.0, n // 2 + 1))
    rf = RadialFunction(grid, np.exp(-np.log(grid) ** 2 / 50.0))
    t0 = time.perf_counter()
    prod = pp_product(a, b)
    conv = rf.as_piecewise()
    elapsed = time.perf_counter() - t0
    assert prod.npieces == n + 1 and conv.npieces == n + 1
    for pp in (prod, conv):
        for field in (pp.bounds, pp.log_coefs, pp.exps):
            assert isinstance(field, np.ndarray) and not field.flags.writeable
    assert elapsed < 5.0
