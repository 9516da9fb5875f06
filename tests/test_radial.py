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
    (-1.5, -4.5, 0.25, math.inf),
]


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
    got = power_integral(coef, exp, lo, hi)
    assert isinstance(got, float)
    assert got == pytest.approx(_reference(coef, exp, lo, hi), rel=1e-13)


def test_vectorized_matches_scalar_calls():
    coef, exp, lo, hi = (np.array(col) for col in zip(*CASES))
    got = power_integral(coef, exp, lo, hi)
    assert got.shape == (len(CASES),)
    assert list(got) == [power_integral(*case) for case in CASES]


def test_log_case():
    assert power_integral(3.0, -1.0, 2.0, 2.0 * math.e) == pytest.approx(3.0, rel=1e-15)


def test_zero_coefficient_and_empty_interval_give_zero():
    assert power_integral(0.0, -5.0, 0.0, math.inf) == 0.0
    assert power_integral(1.0, 2.0, 3.0, 3.0) == 0.0
    assert power_integral(1.0, 2.0, 4.0, 3.0) == 0.0
    assert power_integral(1.0, -2.0, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("exp, lo, hi", [
    (-1.0, 0.0, 1.0),        # log divergence at the origin
    (-1.5, 0.0, 1.0),        # power divergence at the origin
    (-1.0, 1.0, math.inf),   # log divergence in the tail
    (-0.5, 1.0, math.inf),   # power divergence in the tail
    (2.0, 0.0, math.inf),
])
def test_divergent_pieces_are_infinite(exp, lo, hi):
    assert power_integral(2.0, exp, lo, hi) == math.inf
    assert power_integral(-2.0, exp, lo, hi) == -math.inf


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
    """Up to five pieces with breakpoints in [1e-2, 1e2], zero pieces included;
    the last bound is inf or finite (the last piece then extends past it)."""
    inner = draw(st.lists(st.floats(1e-2, 1e2), min_size=0, max_size=4, unique=True))
    bounds = [0.0] + sorted(inner) + ([math.inf] if draw(st.booleans()) else [])
    if len(bounds) < 2:
        bounds.append(math.inf)
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
    """The per-piece scalar product loop: (bounds, coefs, exps) lists."""
    bounds = sorted(set().union(*(pp.bounds.tolist() for pp in pps)))
    if bounds[-1] != math.inf:
        bounds.append(math.inf)
    coefs, exps = [], []
    for j in range(len(bounds) - 1):
        mid = bounds[j] + 1.0 if math.isinf(bounds[j + 1]) else 0.5 * (bounds[j] + bounds[j + 1])
        c, e = 1.0, 0.0
        for pp in pps:
            k = min(max(bisect.bisect_right(pp.bounds.tolist(), mid) - 1, 0), pp.npieces - 1)
            c *= pp.coefs.tolist()[k]
            e += pp.exps.tolist()[k]
        coefs.append(c)
        exps.append(e if c != 0.0 else 0.0)
    return bounds, coefs, exps


def _loop_as_piecewise(rf):
    """The per-segment scalar conversion loop: (bounds, coefs, exps) lists."""
    g, v = rf.grid, rf.values
    bounds = [0.0] + list(g) + [math.inf]
    coefs, exps = [], []
    tl = rf.tail_left if rf.tail_left is not None else 0.0
    if v[0] > 0:
        coefs.append(v[0] / g[0] ** tl)
        exps.append(tl)
    else:
        coefs.append(0.0)
        exps.append(0.0)
    for i in range(g.size - 1):
        if v[i] > 0 and v[i + 1] > 0:
            sigma = math.log(v[i + 1] / v[i]) / math.log(g[i + 1] / g[i])
            coefs.append(v[i] / g[i] ** sigma)
            exps.append(sigma)
        elif v[i] > 0 and v[i + 1] == 0.0:
            coefs.append(v[i])
            exps.append(0.0)
        else:
            coefs.append(0.0)
            exps.append(0.0)
    tr = rf.tail_right if rf.tail_right is not None else 0.0
    if v[-1] > 0:
        coefs.append(v[-1] / g[-1] ** tr)
        exps.append(tr)
    else:
        coefs.append(0.0)
        exps.append(0.0)
    return [float(x) for x in bounds], [float(x) for x in coefs], [float(x) for x in exps]


def _fields(pp):
    return pp.bounds.tolist(), pp.coefs.tolist(), pp.exps.tolist()


# breakpoints drawn from a small shared pool, so factors share and repeat them
_POOL = (0.25, 0.5, 1.0, 1.0 + 2.0 ** -40, 3.0, 7.5, 1e3)


@st.composite
def pooled_piecewise_powers(draw):
    """One to five pieces on pooled or free breakpoints; zero pieces, a finite
    last bound and the single-piece case included."""
    inner = draw(st.lists(st.one_of(st.sampled_from(_POOL), st.floats(1e-3, 1e3)),
                          max_size=4, unique=True))
    bounds = [0.0] + sorted(inner)
    if len(bounds) == 1 or draw(st.booleans()):
        bounds.append(math.inf)
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
    assert _fields(pp_product(a)) == ([0.0, math.inf], [2.0], [1.5])
    b = PiecewisePower((0.0, 1.0, 3.0), (0.0, 4.0), (2.0, -1.0))   # finite last bound
    assert _fields(pp_product(a, b, b)) == _loop_pp_product(a, b, b) == (
        [0.0, 1.0, 3.0, math.inf], [0.0, 32.0, 32.0], [0.0, -0.5, -0.5])


@st.composite
def radial_functions(draw):
    """Grids of 2..12 nodes; values with zeros (so positive-then-zero hold
    pieces occur), and fitted, given or missing tails."""
    grid = sorted(draw(st.lists(st.floats(1e-3, 1e4), min_size=2, max_size=12, unique=True)))
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
                           min_size=len(grid), max_size=len(grid)))
    tails = st.one_of(st.none(), st.floats(-6.0, 6.0))
    if draw(st.booleans()):
        return RadialFunction.from_values(grid, values)
    return RadialFunction(np.array(grid), np.array(values), draw(tails), draw(tails))


# steep segments overflow g**sigma in both versions alike
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:divide by zero encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(radial_functions())
def test_as_piecewise_matches_the_scalar_loop_exactly(rf):
    assert _fields(rf.as_piecewise()) == _loop_as_piecewise(rf)


def test_as_piecewise_hold_piece_and_zero_tails():
    rf = RadialFunction(np.array([1.0, 2.0, 4.0, 8.0]), np.array([1.0, 4.0, 0.0, 0.0]))
    bounds, coefs, exps = _fields(rf.as_piecewise())
    assert bounds == [0.0, 1.0, 2.0, 4.0, 8.0, math.inf]
    assert coefs == [1.0, 1.0, 4.0, 0.0, 0.0]
    assert exps == [0.0, 2.0, 0.0, 0.0, 0.0]


# -- representation ----------------------------------------------------------

@pytest.mark.parametrize("bounds, coefs, exps", [
    ((1.0, math.inf), (1.0,), (0.0,)),               # does not start at 0
    ((0.0,), (), ()),                                # no piece
    ((0.0, 2.0, 2.0, math.inf), (1.0,) * 3, (0.0,) * 3),   # repeated bound
    ((0.0, 3.0, 2.0), (1.0, 1.0), (0.0, 0.0)),       # decreasing
    ((0.0, 1.0, math.inf), (1.0,), (0.0, 0.0)),      # one coef short
    ((0.0, 1.0, math.inf), (1.0, 1.0), (0.0,)),      # one exp short
])
def test_invalid_pieces_rejected(bounds, coefs, exps):
    with pytest.raises(ParameterError):
        PiecewisePower(bounds, coefs, exps)


def test_fields_are_read_only_copies():
    coefs = np.array([1.0, 2.0])
    pp = PiecewisePower([0.0, 1.0, math.inf], coefs, (0.0, 1))
    coefs[0] = 5.0
    for field in (pp.bounds, pp.coefs, pp.exps):
        assert isinstance(field, np.ndarray) and field.dtype == np.float64
        assert not field.flags.writeable
        with pytest.raises(ValueError):
            field[0] = 3.0
    assert pp.coefs.tolist() == [1.0, 2.0]


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
    rf = RadialFunction.from_values(grid, np.exp(-np.log(grid) ** 2 / 50.0))
    t0 = time.perf_counter()
    prod = pp_product(a, b)
    conv = rf.as_piecewise()
    elapsed = time.perf_counter() - t0
    assert prod.npieces == n + 1 and conv.npieces == n + 1
    for pp in (prod, conv):
        for field in (pp.bounds, pp.coefs, pp.exps):
            assert isinstance(field, np.ndarray) and not field.flags.writeable
    assert elapsed < 5.0
