"""Radial grid functions and exact piecewise power-law representations.

Everything the toolkit integrates is, between breakpoints, an exact power
law.  ``PiecewisePower`` is that representation; ``RadialFunction`` is a
sampled radial function on a (usually log-spaced) grid whose log-log linear
interpolant is itself piecewise power, so grid functions convert losslessly
into the same representation, with power-law tails beyond the grid.
``power_integral`` integrates such pieces exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_INF = float("inf")


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy of values."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False, init=False)
class PiecewisePower:
    """c_j * r**e_j on [bounds[j], bounds[j+1]), j = 0..K-1.

    ``bounds`` has K+1 entries, starts at 0 and ends at inf.  Each c_j is
    stored as its natural log, ``log_coefs[j]``, with -inf for a piece where
    the function vanishes: pieces are nonnegative by construction, and no
    coefficient of a steep piece under- or overflows.  The three fields are
    read-only float64 arrays.
    """

    bounds: np.ndarray
    log_coefs: np.ndarray
    exps: np.ndarray

    def __init__(self, bounds, coefs, exps):
        c = np.asarray(coefs, dtype=float)
        if not (c >= 0.0).all():
            raise ParameterError("piecewise-power coefficients must be nonnegative")
        with np.errstate(divide="ignore"):   # log 0 = -inf: a vanishing piece
            self.__dict__.update(PiecewisePower._from_logs(bounds, np.log(c), exps).__dict__)

    @staticmethod
    def _from_logs(bounds, log_coefs, exps) -> "PiecewisePower":
        """Pieces from log coefficients: the path every constructor takes."""
        b = _frozen(bounds)
        if b.ndim != 1 or b.size < 2 or b[0] != 0.0 or b[-1] != _INF:
            raise ParameterError("bounds must start at 0 and end at inf")
        if (b[:-1] >= b[1:]).any():
            raise ParameterError("bounds must be strictly increasing")
        lc, e = _frozen(log_coefs), _frozen(exps)
        if lc.shape != (b.size - 1,) or e.shape != lc.shape:
            raise ParameterError("need one (coef, exp) per piece")
        if not (np.isfinite(e).all() and (lc < _INF).all()):   # -inf: a vanishing piece
            raise ParameterError(f"piecewise-power pieces must be finite, got log coefficients "
                                 f"{lc.tolist()} and exponents {e.tolist()}")
        pp = object.__new__(PiecewisePower)
        pp.__dict__.update(bounds=b, log_coefs=lc, exps=e)
        return pp

    @staticmethod
    def single(coef: float, exp: float) -> "PiecewisePower":
        return PiecewisePower((0.0, _INF), (coef,), (exp,))

    @property
    def npieces(self) -> int:
        return self.exps.size

    def piece_index(self, arg):
        """Index of the piece containing each arg (right-continuous at breakpoints)."""
        idx = np.searchsorted(self.bounds, arg, side="right") - 1
        return np.minimum(np.maximum(idx, 0), self.npieces - 1)

    def eval(self, arg):
        """Vectorized evaluation; arg may be scalar or array, entries > 0."""
        a = np.asarray(arg, dtype=float)
        idx = self.piece_index(a)
        with np.errstate(over="ignore"):   # a value beyond the float range is inf, or 0
            out = np.exp(self.log_coefs[idx] + self.exps[idx] * np.log(a))
        return out if out.ndim else float(out)


def pp_product(*pps: PiecewisePower) -> PiecewisePower:
    """Pointwise product of piecewise powers: merged bounds, summed log
    coefficients and exponents.

    Each merged piece takes its factors' pieces at an interior point: the
    midpoint, or lo + 1 for the infinite last piece.
    """
    # sorted, each once (np.unique would import numpy.ma)
    bounds = np.sort(np.concatenate([pp.bounds for pp in pps]))
    bounds = bounds[np.concatenate(([True], bounds[1:] != bounds[:-1]))]
    lo, hi = bounds[:-1], bounds[1:]
    mid = 0.5 * (lo + hi)
    mid[-1] = lo[-1] + 1.0
    lc = np.zeros(mid.size)
    e = np.zeros(mid.size)
    with np.errstate(over="ignore", invalid="ignore"):   # _from_logs rejects nan and +inf
        for pp in pps:
            k = pp.piece_index(mid)
            lc += pp.log_coefs[k]
            e += pp.exps[k]
    e[lc == -_INF] = 0.0
    return PiecewisePower._from_logs(bounds, lc, e)


def power_integral(log_coef, exp, lo, hi):
    """Exact int_lo^hi exp(log_coef) * r**exp dr, elementwise over broadcast arrays.

    lo = 0 and hi = inf are allowed.  A vanishing piece (log_coef = -inf)
    and an empty interval (lo >= hi) give 0; a divergent one gives inf.
    With q = exp + 1 and w = ln(hi/lo) the value is exp(log_coef + q ln end)
    * -expm1(-|q| w) / |q|, anchored at the end where r**q is larger (the
    finite nonzero end of a convergent piece), so narrow pieces keep their
    precision and no power of an end over- or underflows on its own.
    """
    lc, a, b = (np.asarray(x, float) for x in (log_coef, lo, hi))
    q = np.asarray(exp, float) + 1.0
    neg_aq = -np.abs(q)
    # the logs of the ends are taken before they broadcast against the exponents
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.log1p((b - a) / a)   # inf at lo = 0 or hi = inf
        vals = np.exp(lc + q * np.where(q > 0.0, np.log(b), np.log(a)))
        vals *= np.where(q == 0.0, w, np.expm1(neg_aq * w) / neg_aq)
    diverges = ((a == 0.0) & (q <= 0.0)) | (np.isinf(b) & (q >= 0.0))
    out = np.where((lc > -_INF) & (a < b), np.where(diverges, _INF, vals), 0.0)
    return out if out.ndim else float(out)


def require_normal(what: str, radii, values, floor=np.finfo(float).tiny) -> np.ndarray:
    """values, or ParameterError naming the first radius whose value is not
    finite or lies below floor, by default the smallest normal float.  A NaN
    is named as lost to float arithmetic, not as out of range."""
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= floor)))
    if bad.size:
        value = float(values[bad[0]])
        why = ("float arithmetic lost it (inf - inf or 0*inf)" if np.isnan(value)
               else "it leaves the normal float range")
        raise ParameterError(f"{what} at radius {float(radii[bad[0]])!r} is {value!r}: {why}")
    return values


def line_fit(x, y) -> tuple[float, float]:
    """Least-squares (slope, correlation) of y on x from centred sums, y first scaled by a power
    of two to |y| <= 1 so no product overflows; correlation in [-1, 1], (0, 0) for a constant y."""
    lo, hi = np.min(y), np.max(y)
    if lo == hi:
        return 0.0, 0.0
    shift = int(np.frexp(max(-lo, hi))[1])
    dx, dy = (v - v.sum() / v.size for v in (np.asarray(x, dtype=float), np.ldexp(y, -shift)))
    cx, cy, n = dx.sum(), dy.sum(), dx.size   # the rounded means' residues: corrected two-pass
    sxx, sxy, syy = dx @ dx - cx * cx / n, dx @ dy - cx * cy / n, dy @ dy - cy * cy / n
    return float(np.ldexp(sxy / sxx, shift)), float(max(-1.0, min(1.0, sxy / np.sqrt(sxx * syy))))


def fit_loglog_slope(x, y):
    """Least-squares slope of log y against log x (requires positive data)."""
    return line_fit(np.log(x), np.log(y))[0]


def _decade_slope(g, v, left: bool) -> float:
    """Power-law fit over the first/last decade; 0 (a flat tail) where it is
    not well defined: fewer than 3 nodes, or a value of 0 among them."""
    mask = g <= float(g[0]) * 10.0 if left else g >= g[-1] / 10.0   # a float: inf, no warning
    return fit_loglog_slope(g[mask], v[mask]) if mask.sum() >= 3 and np.all(v[mask] > 0) else 0.0


@dataclass(frozen=True)
class RadialFunction:
    """One nonnegative value per node of a strictly increasing radial grid.

    Between nodes the function is interpreted by log-log linear
    interpolation (an exact power law per segment); beyond the grid it is
    extrapolated as a power law with the tail exponents.  A tail not given
    is fitted where the function becomes pieces: a log-log fit over the
    first or last decade, or 0 where that fit is not defined.
    """

    grid: np.ndarray
    values: np.ndarray
    tail_left: float | None = None
    tail_right: float | None = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise ParameterError("grid and values must be matching 1-D arrays, length >= 2")
        if not np.all(g[1:] > g[:-1]) or g[0] <= 0:
            raise ParameterError("grid must be strictly increasing and positive")
        if not np.all(np.isfinite(v) & (v >= 0.0)):
            raise ParameterError("values must be finite and >= 0")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def __call__(self, r):
        """Evaluate at r (scalar or array) with power-law extrapolation."""
        return self.as_piecewise().eval(r)

    def as_piecewise(self) -> PiecewisePower:
        """Exact piecewise-power view of the log-log interpolant plus tails.

        Each piece's log coefficient is L = ln v - e ln g at its left node
        (the first piece's at the first node): a positive value followed by
        0 holds its level, and a piece from a value of 0 vanishes.
        """
        g, v = self.grid, self.values
        pos = v > 0
        with np.errstate(divide="ignore"):   # log 0 = -inf
            log_v = np.log(np.where(pos, v, 0.0))
        exps = np.zeros(g.size + 1)
        exps[0] = self.tail_left if self.tail_left is not None else _decade_slope(g, v, True)
        exps[-1] = self.tail_right if self.tail_right is not None else _decade_slope(g, v, False)
        # interior segments: power laws between positive values
        i = np.flatnonzero(pos[:-1] & pos[1:])
        exps[i + 1] = np.log(v[i + 1] / v[i]) / np.log(g[i + 1] / g[i])
        node = np.concatenate(([0], np.arange(g.size)))
        log_coefs = log_v[node] - exps * np.log(g)[node]
        exps[log_coefs == -_INF] = 0.0
        return PiecewisePower._from_logs(np.concatenate(([0.0], g, [_INF])), log_coefs, exps)


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n log-spaced nodes on [lo, hi]."""
    if not (lo > 0 and hi > lo and n >= 2):
        raise ParameterError(f"need 0 < lo < hi and n >= 2, got ({lo}, {hi}, {n})")
    with np.errstate(over="ignore"):   # 10**log10(hi) may overflow; geomspace then sets hi
        return np.geomspace(lo, hi, int(n))
