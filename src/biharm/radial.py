"""Radial grid functions and exact piecewise power-law representations.

Everything the toolkit integrates is, between breakpoints, an exact power
law.  ``PiecewisePower`` is that representation; ``RadialFunction`` is a
sampled radial function on a (usually log-spaced) grid whose log-log linear
interpolant is itself piecewise power, so grid functions convert losslessly
into the same representation, with power-law tails beyond the grid.
``power_integral`` integrates such pieces exactly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_INF = float("inf")


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy of values."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PiecewisePower:
    """c_j * r**e_j on [bounds[j], bounds[j+1]), j = 0..K-1.

    ``bounds`` has K+1 entries, starts at 0 and may end at inf.  Pieces with
    zero coefficient represent regions where the function vanishes.  The
    three fields are stored as read-only float64 arrays.
    """

    bounds: np.ndarray
    coefs: np.ndarray
    exps: np.ndarray

    def __post_init__(self):
        b = _frozen(self.bounds)
        if b.ndim != 1 or b.size < 2 or b[0] != 0.0:
            raise ParameterError("bounds must start at 0")
        if (b[:-1] >= b[1:]).any():
            raise ParameterError("bounds must be strictly increasing")
        c, e = _frozen(self.coefs), _frozen(self.exps)
        if c.shape != (b.size - 1,) or e.shape != c.shape:
            raise ParameterError("need one (coef, exp) per piece")
        object.__setattr__(self, "bounds", b)
        object.__setattr__(self, "coefs", c)
        object.__setattr__(self, "exps", e)

    @staticmethod
    def single(coef: float, exp: float) -> "PiecewisePower":
        return PiecewisePower((0.0, _INF), (coef,), (exp,))

    @property
    def npieces(self) -> int:
        return self.coefs.size

    def piece_index(self, arg):
        """Index of the piece containing each arg (right-continuous at breakpoints)."""
        idx = np.searchsorted(self.bounds, arg, side="right") - 1
        return np.minimum(np.maximum(idx, 0), self.npieces - 1)

    def eval(self, arg):
        """Vectorized evaluation; arg may be scalar or array, entries > 0."""
        a = np.asarray(arg, dtype=float)
        idx = self.piece_index(a)
        c = self.coefs[idx]
        e = self.exps[idx]
        out = np.zeros_like(a)
        nz = c != 0.0
        out[nz] = c[nz] * a[nz] ** e[nz]
        return out if out.ndim else float(out)

    def powered(self, power: float) -> "PiecewisePower":
        """self**power; requires positive coefficients (zero pieces stay zero)."""
        if (self.coefs < 0).any():
            raise ParameterError("cannot raise a negative-coefficient piece to a power")
        coefs = [0.0 if c == 0.0 else c ** power for c in self.coefs.tolist()]
        return PiecewisePower(self.bounds, coefs, self.exps * power)


def pp_product(*pps: PiecewisePower) -> PiecewisePower:
    """Pointwise product of piecewise powers: merged bounds, summed exponents.

    Each merged piece takes its factors' pieces at an interior point: the
    midpoint, or lo + 1 for the infinite last piece.
    """
    bounds = np.unique(np.concatenate([pp.bounds for pp in pps]))
    if bounds[-1] != _INF:
        bounds = np.append(bounds, _INF)
    lo, hi = bounds[:-1], bounds[1:]
    mid = 0.5 * (lo + hi)
    mid[-1] = lo[-1] + 1.0
    c = np.ones(mid.size)
    e = np.zeros(mid.size)
    for pp in pps:
        k = pp.piece_index(mid)
        c *= pp.coefs[k]
        e += pp.exps[k]
    e[c == 0.0] = 0.0
    return PiecewisePower(bounds, c, e)


def power_integral(coef, exp, lo, hi):
    """Exact int_lo^hi coef * r**exp dr, elementwise over broadcast arrays.

    lo = 0 and hi = inf are allowed.  Zero coefficients and empty intervals
    (lo >= hi) give 0; an integral that diverges at the origin or in the
    tail gives inf (signed like coef).
    """
    c, e, a, b = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (coef, exp, lo, hi)))
    e1 = e + 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.where(e == -1.0, c * np.log(b / a), c * (b ** e1 - a ** e1) / e1)
    diverges = ((a == 0.0) & (e1 <= 0.0)) | (np.isinf(b) & (e1 >= 0.0))
    vals = np.where(diverges, np.copysign(_INF, c), vals)
    out = np.where((c != 0.0) & (a < b), vals, 0.0)
    return out if out.ndim else float(out)


def fit_loglog_slope(x, y):
    """Least-squares slope of log y against log x (requires positive data)."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def _decade_slope(grid, values, left: bool):
    """Power-law fit over the first/last decade; None if not well defined."""
    g = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = g <= g[0] * 10.0 if left else g >= g[-1] / 10.0
    if mask.sum() < 3 or np.any(v[mask] <= 0):
        return None
    return fit_loglog_slope(g[mask], v[mask])


@dataclass(frozen=True)
class RadialFunction:
    """One value per node of a strictly increasing radial grid.

    Between nodes the function is interpreted by log-log linear
    interpolation (an exact power law per segment); beyond the grid it is
    extrapolated as a power law with the stored tail exponents, which by
    default come from a log-log fit over the first and last decades.
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
        if not np.all(np.isfinite(v)):
            raise ParameterError("values must be finite")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @staticmethod
    def from_values(grid, values) -> "RadialFunction":
        """Build with tail exponents fitted from the outermost decades."""
        rf = RadialFunction(np.asarray(grid, float), np.asarray(values, float))
        return RadialFunction(rf.grid, rf.values,
                              _decade_slope(rf.grid, rf.values, left=True),
                              _decade_slope(rf.grid, rf.values, left=False))

    @staticmethod
    def zero(grid) -> "RadialFunction":
        g = np.asarray(grid, dtype=float)
        return RadialFunction(g, np.zeros_like(g), 0.0, 0.0)

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0.0))

    def __call__(self, r):
        """Evaluate at r (scalar or array) with power-law extrapolation."""
        return self.as_piecewise().eval(r)

    def as_piecewise(self) -> PiecewisePower:
        """Exact piecewise-power view of the log-log interpolant plus tails.

        Segment logs and powers are taken one scalar at a time, as libm
        ``log`` and numpy's scalar ``pow``: numpy's SIMD array versions may
        differ in the last bit.
        """
        g, v = self.grid, self.values
        coefs = np.zeros(g.size + 1)
        exps = np.zeros(g.size + 1)
        # left tail piece on (0, g[0])
        tl = self.tail_left if self.tail_left is not None else 0.0
        if v[0] > 0:
            coefs[0] = v[0] / g[0] ** tl
            exps[0] = tl
        # interior segments: power laws between positive values; a positive
        # value followed by 0 holds its level and drops at the node
        pos = v > 0
        hold = pos[:-1] & (v[1:] == 0.0)
        coefs[1:-1][hold] = v[:-1][hold]
        i = np.flatnonzero(pos[:-1] & pos[1:])
        log_v = np.fromiter(map(math.log, (v[i + 1] / v[i]).tolist()), float, i.size)
        log_g = np.fromiter(map(math.log, (g[i + 1] / g[i]).tolist()), float, i.size)
        sigma = log_v / log_g
        coefs[i + 1] = v[i] / np.fromiter(map(operator.pow, g[i], sigma.tolist()), float, i.size)
        exps[i + 1] = sigma
        tr = self.tail_right if self.tail_right is not None else 0.0
        if v[-1] > 0:
            coefs[-1] = v[-1] / g[-1] ** tr
            exps[-1] = tr
        return PiecewisePower(np.concatenate(([0.0], g, [_INF])), coefs, exps)


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n log-spaced nodes on [lo, hi]."""
    if not (lo > 0 and hi > lo and n >= 2):
        raise ParameterError(f"need 0 < lo < hi and n >= 2, got ({lo}, {hi}, {n})")
    return np.geomspace(lo, hi, int(n))
