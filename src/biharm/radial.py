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
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_INF = float("inf")


@dataclass(frozen=True)
class PiecewisePower:
    """c_j * r**e_j on [bounds[j], bounds[j+1]), j = 0..K-1.

    ``bounds`` has K+1 entries, starts at 0 and may end at inf.  Pieces with
    zero coefficient represent regions where the function vanishes.
    """

    bounds: tuple
    coefs: tuple
    exps: tuple

    def __post_init__(self):
        b = tuple(float(x) for x in self.bounds)
        if len(b) < 2 or b[0] != 0.0:
            raise ParameterError("bounds must start at 0")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ParameterError("bounds must be strictly increasing")
        if len(self.coefs) != len(b) - 1 or len(self.exps) != len(b) - 1:
            raise ParameterError("need one (coef, exp) per piece")
        object.__setattr__(self, "bounds", b)
        object.__setattr__(self, "coefs", tuple(float(c) for c in self.coefs))
        object.__setattr__(self, "exps", tuple(float(e) for e in self.exps))

    @staticmethod
    def single(coef: float, exp: float) -> "PiecewisePower":
        return PiecewisePower((0.0, _INF), (coef,), (exp,))

    @property
    def npieces(self) -> int:
        return len(self.coefs)

    def piece_at(self, arg: float) -> int:
        """Index of the piece containing arg (right-continuous at breakpoints)."""
        idx = int(np.searchsorted(self.bounds, arg, side="right")) - 1
        return min(max(idx, 0), self.npieces - 1)

    def eval(self, arg):
        """Vectorized evaluation; arg may be scalar or array, entries > 0."""
        a = np.asarray(arg, dtype=float)
        idx = np.clip(np.searchsorted(self.bounds, a, side="right") - 1, 0, self.npieces - 1)
        c = np.asarray(self.coefs)[idx]
        e = np.asarray(self.exps)[idx]
        out = np.zeros_like(a)
        nz = c != 0.0
        out[nz] = c[nz] * a[nz] ** e[nz]
        return out if out.ndim else float(out)

    def powered(self, power: float) -> "PiecewisePower":
        """self**power; requires positive coefficients (zero pieces stay zero)."""
        coefs = []
        for c in self.coefs:
            if c == 0.0:
                coefs.append(0.0)
            elif c < 0:
                raise ParameterError("cannot raise a negative-coefficient piece to a power")
            else:
                coefs.append(c ** power)
        return PiecewisePower(self.bounds, tuple(coefs), tuple(e * power for e in self.exps))


def pp_product(*pps: PiecewisePower) -> PiecewisePower:
    """Pointwise product of piecewise powers: merged bounds, summed exponents."""
    bounds = sorted(set().union(*(pp.bounds for pp in pps)))
    if bounds[-1] != _INF:
        bounds.append(_INF)
    coefs, exps = [], []
    for j in range(len(bounds) - 1):
        mid = bounds[j] + 1.0 if math.isinf(bounds[j + 1]) else 0.5 * (bounds[j] + bounds[j + 1])
        c, e = 1.0, 0.0
        for pp in pps:
            k = pp.piece_at(mid)
            c *= pp.coefs[k]
            e += pp.exps[k]
        coefs.append(c)
        exps.append(e if c != 0.0 else 0.0)
    return PiecewisePower(tuple(bounds), tuple(coefs), tuple(exps))


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
        """Exact piecewise-power view of the log-log interpolant plus tails."""
        g, v = self.grid, self.values
        bounds = [0.0] + list(g) + [_INF]
        coefs, exps = [], []
        # left tail piece on (0, g[0])
        tl = self.tail_left if self.tail_left is not None else 0.0
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
                coefs.append(v[i])          # hold level, drop at the node
                exps.append(0.0)
            else:
                coefs.append(0.0)
                exps.append(0.0)
        tr = self.tail_right if self.tail_right is not None else 0.0
        if v[-1] > 0:
            coefs.append(v[-1] / g[-1] ** tr)
            exps.append(tr)
        else:
            coefs.append(0.0)
            exps.append(0.0)
        return PiecewisePower(tuple(bounds), tuple(coefs), tuple(exps))


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n log-spaced nodes on [lo, hi]."""
    if not (lo > 0 and hi > lo and n >= 2):
        raise ParameterError(f"need 0 < lo < hi and n >= 2, got ({lo}, {hi}, {n})")
    return np.geomspace(lo, hi, int(n))
