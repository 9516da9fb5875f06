"""Deterministic quadrature for products of shifted piecewise powers.

Every integral in the toolkit has the form

    int_0^inf  prod_j  f_j(shift_j + r)  dr/r

where each f_j is an exact piecewise power law.  Between breakpoints the
integrand is smooth and is handled by fixed-order Gauss panels, log-spaced
and doubled until the value stabilizes.  The origin piece and the infinite
tail are never truncated numerically: they are summed in closed form via
binomial series of the shifted factors, which converge geometrically because
the series region is kept below half the smallest shift.  Divergence is
reported through a flag (not an exception) so finiteness checks can consume
it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .radial import PiecewisePower

_INF = float("inf")
_GAUSS_ORDER = 16
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
_MAX_NODES = 1 << 20


@dataclass(frozen=True)
class Factor:
    """One multiplicand f(shift + r) with f piecewise power."""

    pp: PiecewisePower
    shift: float = 0.0

    def __post_init__(self):
        if self.shift < 0:
            raise ParameterError(f"factor shift must be >= 0, got {self.shift}")


@dataclass(frozen=True)
class PowerIntegrand:
    """Product of shifted piecewise-power factors against dr/r."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ParameterError("need at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        out = np.ones_like(r)
        for f in self.factors:
            out = out * f.pp.eval(f.shift + r)
        return out / r

    def breakpoints(self, lo: float, hi: float):
        """Radii where any factor switches piece, restricted to (lo, hi)."""
        pts = set()
        for f in self.factors:
            for b in f.pp.bounds:
                if 0.0 < b < _INF:
                    r = b - f.shift
                    if lo < r < hi:
                        pts.add(r)
        return sorted(pts)


@dataclass(frozen=True)
class QuadratureResult:
    """Value and reliability data for one integral.

    ``tail_exponent`` is the exponent of T -> int_T^inf of the integrand
    (integrand exponent + 1); a nonnegative value means the tail diverges,
    zero being the logarithmic case.
    """

    value: float
    abs_error_estimate: float
    tail_exponent: float
    diverged: bool = False


def _binom_coeffs(sigma: float, k_max: int) -> np.ndarray:
    """Coefficients of (1+x)**sigma up to x**k_max."""
    c = np.empty(k_max + 1)
    c[0] = 1.0
    for k in range(1, k_max + 1):
        c[k] = c[k - 1] * (sigma - k + 1) / k
    return c


def _shifted_series(shifted, k_max: int) -> np.ndarray:
    """Product series prod (1 + x_j*u)**sigma_j as coefficients of u**k.

    The ratios x_j are at most 1/2 by construction of the series regions, so
    the coefficients stay bounded and the series converges geometrically.
    """
    d = np.zeros(k_max + 1)
    d[0] = 1.0
    for sigma, x in shifted:
        c = _binom_coeffs(sigma, k_max) * x ** np.arange(k_max + 1)
        d = np.convolve(d, c)[: k_max + 1]
    return d


def _series_terms(integrand: PowerIntegrand, at_origin: bool):
    """(pure r-exponent, coefficient, shifted-factor list), dr/r included.

    At the origin the relevant pieces are those active as r -> 0+; at the
    tail those active as r -> inf.  Shifted factors are returned as
    (sigma, shift) pairs for the binomial product series.
    """
    q = -1.0
    coef = 1.0
    shifted = []
    for f in integrand.factors:
        pp = f.pp
        if at_origin:
            if f.shift == 0.0:
                q += pp.exps[0]
                coef *= pp.coefs[0]
            else:
                j = pp.piece_at(f.shift)
                coef *= pp.coefs[j] * f.shift ** pp.exps[j]
                shifted.append((pp.exps[j], f.shift))
        else:
            q += pp.exps[-1]
            coef *= pp.coefs[-1]
            if f.shift > 0.0:
                shifted.append((pp.exps[-1], f.shift))
    return q, coef, shifted


def _series_piece(terms, edge: float, at_origin: bool):
    """Closed-form integral over (0, edge) or (edge, inf) of a convergent end.

    ``terms`` is that end's ``_series_terms``.  The origin piece needs edge
    below every breakpoint and at most half of every positive shift; with
    u = r/edge each shifted factor is (1 + (edge/shift) u)**sigma and
        int_0^edge r**q u**k dr = edge**(q+1) / (q+k+1).
    The tail piece needs edge beyond every breakpoint and at least twice
    every shift; with u = edge/r each shifted factor is
    (1 + (shift/edge) u)**sigma and
        int_edge^inf r**q u**k dr = edge**(q+1) / (k-q-1).
    Returns (value, absolute error estimate).
    """
    q, coef, shifted = terms
    if coef == 0.0:
        return 0.0, 0.0
    ratios = [(sigma, edge / sh if at_origin else sh / edge) for sigma, sh in shifted]
    # successive terms decay at least like x_max <= 1/2
    x_max = max((x for _, x in ratios), default=0.0)
    k_max = 80
    while True:
        d = _shifted_series(ratios, k_max)
        k = np.arange(k_max + 1)
        denom = q + k + 1 if at_origin else k - q - 1
        total = 0.0
        last = 0.0
        for j in range(d.size):
            t = d[j] * (1.0 / denom[j])
            total += t
            last = abs(t)
            if j > 8 and last <= 1e-17 * max(abs(total), 1e-300):
                break
        tail_term = abs(d[-1]) / denom[-1]
        if not (ratios and tail_term > 1e-15 * max(abs(total), 1e-300) and k_max < 1280):
            break
        k_max *= 2
    remainder = last * x_max / (1.0 - x_max)
    scale = coef * edge ** (q + 1.0)
    return scale * total, abs(scale) * (remainder + tail_term)


def _gauss_zone(integrand: PowerIntegrand, seams, level: int):
    """Gauss panels in log space over consecutive seams at a refinement level.

    Panel counts scale with each segment's log width and double per level;
    evaluation is a single vectorized pass over all panels.
    """
    t = np.log(np.asarray(seams, dtype=float))
    widths = np.diff(t)
    n_panels = (1 << level) * np.maximum(1, np.ceil(widths / 2.0).astype(np.int64))
    total_panels = int(n_panels.sum())
    seg_start = np.repeat(t[:-1], n_panels)
    panel_h = np.repeat(widths / n_panels, n_panels)
    within = np.arange(total_panels) - np.repeat(np.cumsum(n_panels) - n_panels, n_panels)
    mid = seg_start + (within + 0.5) * panel_h
    half = 0.5 * panel_h
    tt = mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]
    r = np.exp(tt)
    vals = integrand.eval(r.ravel()).reshape(r.shape) * r
    total = float(np.sum(vals * _GAUSS_WEIGHTS[None, :] * half[:, None]))
    return total, tt.size


def integrate(integrand: PowerIntegrand, rel_tol: float = 1e-12) -> QuadratureResult:
    """Integrate a shifted power product against dr/r over (0, inf).

    The result value is within ``abs_error_estimate`` of the true integral;
    a divergent origin or tail sets the ``diverged`` flag instead of raising.
    """
    tail = _series_terms(integrand, at_origin=False)
    origin = _series_terms(integrand, at_origin=True)
    (q_tail, coef_tail, _), (q_origin, coef_origin, _) = tail, origin
    tail_exponent = q_tail + 1.0
    if (coef_tail != 0.0 and tail_exponent >= 0.0) or (coef_origin != 0.0 and q_origin <= -1.0):
        return QuadratureResult(_INF, _INF, tail_exponent, diverged=True)

    # tail beyond every breakpoint and twice every shift; origin below every
    # breakpoint, the next piece of every shifted factor and half its shift
    bps = integrand.breakpoints(0.0, _INF)
    t_start = max([1.0] + [2.0 * f.shift for f in integrand.factors] + bps)
    caps = [1.0] + bps
    for f in integrand.factors:
        if f.shift > 0:
            caps.append(0.5 * f.shift)
            nxt = f.pp.bounds[f.pp.piece_at(f.shift) + 1]
            if f.shift < nxt < _INF:
                caps.append(nxt - f.shift)
    eps = 0.5 * min(caps)

    value, abs_err = _series_piece(tail, t_start, at_origin=False)
    ov, oe = _series_piece(origin, eps, at_origin=True)
    value += ov
    abs_err += oe

    # numeric middle zone: Gauss panels refined until the value settles
    seams = [eps] + integrand.breakpoints(eps, t_start) + [t_start]
    cur, _ = _gauss_zone(integrand, seams, 0)
    level = 0
    while True:
        level += 1
        prev = cur
        cur, nodes = _gauss_zone(integrand, seams, level)
        change = abs(cur - prev)
        if change <= rel_tol * max(abs(cur), 1e-300) or nodes * 2 > _MAX_NODES:
            break
    value += cur
    abs_err += change
    return QuadratureResult(value, abs_err, tail_exponent, diverged=False)
