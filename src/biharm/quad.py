"""Deterministic quadrature of shifted power products, batched over shifts.

Every integral in the toolkit has the form

    int_0^inf  u(r) * f(rho + r)  dr/r

for an array of shifts rho > 0, where u and f are exact piecewise power laws
(u is usually a ``pp_product`` of unshifted profiles).  For each rho the
half-line is cut at the breakpoints of u and of f(rho + .): between them the
integrand is one power product and is handled by fixed-order Gauss panels,
log-spaced and doubled until that rho's value stabilizes.  The origin piece
and the infinite tail are never truncated numerically: they are summed in
closed form via the binomial series of the shifted factor, which converges
geometrically because the series region is kept below half of rho.

Shifts are processed with array operations, in blocks of about
``_BLOCK_SEAMS`` seams.  A node value is formed in the exponent,
exp(log c + e_u t + e_f log(rho + e^t)) at r = e^t, so no partial product
under- or overflows on its way to the value.  Divergence is reported per
shift through a flag (not an exception) so finiteness checks can consume it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .radial import PiecewisePower

_INF = float("inf")
_TINY = np.finfo(float).tiny
_GAUSS_ORDER = 16
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
_MAX_NODES = 1 << 20   # Gauss nodes per shift
_BLOCK_SEAMS = 4096    # seams per block of shifts; bounds every per-segment and per-node array


@dataclass(frozen=True, eq=False)
class PowerIntegrand:
    """u(r) * f(rho + r) against dr/r, one integral per shift rho > 0.

    ``rho`` may be a scalar or an array.
    """

    u: PiecewisePower
    f: PiecewisePower
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        bad = rho[~(rho > 0.0)]
        if bad.size:
            raise ParameterError(f"shift rho must be positive, got {float(bad.flat[0])!r}")
        object.__setattr__(self, "rho", rho)

    def eval(self, r):
        """The integrand u(r) f(rho + r) / r, with r broadcast against rho."""
        r = np.asarray(r, dtype=float)
        return self.u.eval(r) * self.f.eval(self.rho + r) / r


@dataclass(frozen=True)
class QuadratureResult:
    """Values and reliability data, one entry per shift (scalars for a
    scalar shift).

    ``tail_exponent`` is the exponent of T -> int_T^inf of the integrand
    (integrand exponent + 1); a nonnegative value means the tail diverges,
    zero being the logarithmic case.  A diverged entry has value inf.
    """

    value: np.ndarray
    abs_error_estimate: np.ndarray
    tail_exponent: np.ndarray
    diverged: np.ndarray


def _finite_bounds(pp: PiecewisePower) -> np.ndarray:
    """The finite bounds after 0: where pp may switch piece."""
    b = pp.bounds[1:]
    return b[np.isfinite(b)]


def _series_piece(log_coef, sigma, x, q, log_edge, at_origin: bool):
    """Closed-form integral over (0, edge) or (edge, inf) of a convergent end,
    one row per shift.

    The end's integrand is coef * r**q * (1 + x u)**sigma against dr with
    u = r/edge at the origin (x = edge/rho) and u = edge/r in the tail
    (x = rho/edge), so with binom(sigma, k) x**k as the k-th coefficient
        int_0^edge r**q u**k dr = edge**(q+1) / (q+k+1),
        int_edge^inf r**q u**k dr = edge**(q+1) / (k-q-1).
    Coefficients come from a cumulative product along k; each row doubles
    its k_max (80 up to 1280) while its last term is not negligible.  Terms
    decay at least like x <= 1/2, so the rest of the series is bounded by
    the last term over 1 - x.  The scale coef * edge**(q+1) is formed in the
    exponent; rows with a zero coefficient give 0.  Returns (value,
    absolute error estimate).
    """
    value, err = np.zeros(x.size), np.zeros(x.size)
    todo = np.flatnonzero(log_coef > -_INF)
    k_max = 80
    while todo.size:
        k = np.arange(1.0, k_max + 1.0)
        steps = (sigma[todo, None] - k + 1.0) / k * x[todo, None]
        d = np.cumprod(np.concatenate([np.ones((todo.size, 1)), steps], axis=1), axis=1)
        terms = d / (np.concatenate([[0.0], k]) + (q + 1.0 if at_origin else -q - 1.0))
        total = np.cumsum(terms, axis=1)[:, -1]   # row by row, whatever the row count
        last = np.abs(terms[:, -1])
        again = (last > 1e-15 * np.abs(total)) & (k_max < 1280)
        done = todo[~again]
        scale = np.exp(log_coef[done] + (q + 1.0) * log_edge[done])
        value[done] = scale * total[~again]
        err[done] = scale * last[~again] / (1.0 - x[done])
        todo = todo[again]
        k_max *= 2
    return value, err


def _segments(integrand: PowerIntegrand, rho, eps, t_start):
    """Gauss-zone segments of a block of shifts, in t = ln r.

    Row i is cut at eps[i], t_start[i] and every breakpoint of u and of
    f(rho[i] + .) between them; each segment lies inside one piece of u and
    one of f, found once at its midpoint.  Segments where the integrand
    vanishes are dropped.  Returns (row, level-0 panel count, start, width,
    log c, e_u, e_f, rho), one entry per segment.
    """
    u, f = integrand.u, integrand.f
    ub, fb = _finite_bounds(u), _finite_bounds(f)
    seams = np.concatenate([eps[:, None], np.broadcast_to(ub, (rho.size, ub.size)),
                            fb[None, :] - rho[:, None], t_start[:, None]], axis=1)
    # seams outside [eps, t_start] collapse onto its ends: zero-width segments
    t = np.log(np.sort(np.clip(seams, eps[:, None], t_start[:, None]), axis=1))
    width = np.diff(t, axis=1)
    row, col = np.nonzero(width > 0.0)
    start, width = t[row, col], width[row, col]
    r_mid = np.exp(start + 0.5 * width)
    iu = u.piece_index(r_mid)
    jf = f.piece_index(rho[row] + r_mid)
    log_c = u.log_coefs[iu] + f.log_coefs[jf]
    keep = log_c > -_INF
    panels = np.maximum(1, np.ceil(width / 2.0).astype(np.int64))
    return tuple(a[keep] for a in (row, panels, start, width, log_c, u.exps[iu], f.exps[jf],
                                   rho[row]))


def _gauss_zone(segs, level: int, nrows: int):
    """Per-row Gauss sums over the given segments at a refinement level.

    Panel counts scale with each segment's log width and double per level;
    node values are formed in the exponent.
    """
    row, panels, start, width, log_c, e_u, e_f, shift = segs
    n_panels = panels << level
    seg = np.repeat(np.arange(row.size), n_panels)
    within = np.arange(seg.size) - np.repeat(np.cumsum(n_panels) - n_panels, n_panels)
    panel_h = (width / n_panels)[seg]
    mid = start[seg] + (within + 0.5) * panel_h
    half = 0.5 * panel_h
    # (nodes, panels) layout, so per-panel data broadcasts along the long
    # axis; in place, at most two such arrays are alive at once
    tt = _GAUSS_NODES[:, None] * half
    tt += mid
    arg = np.exp(tt)
    arg += shift[seg]
    np.log(arg, out=arg)
    arg *= e_f[seg]
    tt *= e_u[seg]
    arg += tt
    del tt
    arg += log_c[seg]
    np.exp(arg, out=arg)
    arg *= _GAUSS_WEIGHTS[:, None]
    # sum over the (power of two) nodes by halving, with elementwise adds
    # only: a panel's sum then does not depend on how many panels (which
    # other rows) share the array, as a reduction's summation order can
    while arg.shape[0] > 1:
        arg = arg[0::2] + arg[1::2]
    return np.bincount(row[seg], weights=arg[0] * half, minlength=nrows)


def _seams(integrand: PowerIntegrand, rho):
    """(eps, t_start) per shift: the tail series starts beyond every
    breakpoint and twice the shift; the origin series stops below every
    breakpoint, the next piece of f and half the shift.  t_start is inf
    where twice the shift overflows, eps is 0 where half of it underflows."""
    ub, fb = _finite_bounds(integrand.u), _finite_bounds(integrand.f)
    t_start = np.maximum(1.0, 2.0 * rho)
    eps_cap = np.minimum(1.0, 0.5 * rho)
    if ub.size:
        t_start = np.maximum(t_start, ub[-1])
        eps_cap = np.minimum(eps_cap, ub[0])
    if fb.size:
        t_start = np.maximum(t_start, fb[-1] - rho)
        nxt = np.searchsorted(fb, rho, side="right")
        ahead = nxt < fb.size
        eps_cap[ahead] = np.minimum(eps_cap[ahead], fb[nxt[ahead]] - rho[ahead])
    return 0.5 * eps_cap, t_start


def _gauss_block(integrand: PowerIntegrand, rho, eps, t_start, rel_tol: float):
    """Gauss-zone (value, last change, nonzero) of one block of shifts:
    panels refined until each row settles."""
    segs = _segments(integrand, rho, eps, t_start)
    seg_row = segs[0]
    base_nodes = _GAUSS_ORDER * np.bincount(seg_row, weights=segs[1], minlength=rho.size)
    cur = _gauss_zone(segs, 0, rho.size)
    change = np.zeros(rho.size)
    active = np.ones(rho.size, dtype=bool)
    level = 0
    while active.any():
        level += 1
        new = _gauss_zone(tuple(a[active[seg_row]] for a in segs), level, rho.size)[active]
        step = np.abs(new - cur[active])
        cur[active], change[active] = new, step
        settled = ((step <= rel_tol * np.maximum(np.abs(new), 1e-300))
                   | (base_nodes[active] * (2 << level) > _MAX_NODES))
        active[np.flatnonzero(active)[settled]] = False
    return cur, change, base_nodes > 0


def integrate(integrand: PowerIntegrand, rel_tol: float = 1e-12) -> QuadratureResult:
    """Integrate u(r) f(rho + r) against dr/r over (0, inf) for every shift.

    Each value is within its ``abs_error_estimate`` of the true integral; a
    divergent origin or tail sets that shift's ``diverged`` flag instead of
    raising.  A shift whose series seams or value leave the float range
    (including a nonzero integral that comes out below the smallest normal
    float) raises ParameterError naming the first such radius.
    """
    u, f = integrand.u, integrand.f
    shape = integrand.rho.shape
    rho = integrand.rho.ravel()
    tail_exponent = float(u.exps[-1] + f.exps[-1])
    tail_live = u.log_coefs[-1] > -_INF and f.log_coefs[-1] > -_INF
    origin_live = (u.log_coefs[0] > -_INF) & (f.log_coefs[f.piece_index(rho)] > -_INF)
    diverged = (tail_live and tail_exponent >= 0.0) | (origin_live & (u.exps[0] <= 0.0))

    value = np.full(rho.size, _INF)
    abs_err = np.full(rho.size, _INF)
    live = np.flatnonzero(~diverged)
    shift = rho[live]
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        # seams and values are checked below
        eps, t_start = _seams(integrand, shift)
        j = f.piece_index(shift)
        tail_coef = np.full(shift.size, u.log_coefs[-1] + f.log_coefs[-1])
        origin_coef = u.log_coefs[0] + f.log_coefs[j] + f.exps[j] * np.log(shift)
        val, err = _series_piece(tail_coef, np.full(shift.size, f.exps[-1]), shift / t_start,
                                 tail_exponent - 1.0, np.log(t_start), at_origin=False)
        ov, oe = _series_piece(origin_coef, f.exps[j], eps / shift, u.exps[0] - 1.0, np.log(eps),
                               at_origin=True)
        val += ov
        err += oe
        nonzero = (tail_coef > -_INF) | (origin_coef > -_INF)
        seams_ok = (eps > 0.0) & (t_start < _INF)
        rows = np.flatnonzero(seams_ok)
        block = max(1, _BLOCK_SEAMS // (2 + _finite_bounds(u).size + _finite_bounds(f).size))
        for lo in range(0, rows.size, block):
            b = rows[lo:lo + block]
            zv, zc, zn = _gauss_block(integrand, shift[b], eps[b], t_start[b], rel_tol)
            val[b] += zv
            err[b] += zc
            nonzero[b] |= zn
    bad = np.flatnonzero(~seams_ok | ~np.isfinite(val) | (nonzero & (val < _TINY)))
    if bad.size:
        i = bad[0]
        if not seams_ok[i]:
            raise ParameterError(f"radius {float(shift[i])!r} is out of range: the series seams "
                                 "near half and twice the radius leave the float range")
        raise ParameterError(f"integral at radius {float(shift[i])!r} is {float(val[i])!r}: "
                             "it leaves the normal float range")
    value[live], abs_err[live] = val, err

    def shaped(a):
        return a.reshape(shape)[()]

    return QuadratureResult(shaped(value), shaped(abs_err),
                            shaped(np.full(rho.size, tail_exponent)), shaped(diverged))
