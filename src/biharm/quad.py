"""Deterministic quadrature of shifted power products, batched over shifts.

Every integral in the toolkit has the form

    int_0^inf  u(r) * f(rho + r)  dr/r

for an array of shifts rho > 0, where u and f are exact piecewise power laws
(u is usually a ``pp_product`` of unshifted profiles).  With x = 1/4 each
shift's half-line falls into three zones:

low, r < x rho
    piece by piece of f, f(rho + r) = c rho**e (1 + r/rho)**e is a binomial
    series in r/rho, summed against the moments int u(r) r**(k-1) dr.
high, r > rho/x
    the shifted factor is a binomial series in the ratio of rho to the
    integration variable: f(rho + r) = c r**e (1 + rho/r)**e against moments
    of u, or, when f has more pieces than u, u(s - rho)/(s - rho) =
    c s**e (1 - rho/s)**e against moments of f, with s = rho + r.  The zone
    is cut at the breakpoints of the expanded factor.
near, between them
    cut at the breakpoints of u and of f(rho + .) inside, found per shift by
    ``searchsorted``; each segment is one power product, handled by
    fixed-order Gauss panels, log-spaced, at two levels: about one panel per
    two units of log width, then twice as many.  The value is the finer
    level's, and the two levels' difference is its error estimate.

So only the breakpoints in (rho/4, 4 rho) cost Gauss panels.  The moments
over whole pieces come from cumulative ``power_integral`` tables built once
per call (summed from the origin in the low zone, from infinity in the high
zone); the partial pieces at a zone's ends, and the powers of rho, are
formed per shift in the exponent.  A series takes the _K + 1 terms that the
ratio caps make enough for every exponent; the rest is bounded by the last
term over 1 - ratio and added to the error estimate.  Alternating series
lose about ((1 + ratio)/(1 - ratio))**|e| to cancellation, so a steep piece
expands only up to a ratio 2/|e|, and the near zone grows to cover the rest.

Shifts are processed with array operations, in blocks of about
``_BLOCK_SEAMS`` seams and ``_BLOCK_PIECES`` series pieces.  A Gauss node
value is formed in the exponent, exp(log c + e_u t + e_f log(rho + e^t)) at
r = e^t, so no partial product under- or overflows on its way to the value.
Divergence is reported per shift through a flag (not an exception) so
finiteness checks can consume it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .radial import PiecewisePower, power_integral, require_normal

_INF = float("inf")
_TINY = np.finfo(float).tiny
_GAUSS_ORDER = 8
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
_BLOCK_SEAMS = 4096    # seams per block of shifts; bounds every per-node array
_BLOCK_PIECES = 1024   # series pieces per block; bounds every per-term array
_X = 0.25              # zone ratio: series in r/rho below _X rho, in rho/r beyond rho/_X
_STEEP = 2.0           # a piece of exponent e expands up to the ratio min(_X, _STEEP/|e|)
_K = 40                # terms 0.._K of a series; at the ratio caps the last is at most
                       # 3.12e-16 of the sum for every exponent (worst at e = -8)


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


def _ratio_caps(pp: PiecewisePower) -> np.ndarray:
    """Largest series ratio of each piece: _X, or _STEEP/|e| for a steep live
    piece, so that cancellation costs at most about exp(2 _STEEP)."""
    return np.where(pp.log_coefs > -_INF, _STEEP / np.maximum(np.abs(pp.exps), _STEEP / _X), _X)


def _ranges(start, count):
    """Row ids and the indices start[i] .. start[i] + count[i] - 1, row by row."""
    row = np.repeat(np.arange(count.size), count)
    return row, np.arange(row.size) - np.repeat(np.cumsum(count) - count, count) + start[row]


def _moment_table(w: PiecewisePower, spec, k):
    """Cumulative whole-piece moments of w for the table spec (p0, s, sign,
    y_max), one row per k: (ln R, C).

    E[k, i] = int w(y) y**p0 (y/R)**(s k) dy/y over the bounded piece i of w,
    cut at y_max; R is the last finite bound for s = +1 and the first for
    s = -1, so (y/R)**(s k) <= 1 on every piece and no entry overflows.
    C[k, i] sums E over the pieces 1 .. i-1 (s = +1, from the origin) or
    i .. n-2 (s = -1, from infinity), so the whole pieces strictly between
    ia and ib sum to s (C[ib] - C[ia + 1]).
    """
    p0, s, _, y_max = spec
    n = w.npieces
    log_r = np.log(w.bounds[n - 1] if s > 0 else w.bounds[1])
    sk = s * k[:, None]
    e = power_integral(w.log_coefs[1:n - 1] - sk * log_r, w.exps[1:n - 1] + p0 + sk - 1.0,
                       w.bounds[1:n - 1], np.minimum(w.bounds[2:n], y_max))
    if s > 0:
        return log_r, np.concatenate([np.zeros((k.size, 2)), np.cumsum(e, axis=1)], axis=1)
    return log_r, np.concatenate([np.zeros((k.size, 1)), np.cumsum(e[:, ::-1], axis=1)[:, ::-1],
                                  np.zeros((k.size, 1))], axis=1)


def _series(w: PiecewisePower, specs, log_rho, a, b, log_c, beta, spec, ratio):
    """Binomial series of zone pieces against moments of w, one entry per piece.

    Piece i has the table spec (p0, s, sign, y_max) = specs[spec[i]] and is

        int_a^b w(y) exp(log_c) y**p0 (1 + sign (y/rho)**s)**beta dy/y
          = sum_k binom(beta, k) sign**k m_k,
        m_k = int_a^b w(y) exp(log_c) y**p0 (y/rho)**(s k) dy/y,

    with (y/rho)**s <= ratio < 1 on (a, b).  m_k is a partial piece of w at
    each end plus the whole pieces between, read from ``_moment_table``.
    Returns (value, absolute error estimate, w live somewhere on (a, b)).
    """
    lcw, ew = w.log_coefs, w.exps
    p0, s, sign = (np.array([sp[c] for sp in specs])[spec] for c in range(3))
    ia, ib = w.piece_index(a), w.piece_index(b)
    a_end = np.minimum(b, w.bounds[ia + 1])
    b_start = np.maximum(a, w.bounds[ib])
    live = np.concatenate([[0], np.cumsum(lcw > -_INF)])
    nonzero = live[ib + 1] > live[ia]
    k = np.arange(_K + 1.0)
    whole_pieces = ib > ia + 1
    tables = {key: _moment_table(w, specs[key], k) for key in np.unique(spec[whole_pieces])}
    value, err = np.zeros(a.size), np.zeros(a.size)

    def partial(i, piece, lo, hi):
        """m_k over [lo, hi) inside one piece of w, one row per entry.  An
        interval from 0 or to infinity (the one-piece series) is
        end**q_k / |q_k| in closed form, the others are power_integrals."""
        out = np.zeros((i.size, k.size))
        live = lcw[piece] > -_INF
        one_sided = (lo == 0.0) | (hi == _INF)
        for rows in (np.flatnonzero(live & one_sided), np.flatnonzero(live & ~one_sided)):
            if not rows.size:
                continue
            j, pc = i[rows], piece[rows]
            q0 = ew[pc] + p0[j]
            q = q0[:, None] + s[j, None] * k
            if one_sided[rows[0]]:
                log_e = np.log(np.where(lo[rows] == 0.0, hi[rows], lo[rows]))
                # the exponent is linear in k
                out[rows] = np.exp((lcw[pc] + log_c[j] + q0 * log_e)[:, None]
                                   + (s[j] * (log_e - log_rho[j]))[:, None] * k) / np.abs(q)
            else:
                out[rows] = power_integral((lcw[pc] + log_c[j])[:, None]
                                           - (s[j] * log_rho[j])[:, None] * k, q - 1.0,
                                           lo[rows, None], hi[rows, None])
        return out

    for first in range(0, a.size, _BLOCK_PIECES):
        todo = np.arange(first, min(first + _BLOCK_PIECES, a.size))
        lo, hi = ia[todo], ib[todo]
        # the partial piece at a, and the one at b where it is another piece
        two = np.flatnonzero(hi > lo)
        parts = partial(np.concatenate([todo, todo[two]]), np.concatenate([lo, hi[two]]),
                        np.concatenate([a[todo], b_start[todo[two]]]),
                        np.concatenate([a_end[todo], b[todo[two]]]))
        m = parts[:todo.size]
        m[two] += parts[todo.size:]
        for key in np.unique(spec[todo[whole_pieces[todo]]]):
            ss = specs[key][1]
            log_r, c = tables[key]
            mid = np.flatnonzero(whole_pieces[todo] & (spec[todo] == key))
            i = todo[mid]
            whole = ss * (c[:, ib[i]] - c[:, ia[i] + 1]).T
            with np.errstate(divide="ignore"):   # a whole-piece sum of 0 adds 0
                m[mid] += np.exp(log_c[i, None] + ss * k * (log_r - log_rho[i, None])
                                 + np.log(whole))
        steps = (beta[todo, None] - k[1:] + 1.0) / k[1:] * sign[todo, None]
        terms = np.cumprod(np.concatenate([np.ones((todo.size, 1)), steps], axis=1),
                           axis=1) * m
        value[todo] = np.add.reduce(terms, axis=1)   # each row on its own, whatever the row count
        err[todo] = np.abs(terms[:, -1]) / (1.0 - ratio[todo])
    return value, err, nonzero


def _low_zone(f: PiecewisePower, rho):
    """Low-zone pieces: f's pieces over (rho, rho (1 + _X)), each cut to
    r < its ratio cap times rho.  Returns the zone end per shift and, per
    live piece, (row, a, b, piece of f)."""
    j0 = f.piece_index(rho)
    count = f.piece_index(rho * (1.0 + _X)) - j0 + 1
    row, j = _ranges(j0, count)
    shift = rho[row]
    a = np.maximum(f.bounds[j] - shift, 0.0)
    b = f.bounds[j + 1] - shift
    cap = shift * _ratio_caps(f)[j]
    # the zone ends where the first piece reaches its cap
    end = np.minimum.reduceat(np.where(cap < b, np.maximum(a, cap), _INF),
                              np.cumsum(count) - count)
    b = np.minimum(b, end[row])
    keep = (a < b) & (f.log_coefs[j] > -_INF)
    return end, row[keep], a[keep], b[keep], j[keep]


def _high_zone(phi: PiecewisePower, rho, offset):
    """High-zone pieces of the expanded factor phi, whose piece j covers
    r in [phi_j - offset, phi_{j+1} - offset): from rho/_X, or further out
    where a steep piece needs it.  Returns the zone start per shift and,
    per live piece, (row, a, b, piece of phi)."""
    lo = phi.bounds[:phi.npieces] - offset[:, None]
    hi = phi.bounds[1:] - offset[:, None]
    reach = rho[:, None] / _ratio_caps(phi)
    start = np.maximum(rho / _X, np.where(reach > lo, np.minimum(hi, reach), 0.0).max(axis=1))
    a = np.maximum(lo, start[:, None])
    row, j = np.nonzero((a < hi) & (phi.log_coefs > -_INF))
    return start, row, a[row, j], hi[row, j], j


def _series_zones(u: PiecewisePower, f: PiecewisePower, rho):
    """Low- and high-zone sums per shift: (value, error estimate, nonzero,
    low-zone end, high-zone start)."""
    log_rho = np.log(rho)
    low_end, row, a, b, j = _low_zone(f, rho)
    # low zone: f(rho + r) in r/rho against moments of u
    low = (row, a, b, f.log_coefs[j] + f.exps[j] * log_rho[row], f.exps[j],
           np.zeros(row.size, int), b / rho[row])
    specs = [(0.0, 1.0, 1.0, _INF)]
    if f.npieces <= u.npieces:   # f(rho + r) in rho/r against moments of u
        high_start, row, a, b, j = _high_zone(f, rho, rho)
        phi, beta, sign, y_max, w = f, f.exps, 1.0, f.bounds[1:], u
    else:                        # u(s - rho)/(s - rho) in rho/s against moments of f*s
        high_start, row, a, b, j = _high_zone(u, rho, np.zeros(rho.size))
        a, b = a + rho[row], b + rho[row]
        phi, beta, sign, y_max = u, u.exps - 1.0, -1.0, u.bounds[1:] * (1.0 + _X)
        w = PiecewisePower._from_logs(f.bounds, f.log_coefs, f.exps + 1.0)
    specs += [(float(beta[jj]), -1.0, sign, float(y_max[jj])) for jj in range(phi.npieces)]
    high = (row, a, b, phi.log_coefs[j], beta[j], 1 + j, rho[row] / a)
    parts = [(u, low, high)] if w is u else [(u, low), (w, high)]
    value, err, nonzero = np.zeros(rho.size), np.zeros(rho.size), np.zeros(rho.size, bool)
    for moments, *pieces in parts:
        row, *rest = (np.concatenate(x) for x in zip(*pieces))
        v, e, nz = _series(moments, specs, log_rho[row], *rest)
        value += np.bincount(row, weights=v, minlength=rho.size)
        err += np.bincount(row, weights=e, minlength=rho.size)
        nonzero[row[nz]] = True
    return value, err, nonzero, low_end, high_start


def _near_breakpoints(u: PiecewisePower, f: PiecewisePower, rho, lo, hi):
    """Per shift, the first index and the count of the breakpoints of u, and
    of f(rho + .), strictly inside (lo, hi)."""
    ub, fb = u.bounds[1:-1], f.bounds[1:-1]
    iu = np.searchsorted(ub, lo, side="right")
    jf = np.searchsorted(fb, rho + lo, side="right")
    return (iu, np.maximum(np.searchsorted(ub, hi, side="left") - iu, 0),
            jf, np.maximum(np.searchsorted(fb, rho + hi, side="left") - jf, 0))


def _near_segments(u: PiecewisePower, f: PiecewisePower, rho, lo, hi):
    """Gauss-zone segments of a block of shifts, in t = ln r.

    Row i covers [lo[i], hi[i]], cut at every breakpoint of u and of
    f(rho[i] + .) inside; each segment lies inside one piece of u and one of
    f, found once at its midpoint.  Segments where the integrand vanishes
    are dropped.  Returns (row, level-0 panel count, start, width, log c,
    e_u, e_f, rho), one entry per segment, in row order.
    """
    ub, fb = u.bounds[1:-1], f.bounds[1:-1]
    iu, nu, jf, nf = _near_breakpoints(u, f, rho, lo, hi)
    # one row of seams per shift, padded with its upper end
    seams = np.repeat(hi[:, None], 2 + (nu + nf).max(initial=0), axis=1)
    seams[:, 0] = lo
    ru, pu = _ranges(iu, nu)
    seams[ru, 1 + pu - iu[ru]] = ub[pu]
    rf, pf = _ranges(jf, nf)
    seams[rf, 1 + nu[rf] + pf - jf[rf]] = fb[pf] - rho[rf]
    # seams rounded outside [lo, hi] collapse onto its ends: zero-width segments
    t = np.log(np.sort(np.clip(seams, lo[:, None], hi[:, None]), axis=1))
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
    """Per-row Gauss sums over the given segments at level 0 or 1.

    Panel counts scale with each segment's log width and double at level 1;
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


def _gauss_block(integrand: PowerIntegrand, rho, lo, hi):
    """Gauss-zone (value, error estimate, nonzero) of one block of shifts:
    the value at level 1, and its distance from level 0 as the estimate."""
    segs = _near_segments(integrand.u, integrand.f, rho, lo, hi)
    coarse = _gauss_zone(segs, 0, rho.size)
    fine = _gauss_zone(segs, 1, rho.size)
    return fine, np.abs(fine - coarse), np.bincount(segs[0], minlength=rho.size) > 0


def _seam_blocks(integrand: PowerIntegrand, rho, lo, hi):
    """Row ranges holding about _BLOCK_SEAMS near-zone seams each."""
    _, nu, _, nf = _near_breakpoints(integrand.u, integrand.f, rho, lo, hi)
    block = np.cumsum(2 + nu + nf) // _BLOCK_SEAMS
    cuts = np.flatnonzero(np.diff(block)) + 1
    return zip(np.concatenate([[0], cuts]), np.concatenate([cuts, [rho.size]]))


def integrate(integrand: PowerIntegrand) -> QuadratureResult:
    """Integrate u(r) f(rho + r) against dr/r over (0, inf) for every shift.

    Each value carries an ``abs_error_estimate``: the series zones' bounded
    remainders plus the Gauss zone's distance between its two fixed levels,
    whose finer level gives the value.  A divergent origin or tail sets that
    shift's ``diverged`` flag instead of raising.  A shift whose zone seams
    or value leave the float range (including a nonzero integral that comes
    out below the smallest normal float) raises ParameterError naming the
    first such radius.
    """
    u, f = integrand.u, integrand.f
    shape = integrand.rho.shape
    rho = integrand.rho.ravel()
    with np.errstate(over="ignore"):   # a sum beyond the float range is +-inf, flagged below
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
        val, err, nonzero, low_end, high_start = _series_zones(u, f, shift)
        seams_ok = (low_end > 0.0) & (high_start < _INF)
        rows = np.flatnonzero(seams_ok)
        for lo, hi in _seam_blocks(integrand, shift[rows], low_end[rows], high_start[rows]):
            b = rows[lo:hi]
            zv, ze, zn = _gauss_block(integrand, shift[b], low_end[b], high_start[b])
            val[b] += zv
            err[b] += ze
            nonzero[b] |= zn
    cut = np.append(np.flatnonzero(~seams_ok), shift.size)[0]   # the first bad seam
    require_normal("integral", shift[:cut], val[:cut], np.where(nonzero, _TINY, -_INF)[:cut])
    if cut < shift.size:
        raise ParameterError(f"radius {float(shift[cut])!r} is out of range: the zone seams "
                             "near a quarter and four times the radius leave the float range")
    value[live], abs_err[live] = val, err

    def shaped(a):
        return a.reshape(shape)[()]

    return QuadratureResult(shaped(value), shaped(abs_err),
                            shaped(np.full(rho.size, tail_exponent)), shaped(diverged))
