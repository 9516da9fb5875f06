"""Deterministic quadrature of shifted power products, batched over shifts.

Every integral in the toolkit has the form

    int_0^inf  u(r) * f(rho + r)  dr/r

for an array of shifts rho > 0, where u and f are exact piecewise power laws
(u is usually a ``pp_product`` of unshifted profiles).  With x = 1/4 each
shift's half-line falls into three zones:

low, r < min(next bound of f - rho, x rho)
    f's piece at rho alone, f(rho + r) = c rho**e (1 + r/rho)**e, is a
    binomial series in r/rho, summed against the moments int u(r) r**(k-1) dr.
    f's later breakpoints are near-zone seams, so a grid source costs one
    series here, not one per node within x rho.
high, r > rho/x
    the shifted factor is a binomial series in the ratio of rho to the
    integration variable: f(rho + r) = c r**e (1 + rho/r)**e against moments
    of u, or, when f has more pieces than u, u(s - rho)/(s - rho) =
    c s**e (1 - rho/s)**e against moments of f, with s = rho + r.  The zone
    is cut at the breakpoints of the expanded factor.
near, between them
    cut at the breakpoints of u and of f(rho + .) inside, found per shift by
    ``searchsorted``; each segment is one power product c r**e_u (rho + r)**e_f,
    handled by one fixed-order Gauss rule on ceil(width max(1, s)) log-spaced
    panels, s = max(|e_u|, |e_u + e_f|) its log slope, so no panel is wider
    than one unit or 1/s.  On such panels the rule is off by less than a
    fixed share, ``_PANEL_ERROR``, of its sum, and that share is the zone's
    error estimate.  A segment that would need more than ``_MAX_PANELS``
    panels keeps one per unit of log width and reports an infinite estimate.

So only the breakpoints between the low zone's end and 4 rho cost Gauss
panels.  The moments over whole pieces come from cumulative
``power_integral`` tables built once per call (summed from the origin in the
low zone, from infinity in the high zone); the partial pieces at a zone's
ends, and the powers of rho, are formed per shift in the exponent.  A series
takes the _K + 1 terms that the ratio caps make enough for every exponent;
the rest is bounded by the last term over 1 - ratio and added to the error
estimate.  Alternating series lose about ((1 + ratio)/(1 - ratio))**|e| to
cancellation, so a steep piece expands only up to a ratio 2/|e|, and the
near zone grows to cover the rest.

``integrate_grid`` is a second route to the same integrals for shifts that
are the nodes of a log-uniform grid that u or f breaks at (a grid source on
its own grid): the grid cells all get the same Gauss panels, and within one
piece of the other factor a node's value is a product of a factor of its
cell and one of the cell's offset from the shift, so each sum over cells is
a Toeplitz correlation.  The grid factor's power-law tails past the grid's
ends are cells of the grid continued log-uniformly: scaled by the shift,
every row's tail is a suffix of one table of Gauss cells plus one binomial
series beyond them that all rows share.  On f's grid the two cells past
each shift, at and next to the kernel's branch point at s = rho, take one
Gauss-Jacobi rule per kernel piece and finer Gauss panels.  So the grid path
never reaches the zones above, but for one ``integrate`` call over the grid
factor beyond the grid, for the rows whose tail a breakpoint cuts.  Cells
that a breakpoint cuts get the near zone's Gauss rule, ``_add_gauss``.  A
grid whose cells need more than ``_MAX_PANELS`` panels, or whose kernel
tables would pass ``_GRID_PANELS`` panels, goes through the zones whole.

Shifts are processed with array operations, in blocks of about
``_BLOCK_SEAMS`` seams, ``_BLOCK_PANELS`` Gauss panels and ``_BLOCK_PIECES``
series pieces.  A Gauss node value is formed in the exponent,
exp(log c + e_u t + e_f log(rho + e^t)) at r = e^t, so no partial product
under- or overflows on its way to the value.  Divergence is reported per
shift through a flag (not an exception) so finiteness checks can consume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .radial import PiecewisePower, _frozen, power_integral, require_normal

_INF = float("inf")
_TINY = np.finfo(float).tiny
# the 8-node Gauss-Legendre rule as np.polynomial.legendre.leggauss(8) gives it,
# written out: importing numpy.polynomial would add ~3 ms to every start
_GAUSS_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                         -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                         0.7966664774136267, 0.9602898564975362])
_GAUSS_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                           0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                           0.22238103445337443, 0.10122853629037706])
_BLOCK_SEAMS = 4096    # seams per block of shifts; bounds every per-segment array
_BLOCK_PANELS = 16384  # Gauss panels per chunk of segments; bounds every per-node array
_BLOCK_PIECES = 1024   # series pieces per block; bounds every per-term array
_MAX_PANELS = 8192     # panels of a segment at most; a steeper one's estimate reads inf
# On a panel [m - h, m + h] the integrand exp(log c + e_u t + e_f ln(rho + e^t))
# is analytic in the strip |Im t| < pi, and |d/dt of its log| <= s on the real
# axis.  Over the Bernstein ellipse with semi-minor axis b < pi, semi-major
# axis a = hypot(b, h) and q = (a + b)/h, the 8-node rule is off by at most
#     32 exp(s (a + h)) cos(b/2)**-max(-e_f, 0) / (15 (q**2 - 1) q**16)
# of the panel's sum (Trefethen, ATAP Thm 19.3, with |rho + e^(x+iy)| >=
# (rho + e^x) cos(y/2)).  With b = min(18/max(s, 1), 6/sqrt(max(-e_f, 0) +
# (6/(0.98 pi))**2)), h <= min(1, 1/s)/2 and max(-e_f, 0) <= 2 s, a scan over
# the exponents peaks at 3.93e-16, at s = 1, e_f = -2 and h = 1/2.
_PANEL_ERROR = 4e-16
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
    # the last piece that [a, b) reaches: not the one starting at b
    reach = np.maximum(np.searchsorted(w.bounds, b, side="left") - 1, ia)
    nonzero = live[reach + 1] > live[ia]
    k = np.arange(_K + 1.0)
    whole_pieces = ib > ia + 1
    # spec ids as sorted sets: np.unique would import numpy.ma
    keys = sorted(set(spec[whole_pieces].tolist()))
    tables = {key: _moment_table(w, specs[key], k) for key in keys}
    value, err = np.zeros(a.size), np.zeros(a.size)

    def partial(i, piece, lo, hi):
        """m_k over [lo, hi) inside one piece of w, one row per entry.  An
        interval from 0 or to infinity (the one-piece series) is
        end**q_k / |q_k| in closed form, the others are power_integrals."""
        out = np.zeros((i.size, k.size))
        live = (lcw[piece] > -_INF) & (lo < hi)
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
        for key in sorted(set(spec[todo[whole_pieces[todo]]].tolist())):
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
    """The low zone: f's piece at rho alone, over r in (0, end) with end the
    nearer of that piece's next bound and its ratio cap times rho.  f's later
    breakpoints are near-zone seams.  Returns the zone end per shift and,
    per live piece (at most one per shift), (row, a, b, piece of f)."""
    j = f.piece_index(rho)
    end = np.minimum(f.bounds[j + 1] - rho, rho * _ratio_caps(f)[j])
    row = np.flatnonzero(f.log_coefs[j] > -_INF)
    return end, row, np.zeros(row.size), end[row], j[row]


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
        if not row.size:   # no live piece in either zone
            continue
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
    are dropped.  Returns (row, panel count, start, width, log c, e_u, e_f,
    rho, steep), one entry per segment, in row order; a steep segment has
    one panel per unit of log width, not the ceil(width max(1, s)) of the
    others, since that would pass ``_MAX_PANELS``.
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
    e_u, e_f = u.exps[iu], f.exps[jf]
    panels = np.ceil(width * np.maximum(1.0, np.maximum(np.abs(e_u), np.abs(e_u + e_f))))
    steep = panels > _MAX_PANELS
    panels = np.where(steep, np.ceil(width), panels).astype(np.int64)
    return tuple(a[keep] for a in (row, panels, start, width, log_c, e_u, e_f, rho[row], steep))


def _blocks(sizes, budget):
    """Index ranges of consecutive entries whose sizes sum to about budget."""
    block = np.cumsum(sizes) // budget
    cuts = np.flatnonzero(np.diff(block)) + 1
    return zip(np.concatenate([[0], cuts]), np.concatenate([cuts, [sizes.size]]))


def _gauss_zone(segs, nrows: int):
    """Per-row Gauss sums over the given segments, and their error bounds:
    ``_PANEL_ERROR`` of the sum, or inf for a row with a steep segment.

    Node values are formed in the exponent.  Segments go in chunks of about
    ``_BLOCK_PANELS`` panels; each segment is summed within its chunk and the
    rows from the segment sums, so no sum depends on the chunking.
    """
    row, n_panels, start, width, log_c, e_u, e_f, shift, steep = segs
    seg_h = width / n_panels
    seg_sums = np.zeros(row.size)
    for first, end in _blocks(n_panels, _BLOCK_PANELS):
        count = n_panels[first:end]
        local, within = _ranges(np.zeros_like(count), count)
        seg = local + first
        panel_h = seg_h[seg]
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
        seg_sums[first:end] = np.bincount(local, weights=arg[0] * half, minlength=count.size)
    value = np.bincount(row, weights=seg_sums, minlength=nrows)
    bound = _PANEL_ERROR * value
    bound[row[steep]] = _INF
    return value, bound


def _add_gauss(u: PiecewisePower, f: PiecewisePower, rows, shift, lo, hi, value, err, nonzero):
    """Add each entry's Gauss zone, r in (lo, hi) at its shift, into value,
    err and nonzero at its row, in entry order: a row with two entries
    reads (sum + first) + second.  One rule on
    panels at most one unit of log width and 1/s wide, s the segment's log
    slope, whose error is below ``_PANEL_ERROR`` of the value; a row with a
    segment too steep for ``_MAX_PANELS`` panels reads inf."""
    _, nu, _, nf = _near_breakpoints(u, f, shift, lo, hi)
    for a, b in _blocks(2 + nu + nf, _BLOCK_SEAMS):
        segs = _near_segments(u, f, shift[a:b], lo[a:b], hi[a:b])
        zv, ze = _gauss_zone(segs, b - a)
        np.add.at(value, rows[a:b], zv)
        np.add.at(err, rows[a:b], ze)
        nonzero[rows[a:b][segs[0]]] = True


def _divergence(u: PiecewisePower, f: PiecewisePower, rho):
    """The tail exponent of u(r) f(rho + r) against dr/r, and per shift
    whether its origin or its tail diverges."""
    with np.errstate(over="ignore"):   # a sum beyond the float range is +-inf: flagged
        tail_exponent = float(u.exps[-1] + f.exps[-1])
    tail_live = u.log_coefs[-1] > -_INF and f.log_coefs[-1] > -_INF
    origin_live = (u.log_coefs[0] > -_INF) & (f.log_coefs[f.piece_index(rho)] > -_INF)
    return tail_exponent, (tail_live and tail_exponent >= 0.0) | (origin_live & (u.exps[0] <= 0.0))


def integrate(integrand: PowerIntegrand) -> QuadratureResult:
    """Integrate u(r) f(rho + r) against dr/r over (0, inf) for every shift.

    Each value carries an ``abs_error_estimate``: the series zones' bounded
    remainders plus the Gauss zone's a-priori bound, ``_PANEL_ERROR`` of its
    sum on slope-sized panels (inf where a segment is too steep for
    ``_MAX_PANELS`` of them); both bound truncation, not float rounding.  A
    divergent origin or tail sets that shift's ``diverged`` flag instead of
    raising.  A shift whose zone seams or value leave the float range
    (including a nonzero integral that comes out below the smallest normal
    float) raises ParameterError naming the first such radius.
    """
    u, f = integrand.u, integrand.f
    shape = integrand.rho.shape
    rho = integrand.rho.ravel()
    tail_exponent, diverged = _divergence(u, f, rho)

    value = np.full(rho.size, _INF)
    abs_err = np.full(rho.size, _INF)
    live = np.flatnonzero(~diverged)
    shift = rho[live]
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        # seams and values are checked below
        val, err, nonzero, low_end, high_start = _series_zones(u, f, shift)
        seams_ok = (low_end > 0.0) & (high_start < _INF)
        rows = np.flatnonzero(seams_ok)
        _add_gauss(u, f, rows, shift[rows], low_end[rows], high_start[rows], val, err, nonzero)
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


# -- shifts on the grid of one factor: the cells as Toeplitz correlations -----
#
# When the shifts are the nodes x_0 < ... < x_{n-1} of a log-uniform grid (step
# h) that one factor w breaks at, every grid cell gets the same P panels of the
# 8-node rule, at node offsets tau_q of its log width.  Within one piece
# c y**e of the other factor, a node of cell j and the shift x_i give a value
# F[j, q] T[j - i, q] S[i], so each sum over cells is a Toeplitz correlation:
#   w = u, in t = ln r:  u(r) f(x_i + r),  F = weight * u(node),
#                        T[k] = (1 + e**y)**e at y = (k + tau_q) h;
#   w = f, in ln s:      u(s - x_i) f(s) s/(s - x_i),  F = weight * f(node),
#                        T[k] = e**y (e**y - 1)**(e - 1), for k >= 2 only;
# and S[i] = c x_i**e.  On the u side a cell's panels obey the near zone's
# rule, so ``_PANEL_ERROR`` bounds them.  On the f side, in x = ln s - ln rho a
# cell k >= 2 past rho carries phi(x) = C e**(beta x) (1 - e**-x)**(e - 1),
# beta = e_f + e, whose log slope |beta + (e - 1)/(e**x - 1)| is at most the
# s the panels are sized by (taken at x = 2h), and whose branch point x = 0
# lies 2kP + 1 >= 5 half widths from the first panel's centre.  With P >=
# |e - 1| as well, the bound 32 M / (15 (R**2 - 1) R**16 min phi), M the
# largest |phi| on a Bernstein ellipse E_R inside Re x > 0 (found on 720
# boundary points), scanned over beta, e and the panel widths, peaks at
# 6.7e-16, at P = 1, e = 0 and h -> 0.
#
# Cells 0 and 1 past rho, at and next to the branch point, go to
# ``_branch_cells``.  Cell 1 takes 2P' panels, P' the rule above at the step
# h/2 (slope at x = h), so it is cells 2 and 3 of that grid and the bound
# holds.  On cell 0 a kernel piece is x**(e - 1) phi(x), phi = C e**(beta x)
# ((1 - e**-x)/x)**(e - 1) analytic in |Im x| < 2 pi, summed by the Q-node
# Gauss rule of weight x**(e - 1) on [0, c] (Golub and Welsch 1969, Math.
# Comp. 23:221-230).  A Gauss rule has positive weights and is exact to
# degree 2Q - 1, so its error is at most twice int x**(e - 1) times the best
# polynomial error, 2 M R**(1 - 2Q)/(R - 1) on E_R (ATAP Thm 8.2): 4 (M/m)
# R**(1 - 2Q)/(R - 1) of its sum, m = min phi on [0, c].  phi's log slope is
# beta + (e - 1) (1/(e**x - 1) - 1/x), and |1/(e**x - 1) - 1/x| <= 1 for
# |Im x| <= pi, where E_R lies if c <= 1 and (R - 1/R)/2 <= 2 pi; its points
# lie within c (R - 1/R)/4 of [0, c], so ln(M/m) <= c (|beta| + |e - 1|)
# (1 + (R - 1/R)/4).  At Q = 16 and c (|beta| + |e - 1|) <= 8 the best R
# gives 5.9e-21.  So c is the nearest of h, that span, 1 and the end of w's
# piece, and the near zone's rule sums the rest of the cell.
_GRID_PANEL_ERROR = 7e-16
_JACOBI_NODES = 16      # Q
_JACOBI_SPAN = 8.0      # c (|beta| + |e - 1|) at most on the rule's [0, c]
_JACOBI_ERROR = 6e-21
_GRID_ULPS = 8          # a log-uniform grid's ln nodes lie this many ulps from a line at most
_GRID_RANGE = 600.0     # every product F T S stays within e**+-this
_GRID_PANELS = 1 << 16  # kernel-table panels (pieces x offsets x P) at most; bounds every
                        # per-node array of the grid path
_GRID_ROWS = 128        # rows per correlation block; bounds the zero products of a block
                        # whose rows each start two cells past the row


def _log_step(x: np.ndarray):
    """The log step of x if it is a log-uniform grid of 3 or more nodes, else None."""
    if x.ndim != 1 or x.size < 3 or not (np.all(x[1:] > x[:-1]) and np.isfinite(x[-1])):
        return None
    t = np.log(x)
    h = (t[-1] - t[0]) / (x.size - 1)
    off_line = np.abs(t - (t[0] + h * np.arange(x.size))).max()
    return h if off_line <= _GRID_ULPS * np.spacing(np.abs(t).max()) else None


def _holds(pp: PiecewisePower, x: np.ndarray) -> bool:
    """Whether every node of x is a breakpoint of pp."""
    i = np.minimum(np.searchsorted(pp.bounds, x), pp.bounds.size - 1)
    return bool(np.all(pp.bounds[i] == x))


def _row_blocks(rows, lo, hi, rel):
    """Runs of consecutive rows that share a cell range [lo, hi), or whose
    ranges start where the row's do (rel: at 0, or two cells past an f-side
    row) and share hi; at most _GRID_ROWS rows each, as index ranges into
    rows."""
    key = np.where(rel, -1, lo)
    cut = np.flatnonzero((np.diff(rows) != 1) | (np.diff(key) != 0) | (np.diff(hi) != 0)) + 1
    for a, b in zip(np.concatenate([[0], cut]), np.concatenate([cut, [rows.size]])):
        for c in range(a, b, _GRID_ROWS):
            yield c, min(c + _GRID_ROWS, b)


def _correlate(F, T, rows, lo, hi, rel):
    """Per row i of rows, sum_q sum_j F[j, q] T[j - i + c, q] over the cells
    j in [lo, hi), c the cell count (the index of j - i = 0).  A block of at
    least as many rows as nodes per cell is one np.correlate per node offset
    over the first row's range (T vanishes on the cells a later rel row
    skips), a smaller one a dot product per row."""
    ncell, nq = F.shape
    out = np.zeros(ncell + 1)
    Fq, Tq = F.T.copy(), T.T.copy()
    Ff, Tf = F.ravel(), T.ravel()
    for a, b in _row_blocks(rows, lo, hi, rel):
        i0, i1, c0, c1 = rows[a], rows[b - 1] + 1, lo[a], hi[a]
        if b - a >= nq:
            ta, tb = c0 - i1 + 1 + ncell, c1 - i0 + ncell
            out[i0:i1] = sum(np.correlate(Tq[q, ta:tb], Fq[q, c0:c1], "valid")[::-1]
                             for q in range(nq))
        else:
            for i, c0 in zip(rows[a:b].tolist(), lo[a:b].tolist()):
                out[i] = Ff[c0 * nq:c1 * nq] @ Tf[(c0 - i + ncell) * nq:(c1 - i + ncell) * nq]
    return out


@lru_cache(maxsize=64)
def _panel_rule(panels: int):
    """Node offsets in [0, 1] and weights (summing to 1) of ``panels`` equal
    panels of the 8-node Gauss rule on a unit cell."""
    tau = ((np.arange(panels)[:, None] + 0.5 * (1.0 + _GAUSS_NODES)) / panels).ravel()
    return _frozen(tau), _frozen(np.tile(_GAUSS_WEIGHTS / (2.0 * panels), panels))   # shared: read-only


def _offset_cells(log_s, off, table, a, beta, sign, h):
    """Per entry i, exp(log_s[i]) int_{off[i] h}^inf e**(a z) (1 + sign e**-z)**beta dz
    with (a, beta) = (a, beta)[table[i]], a < 0: the suffix from cell off[i]
    of the table's Gauss cells [k h, (k + 1) h], plus the table's binomial
    series in e**-z from z = m h on, m >= max(off) and far enough out for
    every ratio cap.  All tables share one grid of cells and panels.

    sign = +1 is the near zone's integrand in t = ln r, with its slope rule
    and ``_PANEL_ERROR``; sign = -1 is f's grid kernel from two cells past
    the shift on (``_branch_cells`` takes the two before), with the grid
    path's rule and ``_GRID_PANEL_ERROR``.  The series take _K + 1 terms and
    the last one's remainder bound.  Returns (value, error estimate, ok): no
    entry is ok where the tables would need more than ``_MAX_PANELS`` panels
    a cell or ``_GRID_PANELS`` in all, or its table could pass
    e**``_GRID_RANGE``, and an entry is not ok where its scale or its value
    could leave e**+-``_GRID_RANGE``.
    """
    none = np.zeros(off.size), np.zeros(off.size), np.zeros(off.size, bool)
    cap = _STEEP / np.maximum(np.abs(beta), _STEEP / _X)
    k0, m = int(off.min()), max(int(off.max()), int(np.ceil(-np.log(cap.min()) / h)))
    if sign > 0:
        slope, least, error = np.maximum(np.abs(a), np.abs(a - beta)), 1.0, _PANEL_ERROR
    else:
        slope = np.maximum(np.abs(a), np.abs(a + beta / np.expm1(2.0 * h)))
        least, error = np.ceil(np.abs(beta)).max(), _GRID_PANEL_ERROR
    panels = max(np.ceil(h * np.maximum(1.0, slope)).max(), least)
    if not (panels <= _MAX_PANELS and a.size * (m - k0) * panels <= _GRID_PANELS):
        return none
    tau, weight = _panel_rule(int(panels))
    z = (np.arange(k0, m)[:, None] + tau) * h
    bend = np.log1p(np.exp(-z)) if sign > 0 else np.log(-np.expm1(-z))
    log_k = a[:, None, None] * z + beta[:, None, None] * bend
    fits = log_k.max(axis=(1, 2), initial=-_INF) < _GRID_RANGE
    cells = np.exp(np.minimum(log_k, _GRID_RANGE)) @ (weight * h)
    k = np.arange(_K + 1.0)
    terms = np.cumprod(np.concatenate([np.ones((a.size, 1)), (beta[:, None] - k[1:] + 1.0) / k[1:] * sign],
                                      axis=1), axis=1)
    terms *= np.exp((a[:, None] - k) * (m * h)) / (k - a[:, None])
    far = terms.sum(axis=1)
    suffix = np.cumsum(np.concatenate([cells, far[:, None]], axis=1)[:, ::-1], axis=1)[:, ::-1]
    suffix = suffix[table, off - k0]
    log_v = np.log(suffix)
    ok = (fits[table] & (np.abs(log_s) < _GRID_RANGE) & (log_v > -_GRID_RANGE)
          & (np.abs(log_s + log_v) < _GRID_RANGE))
    scale = np.exp(np.where(ok, log_s, -_INF))
    far_err = np.abs(terms[:, -1]) / -np.expm1(-m * h)
    return scale * suffix, scale * (error * (suffix - far[table]) + far_err[table]), ok


@lru_cache(maxsize=64)
def _jacobi_rule(e: float):
    """Nodes and log weights of the ``_JACOBI_NODES``-node Gauss rule of
    weight y**(e - 1) on [0, 1], e > 0, by Golub-Welsch: the eigenvalues of
    the Jacobi matrix and 1/e times the squared first components of its
    eigenvectors.  Written in e, so that e near 0 keeps its digits."""
    k = np.arange(1.0, _JACOBI_NODES)
    m = 2.0 * k - 1.0 + e
    diag = np.concatenate([[(e - 1.0) / (e + 1.0)], (e - 1.0) ** 2 / (m * (m + 2.0))])
    off = 2.0 * k * (k - 1.0 + e) / (m * np.sqrt((m + 1.0) * (2.0 * k - 2.0 + e)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    with np.errstate(divide="ignore"):   # a weight that underflows adds 0
        return _frozen(0.5 * (1.0 + nodes)), _frozen(2.0 * np.log(np.abs(vectors[0])) - np.log(e))


def _branch_cells(kern: PiecewisePower, w: PiecewisePower, x, pieces, h):
    """Cells 0 and 1 past the shift on f's grid, around the kernel's branch
    point at s = x: per row, int kern(s - x) w(s) s/(s - x) dz over
    z = ln(s/x) in [0, 2h], with pieces = ((lc, e, end) on cell 0, the same
    on cell 1): w is exp(lc) s**e on the cell up to s = end (inf where that
    piece holds it; lc = -inf with end = inf leaves the cell out).  A kernel
    piece c r**e_k gives exp(log_s) e**(a z) (1 - e**-z)**(e_k - 1), a =
    e + e_k.  On cell 0, up to z = c, each kernel piece adds its Gauss-Jacobi
    rule from 0 to its end less that to its start; cell 1, where nothing
    cuts it, takes 2P' panels; ``_add_gauss`` sums the rest (see the comment
    above ``_GRID_PANEL_ERROR``).  An origin that diverges (e_k <= 0 at
    r = 0) adds 0: the caller flags it.  Returns (value, error estimate,
    ok), not ok where a weighted node value could leave e**+-``_GRID_RANGE``
    or cell 1 would pass ``_MAX_PANELS`` panels, or ``_GRID_PANELS`` in all.
    """
    (lc0, e0, end0), (lc1, e1, end1) = pieces
    value, err = np.zeros(x.size), np.zeros(x.size)
    ok = np.ones(x.size, bool)
    t = np.log(x)
    lc_k, e_k, bounds = kern.log_coefs, kern.exps, kern.bounds
    r1, r2 = x * np.expm1(h), x * np.expm1(2.0 * h)

    # cell 0, up to w's next piece and to a kernel piece with e_k <= 0, whose
    # weight z**(e_k - 1) has no integral from 0
    live = lc_k > -_INF
    usable = np.flatnonzero(live & (e_k > 0.0))
    stop = np.minimum(end0 - x, bounds[1:-1][live[1:] & (e_k[1:] <= 0.0)].min(initial=_INF))
    with np.errstate(divide="ignore"):   # a flat integrand spans up to 1
        span = _JACOBI_SPAN / (np.abs(e0[:, None] + e_k[usable])
                               + np.abs(e_k[usable] - 1.0)).max(axis=1, initial=0.0)
    c = np.minimum(np.where(lc0 > -_INF, np.minimum(span, 1.0), _INF), h)
    c = np.where(stop >= r1, c, np.minimum(c, np.log1p(stop / x)))
    r_c = x * np.expm1(c)
    for p in usable:
        rows = np.flatnonzero((lc0 > -_INF) & (bounds[p] < r_c))
        a = e0[rows] + e_k[p]
        log_s = lc_k[p] + lc0[rows] + a * t[rows]
        hi = np.where(bounds[p + 1] < r_c[rows], np.log1p(bounds[p + 1] / x[rows]), c[rows])
        y, log_weight = _jacobi_rule(e_k[p])
        for sign, end in ((1.0, hi), (-1.0, np.log1p(bounds[p] / x[rows])))[:1 + (p > 0)]:
            z = end[:, None] * y
            smooth = np.log(-np.expm1(-z) / z, where=z > 0.0, out=np.zeros_like(z))   # 0 at z = 0
            log_v = ((log_s + e_k[p] * np.log(end))[:, None] + log_weight + a[:, None] * z
                     + (e_k[p] - 1.0) * smooth)
            ok[rows] &= np.abs(log_v.max(axis=1)) < _GRID_RANGE
            v = np.exp(log_v).sum(axis=1)
            value[rows] += sign * v
            err[rows] += _JACOBI_ERROR * v
    # cell 1
    p = kern.piece_index(r1)
    whole = np.minimum(bounds[p + 1], end1 - x) >= r2
    fast = whole & (lc_k[p] + lc1 > -_INF)
    if fast.any():
        a, beta = e1 + e_k[p], e_k[p] - 1.0
        slope = np.where(fast, np.maximum(np.abs(a), np.abs(a + beta / np.expm1(h))), 0.0)
        half = max(np.ceil(0.5 * h * max(1.0, slope.max())), np.ceil(np.abs(beta[fast]).max()), 1.0)
        if 2.0 * half <= _MAX_PANELS and 2.0 * half * x.size <= _GRID_PANELS:
            tau, weight = _panel_rule(2 * int(half))
            z = h * (1.0 + tau)
            log_v = ((lc_k[p] + lc1 + a * t)[:, None] + a[:, None] * z
                     + beta[:, None] * np.log(-np.expm1(-z)))
            ok &= ~fast | (np.abs(log_v.max(axis=1)) < _GRID_RANGE)
            v = np.where(fast, np.exp(log_v) @ (weight * h), 0.0)
            value += v
            err += _GRID_PANEL_ERROR * v
        else:
            ok &= ~fast
    # the rest, but for a cell on which w vanishes whole (or that is left out)
    rest = [np.flatnonzero((c < h) & ((lc0 > -_INF) | (end0 < _INF))),
            np.flatnonzero(~whole & ((lc1 > -_INF) | (end1 < _INF)))]
    if rest[0].size or rest[1].size:
        rows = np.concatenate(rest)
        _add_gauss(kern, w, rows, x[rows], np.concatenate([r_c[rest[0]], r1[rest[1]]]),
                   np.concatenate([r1[rest[0]], r2[rest[1]]]), value, err, np.zeros(x.size, bool))
    return value, err, ok


def _grid_tails(w: PiecewisePower, kern: PiecewisePower, x, h, on_u: bool):
    """The grid factor w's tails past the grid's ends as ``_offset_cells``,
    row by row, where the tail is one piece of w and lies in one piece of
    the other factor at that row: one table per pair of pieces.  On u's
    grid, r**e_w (x_i + r)**e_k is x_i**(e_w + e_k) e**(a z) (1 + e**-z)**e_k
    in z = ln(x_i/r) below the grid (a = -e_w) and z = ln(r/x_i) above it
    (a = e_w + e_k); on f's, the kernel (s - x_i)**(e_k - 1) s times s**e_w
    is x_i**(e_w + e_k) e**(a z) (1 - e**-z)**(e_k - 1) in z = ln(s/x_i),
    from two cells past each shift on, and the last two rows' cells before
    that, past the grid's end, are ``_branch_cells``.  A divergent tail
    reads inf.  Returns (value, error estimate, done): a row is done where
    all its tails are summed, and reads 0 where not.
    """
    n = x.size
    t = np.log(x)
    rows = np.arange(n)
    value, err = np.zeros(n), np.zeros(n)
    summed = [np.full(n, not on_u), np.zeros(n, bool)]
    last = np.full(n, kern.npieces - 1)
    # (w's piece, offsets in cells, the kernel's piece per row, whether it holds)
    if on_u:
        j = kern.piece_index(x)
        tails = [(0, rows, j, (w.bounds[1] == x[0]) & (x + x[0] <= kern.bounds[j + 1])),
                 (-1, n - 1 - rows, last, (w.bounds[-2] == x[-1]) & (kern.bounds[-2] <= x + x[-1]))]
    else:
        off = np.maximum(n - 1 - rows, 2)
        tails = [(-1, off, last, (w.bounds[-2] == x[-1]) & (kern.bounds[-2] <= x * np.expm1(off * h)))]
    entries, tables = [], []   # (side, row, offset, table, log scale), (a, beta)
    for p, off, j, holds in tails:
        for jj in sorted(set(j[holds].tolist())):
            sel = np.flatnonzero(holds & (j == jj))
            lc, e_w, e_k = w.log_coefs[p] + kern.log_coefs[jj], w.exps[p], kern.exps[jj]
            a = e_w + e_k if p else -e_w
            if lc == -_INF or a >= 0.0:   # a dead tail adds 0, a divergent one inf
                if lc > -_INF:
                    value[sel] = err[sel] = _INF
                summed[p][sel] = True
                continue
            entries.append((np.full(sel.size, p), sel, off[sel], np.full(sel.size, len(tables)),
                            lc + (e_w + e_k) * t[sel]))
            tables.append((a, e_k if on_u else e_k - 1.0))
    if tables:
        side, row, off, table, log_s = (np.concatenate(c) for c in zip(*entries))
        a, beta = np.array(tables).T
        v, e, ok = _offset_cells(log_s, off, table, a, beta, 1.0 if on_u else -1.0, h)
        value += np.bincount(row[ok], weights=v[ok], minlength=n)
        err += np.bincount(row[ok], weights=e[ok], minlength=n)
        for p in (0, -1):
            summed[p][row[ok & (side == p)]] = True
    if not on_u and w.bounds[-2] == x[-1]:
        # row n - 2's cell 1 and row n - 1's cells 0 and 1 lie in w's last piece
        lc, e_w, end = np.full(2, w.log_coefs[-1]), np.full(2, w.exps[-1]), np.full(2, _INF)
        v, e, ok = _branch_cells(kern, w, x[-2:], ((np.array([-_INF, lc[0]]), e_w, end),
                                                   (lc, e_w, end)), h)
        value[-2:] += v
        err[-2:] += e
        summed[1][-2:] &= ok
    done = summed[0] & summed[1]
    value[~done] = err[~done] = 0.0
    return value, err, done


def _merged(pp: PiecewisePower, log_coefs) -> PiecewisePower:
    """pp with the given log coefficients, each run of equal neighbouring
    pieces one piece; a vanishing piece's exponent reads 0."""
    e = np.where(log_coefs == -_INF, 0.0, pp.exps)
    new = np.concatenate([[True], (log_coefs[1:] != log_coefs[:-1]) | (e[1:] != e[:-1])])
    return PiecewisePower._from_logs(np.append(pp.bounds[:-1][new], _INF), log_coefs[new], e[new])


def _grid_integrate(integrand: PowerIntegrand, h: float, on_u: bool):
    """The grid path of ``integrate_grid``, on u's grid or on f's: the
    cells as Toeplitz correlations, w's tails as ``_grid_tails`` and, on
    f's grid, the two cells past each shift as ``_branch_cells``; one
    ``integrate`` call takes the rows whose tails do not fit, with w
    vanishing on the grid.  None where a cell needs more than
    ``_MAX_PANELS`` panels, the kernel tables would pass ``_GRID_PANELS``
    panels or a product F T S or a branch-cell node value could leave the
    float range."""
    u, f, x = integrand.u, integrand.f, integrand.rho
    n = x.size
    rows = np.arange(n)
    w, kern, start = (u, f, np.zeros(n, int)) if on_u else (f, u, rows + 2)
    # the other factor with equal neighbouring pieces merged: a breakpoint
    # that changes nothing (g v = r**2 on both sides of 1 where
    # alpha - gamma = 2) cuts no cell and no tail
    kern = _merged(kern, kern.log_coefs)
    t = np.log(x)
    width = np.log(x[1:] / x[:-1])

    # w's piece on each cell, and the panels each needs: P is the most any
    # cell needs; a cell that w breaks inside is summed directly
    nxt = np.searchsorted(w.bounds, x[:-1], side="right")
    lc_w, e_w = w.log_coefs[nxt - 1], w.exps[nxt - 1]
    live = lc_w > -_INF
    pieces = np.flatnonzero(kern.log_coefs > -_INF)
    lc_k, e_k = kern.log_coefs[pieces], kern.exps[pieces]
    ek = e_k[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        if on_u:
            slope, least = np.maximum(np.abs(e_w), np.abs(e_w + ek)), 1.0
        else:
            slope = np.maximum(np.abs(e_w + ek), np.abs(e_w + ek + (ek - 1.0) / np.expm1(2.0 * h)))
            least = np.ceil(np.abs(e_k - 1.0)).max(initial=1.0)
        need = np.maximum(np.ceil(width * np.maximum(1.0, slope.max(axis=0, initial=0.0))), least)
    direct = w.bounds[nxt] < x[1:]
    use = live & ~direct
    panels = need[use].max(initial=1.0)
    if not (panels <= _MAX_PANELS and max(pieces.size, 1) * (2 * n - 2) * panels <= _GRID_PANELS):
        return None

    tau, weight = _panel_rule(int(panels))
    k = np.arange(1 - n, n - 1)   # j - i over the cells j and rows i
    y = (k[:, None] + tau) * h
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # checked below
        log_F = (lc_w[:, None] + e_w[:, None] * (t[:-1, None] + tau * width[:, None])
                 + np.log(weight * width[:, None]))
        log_F[~use] = -_INF
        if on_u:
            log_T = e_k[:, None, None] * np.logaddexp(0.0, y)
        else:
            log_T = (e_k[:, None, None] - 1.0) * (y + np.log(-np.expm1(-y))) + y
            log_T[:, k < 2] = -_INF
        log_S = lc_k[:, None] + e_k[:, None] * t
    fin_F, fin_T = log_F[use], log_T[log_T > -_INF]
    if fin_F.size and fin_T.size and not (
            fin_F.max() + fin_T.max() + log_S.max() < _GRID_RANGE
            and fin_F.min() + fin_T.min() + log_S.min() > -_GRID_RANGE):
        return None
    F, T, S = np.exp(log_F), np.exp(log_T), np.exp(log_S)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        # past the float range: not ok
        value, err, done = _grid_tails(w, kern, x, h, on_u)
        if not on_u:   # cells 0 and 1 past each shift inside the grid
            end = np.where(direct, w.bounds[nxt], _INF)
            cells = [(lc_w, e_w, end), (np.append(lc_w[1:], -_INF), np.append(e_w[1:], 0.0),
                                         np.append(end[1:], _INF))]
            v, e, ok = _branch_cells(kern, w, x[:-1], cells, h)
            if not ok.all():
                return None
            value[:-1] += v
            err[:-1] += e
    todo = np.flatnonzero(~done)
    if todo.size:   # the tails that do not fit: w beyond the grid as a source of its own
        beyond = _merged(w, np.where((w.bounds[1:] <= x[0]) | (w.bounds[:-1] >= x[-1]),
                                     w.log_coefs, -_INF))
        part = integrate(PowerIntegrand(*((beyond, f) if on_u else (u, beyond)), x[todo]))
        value[todo] += part.value
        err[todo] += part.abs_error_estimate

    # per row, the cells in each piece of the other factor: from the first node
    # at or past the piece's start to the last one at or before its end
    base = np.zeros(n) if on_u else x   # r = s - base
    edges = (kern.bounds[:, None] - x) if on_u else (x + kern.bounds[:, None])
    at = np.searchsorted(x, edges.ravel(), side="left").reshape(edges.shape)
    upto = np.searchsorted(x, edges.ravel(), side="right").reshape(edges.shape) - 1
    # direct: the cell each inner breakpoint of it cuts, and the direct
    # columns in the rows where they are not near cells
    d_rows, d_cells = [], []
    for m in range(1, kern.bounds.size - 1):
        c = upto[m]
        cut = (at[m] > c) & (c >= start) & (c <= n - 2)
        cut[cut] = ~direct[c[cut]]
        d_rows.append(rows[cut])
        d_cells.append(c[cut])
    cols = np.flatnonzero(direct)
    col, row = _ranges(np.zeros(cols.size, int),
                       np.full(cols.size, n) if on_u else np.maximum(cols - 1, 0))
    d_rows, d_cells = np.concatenate(d_rows + [row]), np.concatenate(d_cells + [cols[col]])

    if d_rows.size:
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            _add_gauss(u, f, d_rows, x[d_rows], x[d_cells] - base[d_rows],
                       x[d_cells + 1] - base[d_rows], value, err, np.zeros(n, bool))
    for m, p in enumerate(pieces):
        lo, hi = np.maximum(at[p], start), np.minimum(upto[p + 1], n - 1)
        sel = np.flatnonzero(hi > lo)
        if sel.size:
            sums = S[m] * _correlate(F, T[m], sel, lo[sel], hi[sel], lo[sel] == start[sel])
            value += sums
            err += (_PANEL_ERROR if on_u else _GRID_PANEL_ERROR) * sums
    tail_exponent, diverged = _divergence(u, f, x)
    value[diverged] = err[diverged] = _INF
    return QuadratureResult(value, err, np.full(n, tail_exponent), diverged)


def integrate_grid(integrand: PowerIntegrand) -> QuadratureResult:
    """``integrate``, summing the grid cells as Toeplitz correlations when the
    shifts are breakpoints of u or of f on a log-uniform grid of 3 or more
    nodes (a grid source's own grid); other inputs go to ``integrate``.

    The grid factor's tails past the grid's ends are summed as offset cells
    of the grid continued log-uniformly, with one shared binomial series
    beyond them; on f's grid the cell at each shift and the next one, real
    or past the grid's end, by a Gauss-Jacobi rule and finer Gauss panels.
    At rows where a breakpoint of either factor cuts a tail (a breakpoint
    between two equal pieces of the other factor cuts nothing), one
    ``integrate`` call sums the grid factor beyond the grid.  The divergence
    flags and tail exponent are ``integrate``'s.  Every cell gets the panels
    the steepest one needs; cells that a breakpoint of either factor cuts are
    summed directly.  Inputs whose cells need more than ``_MAX_PANELS``
    panels, whose kernel tables would pass ``_GRID_PANELS`` panels (so
    memory stays bounded), where a product of a node value, a kernel entry
    and a row scale, or a branch cell's term, could leave the float range,
    or where the ``integrate`` call raises, go to ``integrate`` whole.  The
    error estimate adds the rules' a-priori bounds (``_PANEL_ERROR``,
    ``_GRID_PANEL_ERROR`` or ``_JACOBI_ERROR`` of the sums) and the shared
    series' remainder bound.
    """
    rho = integrand.rho
    h = _log_step(rho)
    if h is not None:
        on_u = _holds(integrand.u, rho)
        if on_u or _holds(integrand.f, rho):
            try:
                res = _grid_integrate(integrand, h, on_u)
            except ParameterError:
                res = None
            if res is not None:
                return res
    return integrate(integrand)
