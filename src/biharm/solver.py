"""Existence machinery: bounded-potential checks, contraction constants,
smallness selection, and the Picard fixed point of the double-potential map.

The map under study is

    T u = potential( potential( psi * (u**p + l**p * f**(a*p)) ) )

acting on the order interval 0 <= u <= l * f**a.  The module measures the
two sup-ratio constants controlling invariance and contraction, picks l
from them, runs the iteration from u = 0, and (in surrogate kernel mode,
whose kernel is an exact inverse) verifies the second-order differential
residuals of the computed pair (u, h).

Norms are weighted by the envelope: ||u|| = sup |u| / f**a, so the invariant
set is the ball of radius l.  Measured constants are grid suprema and hence
lower bounds of the true suprema; reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentIntegralError, NonConvergenceError, ParameterError
from .kernels import KernelSpec, MODE_SURROGATE, potential
from .profiles import (ExponentPlan, ManifoldProfile, SourceProfile, as_fraction,
                       exponent_window_checks, profile_piecewise)
from .radial import PiecewisePower, RadialFunction, log_grid, pp_product, require_normal

CONSTANTS_NOTE = ("constants are suprema over a finite grid and therefore lower bounds "
                  "of the true suprema")

LAST_DECADE_VARIATION_LIMIT = 0.20


def default_grid(nodes: int = 1024) -> np.ndarray:
    """Log-spaced solver grid on [1e-3, 1e6].

    The node count is snapped down (by at most 2) so that the profile
    crossover radius 1 falls on a grid node, and that node is set to exactly
    1.0 (geomspace can miss it by an ulp); differencing across it is then
    clean second order.  A count below 10 would snap below the 8 nodes a
    solve needs, so it is refused as given.
    """
    n = int(nodes)
    if n < 10:
        raise ParameterError(f"solver grid needs at least 10 nodes (the count snaps down to "
                             f"3k + 1 so that r = 1 is a node, and a solve needs 8), got {nodes}")
    n -= (n - 1) % 3
    grid = log_grid(1e-3, 1e6, n)
    grid[(n - 1) // 3] = 1.0
    return grid


def _require_window(prof: ManifoldProfile, src: SourceProfile, plan: ExponentPlan):
    for check in exponent_window_checks(prof, src, plan):
        if not check.holds:
            raise DivergentIntegralError(
                "divergent potential: " + check.describe(),
                location="tail", exponent=float(check.lhs - check.rhs))


def _envelope(prof: ManifoldProfile, grid: np.ndarray, power: float,
              floor: float = np.finfo(float).tiny) -> np.ndarray:
    return require_normal(f"envelope f**{power!r}", grid,
                          profile_piecewise("f", prof, power=power).eval(grid), floor)


def _psi_f_source(prof: ManifoldProfile, src: SourceProfile, a_power: float) -> PiecewisePower:
    return pp_product(profile_piecewise("psi", prof, src),
                      profile_piecewise("f", prof, power=a_power))


def _last_decade_variation(grid: np.ndarray, ratio: np.ndarray, name: str) -> float:
    """Growth of the running sup across the last decade of the grid.

    Boundedness evidence: for a bounded ratio the sup stops moving once the
    grid is long enough, so extending it by the final decade changes the sup
    only marginally; an unbounded ratio keeps pushing it up, and a growth of
    LAST_DECADE_VARIATION_LIMIT or more raises.
    """
    inner = ratio[grid <= grid[-1] / 10.0]
    if not inner.size:
        raise ParameterError("the boundedness check needs a grid spanning over a decade")
    var = float(ratio.max() / inner.max() - 1.0)
    if var >= LAST_DECADE_VARIATION_LIMIT:
        raise DivergentIntegralError(
            f"sup ratio not stabilized: {name} varies by {var:.1%} over the last decade",
            location="tail")
    return var


def _validate_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.size < 8:
        raise ParameterError(f"degenerate grid: need at least 8 nodes, got {grid.size}")
    return grid


@dataclass(frozen=True)
class BoundednessCheck:
    """Sup-ratios for the two envelope-mapping inequalities.

    ratio1: potential(psi * f**(a*p)) against f**b
    ratio2: potential(f**b)           against f**a
    """

    sup_ratio1: float
    sup_ratio2: float
    variation1: float
    variation2: float


def verify_prop1(plan: ExponentPlan, spec: KernelSpec, src: SourceProfile,
                 grid) -> BoundednessCheck:
    """Check that the weighted-source potential is bounded by f**b and the
    f**b potential by f**a, as grid sup-ratios with stable last decades."""
    grid = _validate_grid(grid)
    prof = spec.prof
    _require_window(prof, src, plan)
    a, b, p = float(plan.a), float(plan.b), float(plan.p)

    p1 = potential(spec, _psi_f_source(prof, src, a * p), grid)
    ratio1 = p1.values / _envelope(prof, grid, b)
    p2 = potential(spec, profile_piecewise("f", prof, power=b), grid)
    ratio2 = p2.values / _envelope(prof, grid, a)
    var1 = _last_decade_variation(grid, ratio1, "ratio1")
    var2 = _last_decade_variation(grid, ratio2, "ratio2")
    return BoundednessCheck(float(ratio1.max()), float(ratio2.max()), var1, var2)


@dataclass(frozen=True)
class ContractionCheck:
    """Sup-ratio of the contraction-source potential and the plain global sup."""

    sup_ratio: float
    global_sup: float
    variation: float


def verify_prop2(plan: ExponentPlan, spec: KernelSpec, src: SourceProfile,
                 grid) -> ContractionCheck:
    """Check the contraction-side bounds: potential(psi * f**(a*(p-1)))
    against f**(b-a), and finiteness of sup potential(f**(b-a)).

    The combined tail inequality
        gamma - s + a*(p-1)*(2*gamma-alpha) - alpha > (2*gamma-alpha)*(b-a) > alpha - gamma > 0
    is asserted in exact arithmetic before any quadrature runs.
    """
    grid = _validate_grid(grid)
    prof = spec.prof
    al, g, s = as_fraction(prof.alpha), as_fraction(prof.gamma), as_fraction(src.s)
    a_q, b_q, p_q = plan.a, plan.b, plan.p
    d = 2 * g - al
    lhs = g - s + a_q * (p_q - 1) * d - al
    mid = d * (b_q - a_q)
    if not (lhs > mid > al - g > 0):
        raise ParameterError(
            "combined tail inequality fails: need "
            f"{float(lhs)} > {float(mid)} > {float(al - g)} > 0")
    _require_window(prof, src, plan)

    a, b, p = float(plan.a), float(plan.b), float(plan.p)
    p1 = potential(spec, _psi_f_source(prof, src, a * (p - 1.0)), grid)
    ratio = p1.values / _envelope(prof, grid, b - a)
    p2 = potential(spec, profile_piecewise("f", prof, power=b - a), grid)
    var = _last_decade_variation(grid, ratio, "ratio")
    return ContractionCheck(float(ratio.max()), float(p2.values.max()), var)


@dataclass(frozen=True)
class ConstantsEstimate:
    """Measured invariance and contraction constants (grid lower bounds).

    inner is potential(psi * f**(a*p)) on the grid and outer its potential,
    the double potential that C is read off; the fixed-point iteration takes
    its first step from them.
    """

    C: float
    C_prime: float
    note: str = CONSTANTS_NOTE
    inner: RadialFunction | None = field(default=None, repr=False, compare=False)
    outer: RadialFunction | None = field(default=None, repr=False, compare=False)


def _double_potential(spec: KernelSpec, src: SourceProfile, grid: np.ndarray,
                      a_power: float) -> tuple[RadialFunction, RadialFunction]:
    """potential(psi * f**a_power) and its potential, through the same
    sampled-grid pipeline the fixed-point map uses, so measured constants
    transfer."""
    source_vals = _psi_f_source(spec.prof, src, a_power).eval(grid)
    inner = potential(spec, RadialFunction(grid, source_vals))
    return inner, potential(spec, inner)


def estimate_constants(plan: ExponentPlan, spec: KernelSpec, src: SourceProfile,
                       grid) -> ConstantsEstimate:
    """C bounds the double potential of psi*f**(a*p) against f**a; C' is the
    plain sup of the double potential of psi*f**(a*(p-1)).  The estimate
    keeps both potentials of psi*f**(a*p): scaled by l**p, they are the first
    Picard step from u = 0."""
    grid = _validate_grid(grid)
    _require_window(spec.prof, src, plan)
    a, p = float(plan.a), float(plan.p)
    inner, outer = _double_potential(spec, src, grid, a * p)
    c_val = float(np.max(outer.values / _envelope(spec.prof, grid, a)))
    _, dp_con = _double_potential(spec, src, grid, a * (p - 1.0))
    return ConstantsEstimate(c_val, float(np.max(dp_con.values)), inner=inner, outer=outer)


def pick_l(plan: ExponentPlan, C: float, C_prime: float) -> float:
    """Smallness parameter: 0.9 * min((2C)**(-1/(p-1)), (C'p)**(-1/(p-1))).

    Re-asserts both smallness conditions (2*C*l**p <= l strictly and
    C'*p*l**(p-1) < 1) on the result.
    """
    if not (C > 0 and C_prime > 0):
        raise ParameterError("constants must be positive")
    p = float(plan.p)
    l = 0.9 * min((2.0 * C) ** (-1.0 / (p - 1.0)),
                  (C_prime * p) ** (-1.0 / (p - 1.0)))
    if not 2.0 * C * l ** p < l:
        raise ParameterError(f"smallness failed: 2*C*l**p = {2*C*l**p} not below l = {l}")
    if not C_prime * p * l ** (p - 1.0) < 1.0:
        raise ParameterError("contraction predictor not below 1")
    return l


def _source_factors(plan: ExponentPlan, spec: KernelSpec, src: SourceProfile,
                    grid: np.ndarray) -> tuple:
    """psi and l**p * f**(a*p) on the grid: the factors of the nonlinear
    source that do not depend on u, so a solve forms them once."""
    a, p, l = float(plan.a), float(plan.p), plan.l
    psi = profile_piecewise("psi", spec.prof, src).eval(grid)
    fap = _envelope(spec.prof, grid, a * p, floor=0.0)   # may underflow far out
    return psi, l ** p * fap


def _nonlinear_source(plan: ExponentPlan, spec: KernelSpec, src: SourceProfile,
                      grid: np.ndarray, u_vals: np.ndarray, factors=None) -> RadialFunction:
    """psi * (u**p + l**p f**(a*p)), from ``_source_factors``' pair when given."""
    psi, lp_fap = _source_factors(plan, spec, src, grid) if factors is None else factors
    return RadialFunction(grid, psi * (u_vals ** float(plan.p) + lp_fap))


def apply_T(plan: ExponentPlan, spec: KernelSpec, src: SourceProfile,
            u: RadialFunction) -> RadialFunction:
    """One application of the double-potential map to a member of the
    invariant set; membership (0 <= u <= l * f**a nodewise) is a precondition."""
    if plan.l is None:
        raise ParameterError("plan has no smallness parameter l; run pick_l first")
    grid = u.grid
    fa = _envelope(spec.prof, grid, float(plan.a))
    if np.any(u.values > plan.l * fa):   # u >= 0 holds for every RadialFunction
        raise ParameterError("u is not in the invariant set: need 0 <= u <= l * f**a nodewise")
    h = potential(spec, _nonlinear_source(plan, spec, src, grid, u.values))
    return potential(spec, h)


def measure_lipschitz(plan: ExponentPlan, spec: KernelSpec, src: SourceProfile,
                      grid, pairs: int = 50, seed: int = 0) -> float:
    """Largest quotient sup|Tu1-Tu2| / sup|u1-u2| over random pairs in the
    invariant set, including near-envelope pairs that approach the supremum."""
    grid = _validate_grid(grid)
    if plan.l is None:
        raise ParameterError("plan has no smallness parameter l")
    rng = np.random.default_rng(seed)
    fa = _envelope(spec.prof, grid, float(plan.a))
    top = plan.l * fa
    worst = 0.0
    for j in range(pairs):
        if j < pairs // 5:
            # near-envelope pair: the mean-value factor approaches its sup
            eps = 10.0 ** rng.uniform(-4, -2)
            u1, u2 = top, (1.0 - eps) * top
        else:
            u1 = top * rng.uniform(0.0, 1.0, grid.size)
            u2 = top * rng.uniform(0.0, 1.0, grid.size)
        t1 = apply_T(plan, spec, src, RadialFunction(grid, u1))
        t2 = apply_T(plan, spec, src, RadialFunction(grid, u2))
        num = float(np.max(np.abs(t1.values - t2.values)))
        den = float(np.max(np.abs(u1 - u2)))
        if den > 0:
            worst = max(worst, num / den)
    return worst


@dataclass(frozen=True)
class SolveReport:
    """Fixed-point outcome: constants, iteration record, and the pair (u, h)."""

    plan: ExponentPlan
    C: float
    C_prime: float
    l: float
    iterations: int
    final_step: float
    lipschitz_predictor: float
    step_ratios: tuple
    membership_margin: float
    u: RadialFunction
    h: RadialFunction
    spec: KernelSpec
    src: SourceProfile
    residuals: tuple | None = None
    constants_note: str = CONSTANTS_NOTE

    @property
    def measured_rate(self) -> float:
        return max(self.step_ratios) if self.step_ratios else 0.0

    def as_dict(self) -> dict:
        return {
            "plan": self.plan.as_dict(),
            "C": self.C,
            "C_prime": self.C_prime,
            "l": self.l,
            "iterations": self.iterations,
            "final_step": self.final_step,
            "lipschitz_predictor": self.lipschitz_predictor,
            "measured_rate": self.measured_rate,
            "step_ratios": list(self.step_ratios),
            "membership_margin": self.membership_margin,
            "kernel_mode": self.spec.mode,
            "grid": {"lo": float(self.u.grid[0]), "hi": float(self.u.grid[-1]),
                     "nodes": int(self.u.grid.size)},
            "residuals": list(self.residuals) if self.residuals else None,
            "constants_note": self.constants_note,
        }


def _scaled(scale: float, pot: RadialFunction) -> RadialFunction:
    """scale * pot, range-checked as a potential's values are: a value the
    scaling takes out of the normal float range raises, naming its radius."""
    tiny = np.finfo(float).tiny
    floor = np.where(pot.values >= tiny, tiny, -np.inf)
    return RadialFunction(pot.grid, require_normal("potential", pot.grid,
                                                   scale * pot.values, floor))


def solve_fixed_point(plan: ExponentPlan, spec: KernelSpec, src: SourceProfile,
                      grid, tol: float = 1e-10, maxit: int = 80) -> SolveReport:
    """Picard iteration from u = 0 until the weighted sup-norm step drops
    below tol.  The iterate sequence is increasing; steps contract at the
    measured geometric rate, and a non-geometric stall raises with the trace.

    The potential is linear, so the first step T(0) is l**p times the double
    potential of psi * f**(a*p) that ``estimate_constants`` reads C off; it
    is scaled from that estimate, not formed again.
    """
    if not tol > 0.0:
        raise ParameterError(f"tol must be positive, got {tol!r}")
    if maxit < 1:
        raise ParameterError(f"maxit must be at least 1, got {maxit!r}")
    grid = _validate_grid(grid)
    prof = spec.prof
    prof.require_existence_window()
    _require_window(prof, src, plan)
    constants = estimate_constants(plan, spec, src, grid)
    C, C_prime = constants.C, constants.C_prime
    l = pick_l(plan, C, C_prime)
    plan = plan.with_l(l)
    p = float(plan.p)
    if not l ** p >= np.finfo(float).tiny:
        raise ParameterError(f"the source weight l**p underflows at l = {l!r}, p = {p!r}")
    predictor = C_prime * p * l ** (p - 1.0)

    fa = _envelope(prof, grid, float(plan.a))
    u = RadialFunction(grid, np.zeros_like(grid))
    h, u_next = _scaled(l ** p, constants.inner), _scaled(l ** p, constants.outer)
    steps, ratios, factors = [], [], None
    for it in range(1, maxit + 1):
        if it > 1:
            factors = factors or _source_factors(plan, spec, src, grid)
            h = potential(spec, _nonlinear_source(plan, spec, src, grid, u.values, factors))
            u_next = potential(spec, h)
        step = float(np.max(np.abs(u_next.values - u.values) / fa))
        if steps and steps[-1] > 0 and step > 1e3 * np.finfo(float).tiny:
            ratios.append(step / steps[-1])
        steps.append(step)
        u = u_next
        if step < tol:
            margin = float(np.min(l * fa - u.values))
            return SolveReport(plan, C, C_prime, l, it, step, predictor,
                               tuple(ratios), margin, u, h, spec, src)
    if ratios and ratios[-1] >= 1.0:
        raise NonConvergenceError(
            "fixed-point iteration lost its geometric decay", trace=steps)
    raise NonConvergenceError(
        f"fixed-point iteration did not reach tol={tol} in {maxit} steps", trace=steps)


def surrogate_fd_apply(prof: ManifoldProfile, grid: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Discrete surrogate operator at interior nodes of a log-uniform grid.

    In log coordinates t = ln r the operator reads
        L u = -r**(gamma-alpha) * (u_tt + gamma u_t) / (alpha*gamma),
    discretized with second-order central differences.  Third derivatives of
    potentials jump at the profile crossover r = 1, so a grid that spans it
    must have 1.0 as a node with at least five nodes below; that node takes a
    left-sided stencil of higher order (the smooth-region second-order error
    then dominates the sup).
    """
    t = np.log(grid)
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-9):
        raise ParameterError("the surrogate stencil needs a log-uniform grid")
    spans = grid[0] < 1.0 < grid[-1]
    i = int(np.searchsorted(grid, 1.0))
    if spans and not (i >= 5 and grid[i] == 1.0):
        raise ParameterError("a grid across the crossover r = 1 needs a node 1.0 with 5 below it")
    al, ga = float(prof.alpha), float(prof.gamma)

    utt = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / dt ** 2
    ut = (vals[2:] - vals[:-2]) / (2.0 * dt)
    if spans:   # six-point left-sided stencils on vals[i], ..., vals[i - 5], summed in order
        left = vals[i::-1][:6]
        utt[i - 1] = sum((45, -154, 214, -156, 61, -10) * left) / (12 * dt ** 2)
        ut[i - 1] = sum((137, -300, 300, -200, 75, -12) * left) / (60 * dt)
    return -grid[1:-1] ** (ga - al) * (utt + ga * ut) / (al * ga)


def residual_check(prof: ManifoldProfile, report: SolveReport):
    """Differential residuals of the computed pair on interior nodes.

    Only the surrogate kernel is an exact inverse, so only that mode admits
    this check.  Returns (res1, res2): relative sup-norms of L u - h and of
    L h - psi*(u**p + l**p f**(a*p)).
    """
    if report.spec.mode != MODE_SURROGATE:
        raise ParameterError(
            f"residual check needs the surrogate-exact kernel, got {report.spec.mode!r}")
    grid = report.u.grid
    h_vals = report.h.values
    res1_num = np.abs(surrogate_fd_apply(prof, grid, report.u.values) - h_vals[1:-1])
    res1 = float(res1_num.max() / np.abs(h_vals).max())

    w = _nonlinear_source(report.plan, report.spec, report.src, grid, report.u.values)
    res2_num = np.abs(surrogate_fd_apply(prof, grid, h_vals) - w.values[1:-1])
    res2 = float(res2_num.max() / np.abs(w.values).max())
    return res1, res2
