"""Non-existence witnesses: both sides of the subcritical scaling comparison.

For a scan of outer radii R the module computes a lower bound on the
weighted double-potential side (annulus shells, term by term) and an upper
bound on the eigenvalue side (surrogate first Dirichlet eigenvalue on the
annulus, raised to 2/(p-1)).  A verdict of CONTRADICTION means the ratio
rhs/lhs grows without bound along the scan, which rules out positive
solutions; the exact-rational exponent gap is carried alongside as a
cross-check.

All kernel lower-bound constants are normalized to 1; every report flags
this normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .kernels import annulus_lower_bound
from .profiles import ManifoldProfile, SourceProfile, as_fraction
from .radial import fit_loglog_slope, require_normal
from .spectral import SurrogateOperator, annulus_systems, lambda1_annulus

VERDICT_CONTRADICTION = "CONTRADICTION"
VERDICT_NO_CONTRADICTION = "NO_CONTRADICTION"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"

NORMALIZATION_NOTE = ("kernel lower bound normalized: the annulus Green bound enters as "
                      "R**(-2*gamma) with constant 1; comparability constants are not modeled")

# decision thresholds for a finite scan of an asymptotic statement
GAP_RESOLUTION = 0.1          # fitted exponent gaps inside +-this are 'equal'
RATIO_GROWTH_FACTOR = 2.0     # monotone ratio growth over the last 3 points
LOG_FIT_MIN_CORRELATION = 0.999


def _default_r_list():
    return tuple(float(2 ** k) for k in range(10, 21))


@dataclass(frozen=True)
class WitnessConfig:
    """Annulus-system geometry for the witness scan.

    tau and big_n fix the shell decomposition; r_inner is the radius of the
    inner hole; every scan radius must exceed r_inner/tau.  The shell count k
    for radius R is the integer with tau**(k+1) >= r_inner/(big_n**2 R) >=
    tau**(k+2).
    """

    tau: float = 0.5
    big_n: float = 4.0
    r_inner: float = 2.0
    r_list: tuple = field(default_factory=_default_r_list)

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ParameterError(f"tau must lie in (0,1), got {self.tau}")
        if not self.big_n > 2.0:
            raise ParameterError(f"big_n must exceed 2, got {self.big_n}")
        if not self.r_inner >= 1.0:
            raise ParameterError(f"r_inner must be >= 1, got {self.r_inner}")
        rl = tuple(float(r) for r in self.r_list)
        # the growth test compares the last three ratios
        if len(rl) < 3 or any(b <= a for a, b in zip(rl, rl[1:])):
            raise ParameterError("r_list must be increasing with at least 3 entries")
        if rl[0] * self.tau <= self.r_inner:
            raise ParameterError(
                f"every scan radius must exceed r_inner/tau = {self.r_inner / self.tau}")
        if not math.isfinite(self.big_n * self.big_n * rl[-1]):
            raise ParameterError(f"big_n**2 * R leaves the float range at radius R = {rl[-1]!r}")
        object.__setattr__(self, "r_list", rl)

    def shell_count(self, R: float) -> int:
        """Largest admissible shell index k for outer radius R (requires k >= 1)."""
        x = self.r_inner / (self.big_n ** 2 * R)
        k = int(math.floor(math.log(x) / math.log(self.tau))) - 1
        if k > 1 << 20:   # each shell is an array entry of the sum
            raise ParameterError(f"R = {R} needs {k} shells: tau = {self.tau!r} is too close to 1")
        # guard against floating error at exact powers
        while self.tau ** (k + 1) < x:
            k -= 1
        while self.tau ** (k + 2) > x:
            k += 1
        if k < 1:
            raise ParameterError(f"R = {R} too small for the shell decomposition (k = {k})")
        return k


def annulus_shell_sum(prof: ManifoldProfile, src: SourceProfile, p: float,
                      cfg: WitnessConfig, R: float) -> float:
    """sum_{i=0..k} (tau**i * big_n**2 * R)**(alpha + m - p*(2*gamma-alpha))."""
    k = cfg.shell_count(R)
    expo = prof.alpha + src.m - p * (2.0 * prof.gamma - prof.alpha)
    radii = cfg.big_n ** 2 * R * cfg.tau ** np.arange(k + 1)
    return float(np.sum(radii ** expo))


def _inf_weight_power(src: SourceProfile, p: float, cfg: WitnessConfig, R: float) -> float:
    """inf over the annulus (tau R, big_n**2 R) of the weight**(1/(p-1)).

    The weight r**m is monotone, so the infimum sits at the outer radius for
    m <= 0 and at the inner radius for m > 0.
    """
    base = cfg.big_n ** 2 * R if src.m <= 0 else cfg.tau * R
    return base ** (src.m / (p - 1.0))


def rhs_lower(prof: ManifoldProfile, src: SourceProfile, p: float,
              cfg: WitnessConfig, R) -> float | np.ndarray:
    """Lower bound of the weighted double-potential side at outer radius R:

        inf weight**(1/(p-1)) * R**(-2*gamma) * R**alpha * shell sum.

    R is one radius or an array of them; the source is validated once."""
    src.validate(prof)
    if not p > 1:
        raise ParameterError(f"p must exceed 1, got {p}")
    rs = np.asarray(R, dtype=float)
    rhs = np.empty(rs.shape)
    with np.errstate(over="ignore", invalid="ignore"):   # 0 or inf: verdict names the radius
        # radius by radius, each an np.float64: its powers overflow to inf
        for i, r in enumerate(rs.flat):
            s = annulus_shell_sum(prof, src, p, cfg, r)
            rhs.flat[i] = _inf_weight_power(src, p, cfg, r) * annulus_lower_bound(prof, r) * s
    return float(rhs) if rs.ndim == 0 else rhs


def lhs_upper(prof: ManifoldProfile, p: float, cfg: WitnessConfig, R,
              mesh: int = 256) -> float | np.ndarray:
    """lambda1 of the surrogate operator on (tau R, big_n**2 R), power 2/(p-1).

    R is one radius or an array of them.  One eigenproblem is solved, at the
    first radius R0: the operator is exactly homogeneous and the mesh scales
    with the annulus, so every other radius takes lambda1(R0) *
    (R/R0)**(gamma-alpha), equal up to rounding.  The other annuli are
    range-checked in one broadcast pass over (radii x nodes), which names
    the first out-of-range one in scan order.
    """
    if not p > 1:
        raise ParameterError(f"p must exceed 1, got {p}")
    op = SurrogateOperator.from_profile(prof)
    rs = np.asarray(R, dtype=float)
    r0, later = rs.flat[0], rs.ravel()[1:]
    lam0 = lambda1_annulus(op, cfg.tau * r0, cfg.big_n ** 2 * r0, mesh).value
    annulus_systems(op, cfg.tau * later, cfg.big_n ** 2 * later, mesh)
    with np.errstate(over="ignore"):   # 0 or inf: verdict names the radius
        lam = lam0 * (rs / r0) ** (op.gamma - op.alpha)
        # a scalar power per radius rounds as the solve's own value did at R0
        lhs = np.array([x ** (2.0 / (p - 1.0)) for x in lam.flat]).reshape(rs.shape)
    return float(lhs) if rs.ndim == 0 else lhs


def _shell_exponent(prof: ManifoldProfile, src: SourceProfile, p) -> Fraction:
    """Exact exponent alpha + m - p*(2*gamma-alpha) of the shell sum's terms."""
    al, g = as_fraction(prof.alpha), as_fraction(prof.gamma)
    return al + as_fraction(src.m) - as_fraction(p) * (2 * g - al)


def rational_exponent_gap(prof: ManifoldProfile, src: SourceProfile, p) -> Fraction:
    """Exact predictor of the fitted exponent gap e_rhs - e_lambda.

    Positive exactly when p is subcritical (p < (alpha+m)/(2*gamma-alpha));
    the relation is an identity, so the sign doubles as a cross-check on the
    numerics.
    """
    al, g, m = as_fraction(prof.alpha), as_fraction(prof.gamma), as_fraction(src.m)
    pq = as_fraction(p)
    e_rhs = m / (pq - 1) + al - 2 * g + max(_shell_exponent(prof, src, p), Fraction(0))
    e_lam = -2 * (al - g) / (pq - 1)
    return e_rhs - e_lam


@dataclass(frozen=True)
class WitnessReport:
    """Scan rows, fitted exponents, and the decision."""

    rows: tuple                      # (R, lhs, rhs, ratio) per scan radius
    e_lambda: float
    e_rhs: float
    gap_fitted: float
    gap_rational: Fraction
    log_flag: bool
    log_correlation: float
    verdict: str
    p: float
    config: WitnessConfig
    normalization_note: str = NORMALIZATION_NOTE

    @property
    def sign_agreement(self) -> bool:
        """Fitted gap sign matches the exact-rational predictor sign."""
        if self.gap_rational == 0:
            return abs(self.gap_fitted) <= GAP_RESOLUTION
        return (self.gap_fitted > 0) == (self.gap_rational > 0)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "p": self.p,
            "e_lambda": self.e_lambda,
            "e_rhs": self.e_rhs,
            "gap_fitted": self.gap_fitted,
            "gap_rational": str(self.gap_rational),
            "gap_rational_float": float(self.gap_rational),
            "log_flag": self.log_flag,
            "log_correlation": self.log_correlation,
            "sign_agreement": self.sign_agreement,
            "rows": [{"R": r, "lhs": l, "rhs": h, "ratio": q} for r, l, h, q in self.rows],
            "config": {
                "tau": self.config.tau,
                "big_n": self.config.big_n,
                "r_inner": self.config.r_inner,
                "r_list": list(self.config.r_list),
            },
            "decision_rule": {
                "gap_resolution": GAP_RESOLUTION,
                "ratio_growth_factor": RATIO_GROWTH_FACTOR,
                "log_fit_min_correlation": LOG_FIT_MIN_CORRELATION,
            },
            "normalization_note": self.normalization_note,
        }


def verdict(prof: ManifoldProfile, src: SourceProfile, p: float,
            cfg: WitnessConfig | None = None, mesh: int = 256) -> WitnessReport:
    """Scan the configured radii and decide the comparison.

    CONTRADICTION when the ratio rhs/lhs grows without bound along the scan:
    fitted exponent gap above the resolution, or monotone ratio growth by the
    configured factor over the last three points, or equal exponents with a
    clean logarithmic residual (correlation >= 0.999).
    NO_CONTRADICTION when the gap is clearly negative; INCONCLUSIVE when the
    scan cannot separate the two.

    e_rhs is fitted on rhs divided by the shell sum's unsaturated fraction
    -expm1(-(k+1)|c ln tau|), k shells of term exponent c, which still grows
    over the scan for small |c|; at c = 0, decided exactly, on rhs itself.
    """
    cfg = cfg or WitnessConfig()
    src.validate(prof)
    if not p > 1:
        raise ParameterError(f"p must exceed 1, got {p}")
    rs = np.array(cfg.r_list)
    lhs = lhs_upper(prof, p, cfg, rs, mesh)
    rhs = rhs_lower(prof, src, p, cfg, rs)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):   # checked below
        ratio = rhs / lhs
    require_normal("a witness side (lhs, rhs or rhs/lhs)", np.repeat(rs, 3),   # radius by radius
                   np.column_stack([lhs, rhs, ratio]).ravel())
    e_lam, e_rhs = fit_loglog_slope(rs, lhs), fit_loglog_slope(rs, rhs)
    c = _shell_exponent(prof, src, p)
    if c != 0:   # the slope of rhs/fraction as a difference of slopes: no quotient overflows
        shells = np.array([cfg.shell_count(R) for R in rs])
        e_rhs -= fit_loglog_slope(rs, -np.expm1(-(shells + 1) * abs(float(c) * math.log(cfg.tau))))
    gap_fit = e_rhs - e_lam

    # logarithmic residual test: ratio against a + b*ln R, whose slope has the
    # correlation's sign; scaled by a power of two, exact: corrcoef's dot
    # products cannot overflow
    scaled = np.ldexp(ratio, -np.frexp(np.max(ratio))[1])
    with np.errstate(divide="ignore", invalid="ignore"):   # a constant ratio: nan, read as 0
        corr = float(np.nan_to_num(np.corrcoef(np.log(rs), scaled)[0, 1]))
    log_flag = abs(gap_fit) <= GAP_RESOLUTION and corr >= LOG_FIT_MIN_CORRELATION

    growing = (ratio[-1] > ratio[-2] > ratio[-3]
               and ratio[-1] >= RATIO_GROWTH_FACTOR * ratio[-3])

    if gap_fit > GAP_RESOLUTION or log_flag or growing:
        word = VERDICT_CONTRADICTION
    elif gap_fit < -GAP_RESOLUTION:
        word = VERDICT_NO_CONTRADICTION
    else:
        word = VERDICT_INCONCLUSIVE

    rows = tuple((float(R), float(l), float(h), float(q))
                 for R, l, h, q in zip(rs, lhs, rhs, ratio))
    return WitnessReport(rows, e_lam, e_rhs, gap_fit,
                         rational_exponent_gap(prof, src, p),
                         log_flag, corr, word, float(p), cfg)
