"""Radial power-law profiles, critical-exponent arithmetic, and exponent planning.

A manifold enters the toolkit only through its radial profiles: the volume
profile v and the Green-decay profile g, both normalized so the regime
crossover sits at radius 1 and every comparability constant equals 1.
Source terms enter through the weight profile psi and the envelope profile f.
All threshold and admissibility comparisons are done in exact rational
arithmetic so that inclusive/strict boundaries are decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .radial import PiecewisePower

TWO_REGIME = "two-regime"
PURE_POWER = "pure-power"

REGIME_NONEXISTENCE = "NONEXISTENCE"
REGIME_EXISTENCE = "EXISTENCE"
REGIME_BOUNDARY = "BOUNDARY"

PROFILE_KINDS = ("v", "g", "psi", "f")


def as_fraction(x) -> Fraction:
    """Exact rational view of a number.

    Floats are converted to their exact binary value, so comparisons are
    exact with respect to the numbers actually supplied.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ParameterError(f"cannot interpret {x!r} as a rational number")


@dataclass(frozen=True)
class ManifoldProfile:
    """Radial geometry data: volume exponent, Green exponent, small-scale dimension.

    ``alpha`` is the large-radius volume-growth exponent, ``gamma`` the
    large-radius Green-decay exponent, ``dim_n`` the small-scale dimension
    driving the r<=1 branches.  The crossover radius is normalized to 1.
    Finiteness of the composed (biharmonic) kernel requires gamma > alpha/2;
    that condition is *not* enforced here so that divergence probes can be
    constructed, only by the routines that genuinely need it.
    """

    alpha: float
    gamma: float
    dim_n: int = 6
    mode: str = TWO_REGIME

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if not self.gamma > 0:
            raise ParameterError(f"gamma must be positive, got {self.gamma}")
        if int(self.dim_n) != self.dim_n or self.dim_n < 3:
            raise ParameterError(f"dim_n must be an integer >= 3, got {self.dim_n}")
        if self.mode not in (TWO_REGIME, PURE_POWER):
            raise ParameterError(f"mode must be {TWO_REGIME!r} or {PURE_POWER!r}, got {self.mode!r}")

    @property
    def green_composition_finite(self) -> bool:
        """True iff the composed Green kernel is finite (gamma > alpha/2)."""
        return as_fraction(self.gamma) > as_fraction(self.alpha) / 2

    @property
    def existence_window(self) -> bool:
        """True iff gamma < alpha < 2*gamma, the window the existence machinery needs."""
        a, g = as_fraction(self.alpha), as_fraction(self.gamma)
        return g < a < 2 * g

    def require_existence_window(self):
        if not self.existence_window:
            raise ParameterError(
                f"existence-side routines require gamma < alpha < 2*gamma; "
                f"got alpha={self.alpha}, gamma={self.gamma}"
            )


@dataclass(frozen=True)
class SourceProfile:
    """Weight exponents: s for the weight profile psi, m for the lower-bound weight.

    Admissibility (2*(gamma-alpha) < s <= 0 and m > 2*(gamma-alpha)) depends on
    the manifold profile and is checked by :meth:`validate`, which every
    consuming operation calls.
    """

    s: float = 0.0
    m: float = 0.0

    def __post_init__(self):
        if self.s > 0:
            raise ParameterError(f"s must be <= 0, got {self.s}")

    def validate(self, prof: ManifoldProfile):
        lo = 2 * (as_fraction(prof.gamma) - as_fraction(prof.alpha))
        if not as_fraction(self.s) > lo:
            raise ParameterError(f"s must exceed 2*(gamma-alpha) = {float(lo)}, got {self.s}")
        if not as_fraction(self.m) > lo:
            raise ParameterError(f"m must exceed 2*(gamma-alpha) = {float(lo)}, got {self.m}")
        return self


def branch_exponents(kind: str, prof: ManifoldProfile, src: SourceProfile | None = None):
    """Exponent pair (inner, outer) of a profile: inner for r<=1, outer for r>=1.

    In pure-power mode the outer formula is used everywhere.
    """
    a, g, n = prof.alpha, prof.gamma, prof.dim_n
    if kind == "v":
        inner, outer = float(n), float(a)
    elif kind == "g":
        inner, outer = float(2 - n), float(-g)
    elif kind == "psi":
        if src is None:
            raise ParameterError("profile 'psi' needs a SourceProfile for its exponent s")
        inner, outer = 0.0, float(src.s)
    elif kind == "f":
        inner, outer = 0.0, float(a - 2 * g)
    else:
        raise ParameterError(f"unknown profile kind {kind!r}; expected one of {PROFILE_KINDS}")
    if prof.mode == PURE_POWER:
        inner = outer
    return inner, outer


def eval_profile(kind: str, prof: ManifoldProfile, src: SourceProfile | None, r: float) -> float:
    """Evaluate one of the four radial profiles at radius r > 0."""
    if not r > 0:
        raise ParameterError(f"radius must be positive, got {r}")
    inner, outer = branch_exponents(kind, prof, src)
    return r ** (inner if r <= 1.0 else outer)


def profile_piecewise(kind: str, prof: ManifoldProfile, src: SourceProfile | None = None,
                      power: float = 1.0) -> PiecewisePower:
    """Exact piecewise-power view of profile**power, unit coefficients."""
    inner, outer = branch_exponents(kind, prof, src)
    if inner == outer:
        return PiecewisePower.single(1.0, outer * power)
    return PiecewisePower((0.0, 1.0, float("inf")), (1.0, 1.0), (inner * power, outer * power))


def critical_exponent(alpha, gamma, weight_exponent) -> Fraction:
    """Exact threshold (alpha + weight_exponent) / (2*gamma - alpha).

    Defined only when 2*gamma > alpha and the weight exponent exceeds
    2*(gamma - alpha), where the threshold is > 1 or the range collapses.
    """
    a, g, w = as_fraction(alpha), as_fraction(gamma), as_fraction(weight_exponent)
    denom = 2 * g - a
    if denom == 0:
        raise ParameterError("threshold undefined: 2*gamma equals alpha")
    if denom < 0:
        raise ParameterError("threshold requires 2*gamma > alpha")
    if not w >= 2 * (g - a):
        raise ParameterError(
            f"weight exponent must be at least 2*(gamma-alpha) = {float(2 * (g - a))}, got {weight_exponent}"
        )
    return (a + w) / denom


@dataclass(frozen=True)
class ClassificationReport:
    """Verdict on existence of positive solutions at exponent p."""

    p_star_nonexistence: Fraction
    p_star_existence: Fraction
    regime: str
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "p_star_nonexistence": str(self.p_star_nonexistence),
            "p_star_nonexistence_float": float(self.p_star_nonexistence),
            "p_star_existence": str(self.p_star_existence),
            "p_star_existence_float": float(self.p_star_existence),
            "regime": self.regime,
            "notes": list(self.notes),
        }


def classify(prof: ManifoldProfile, src: SourceProfile, p) -> ClassificationReport:
    """Place exponent p relative to both critical thresholds.

    With equal weight exponents (m == s) the two thresholds coincide and the
    regimes are complementary: p <= p* is NONEXISTENCE (the boundary is
    inclusive on the non-existence side), p > p* is EXISTENCE.  With m != s
    the thresholds differ; p falling between them is reported as BOUNDARY
    with the gap flagged in the notes.
    """
    src.validate(prof)
    pq = as_fraction(p)
    if not pq > 1:
        raise ParameterError(f"the classification concerns p > 1, got {p}")
    star_ne = critical_exponent(prof.alpha, prof.gamma, src.m)
    star_ex = critical_exponent(prof.alpha, prof.gamma, src.s)
    notes = []
    if pq == star_ne:
        notes.append("p sits exactly on the non-existence threshold (inclusive: no positive solution)")
    nonexist = pq <= star_ne
    exist = pq > star_ex

    if star_ne == star_ex:
        regime = REGIME_NONEXISTENCE if nonexist else REGIME_EXISTENCE
    else:
        notes.append(
            f"weight exponents differ (m={src.m}, s={src.s}): non-existence threshold "
            f"{float(star_ne)}, existence threshold {float(star_ex)}"
        )
        if nonexist and not exist:
            regime = REGIME_NONEXISTENCE
        elif exist and not nonexist:
            regime = REGIME_EXISTENCE
        else:
            regime = REGIME_BOUNDARY
            notes.append("p lies between the two thresholds; verdicts apply to different weights")
    return ClassificationReport(star_ne, star_ex, regime, tuple(notes))


@dataclass(frozen=True)
class ExponentPlan:
    """Admissible exponent tuple (p, a, b) plus the smallness parameter l.

    a and b are kept as exact rationals so that the inclusive upper bound on b
    and the strict windows are decided without rounding.  l is chosen later
    from the measured contraction constants and stays None until then.
    """

    p: Fraction
    a: Fraction
    b: Fraction
    l: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", as_fraction(self.p))
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        if not self.p > 1:
            raise ParameterError(f"p must exceed 1, got {self.p}")
        if not 0 < self.a < 1:
            raise ParameterError(f"a must lie in (0, 1), got {self.a}")
        if not self.b > 0:
            raise ParameterError(f"b must be positive, got {self.b}")
        if self.l is not None and not self.l > 0:
            raise ParameterError(f"l must be positive, got {self.l}")

    def with_l(self, l: float) -> "ExponentPlan":
        return ExponentPlan(self.p, self.a, self.b, float(l))

    def as_dict(self) -> dict:
        return {
            "p": float(self.p),
            "a": float(self.a),
            "b": float(self.b),
            "l": self.l,
        }


@dataclass(frozen=True)
class WindowCheck:
    """One admissibility inequality, evaluated exactly."""

    index: int
    name: str
    formula: str
    lhs: Fraction
    rhs: Fraction
    strict: bool

    @property
    def holds(self) -> bool:
        return self.lhs > self.rhs if self.strict else self.lhs >= self.rhs

    def describe(self) -> str:
        op = ">" if self.strict else ">="
        state = "holds" if self.holds else "FAILS"
        return (f"condition {self.index} ({self.name}): {self.formula}: "
                f"{float(self.lhs):g} {op} {float(self.rhs):g} {state}")


def exponent_window_checks(prof: ManifoldProfile, src: SourceProfile, plan: ExponentPlan):
    """The five admissibility inequalities tying (a, b) to (alpha, gamma, s, p).

    Conditions 2, 3 control the tails of the weighted-source potential;
    4 and 5 control the envelope-gain potentials.  All are evaluated in exact
    rational arithmetic; only condition 2 is inclusive.
    """
    al, g = as_fraction(prof.alpha), as_fraction(prof.gamma)
    s = as_fraction(src.s)
    p, a, b = plan.p, plan.a, plan.b
    d = 2 * g - al
    return [
        WindowCheck(1, "a_kernel_margin", "gamma > (2*gamma-alpha)*a", g, d * a, True),
        WindowCheck(2, "b_kernel_cap", "gamma >= (2*gamma-alpha)*b", g, d * b, False),
        WindowCheck(3, "weighted_source_tail", "-s + (2*gamma-alpha)*a*p > alpha",
                    -s + d * a * p, al, True),
        WindowCheck(4, "envelope_gain", "gamma + (2*gamma-alpha)*(b-a) > alpha",
                    g + d * (b - a), al, True),
        WindowCheck(5, "cross_tail", "gamma - s + (2*gamma-alpha)*(a*p-b) > alpha",
                    g - s + d * (a * p - b), al, True),
    ]


def plan_exponents(prof: ManifoldProfile, src: SourceProfile, p,
                   a=None, b=None) -> ExponentPlan:
    """Construct an admissible (a, b) pair for strictly supercritical p.

    Defaults: a is the midpoint of its open window
    ((alpha+s)/((2*gamma-alpha)*p), 1); b is the inclusive upper endpoint
    gamma/(2*gamma-alpha).  Explicit a or b are validated against the same
    windows.  All five window conditions are re-derived and asserted on the
    result; an infeasible window raises naming the violated inequality.
    """
    prof.require_existence_window()
    src.validate(prof)
    al, g, s = as_fraction(prof.alpha), as_fraction(prof.gamma), as_fraction(src.s)
    pq = as_fraction(p)
    d = 2 * g - al
    p_min = (al + s) / d
    if not pq > p_min:
        raise ParameterError(
            f"p must exceed the existence threshold (alpha+s)/(2*gamma-alpha) = {float(p_min)}; got {p}"
        )
    a_lo = (al + s) / (d * pq)
    if a is None:
        aq = (a_lo + 1) / 2
    else:
        aq = as_fraction(a)
        if not a_lo < aq < 1:
            raise ParameterError(
                f"a = {a} outside its admissible window ({float(a_lo)}, 1)"
            )
    b_hi = g / d
    b_lo = aq + (al - g) / d
    if b is None:
        bq = b_hi
    else:
        bq = as_fraction(b)
        if not bq <= b_hi:
            raise ParameterError(f"b = {b} exceeds the inclusive upper bound gamma/(2*gamma-alpha) = {float(b_hi)}")
        if not bq > b_lo:
            raise ParameterError(f"b = {b} not above its lower bound a + (alpha-gamma)/(2*gamma-alpha) = {float(b_lo)}")
    plan = ExponentPlan(pq, aq, bq)
    for check in exponent_window_checks(prof, src, plan):
        if not check.holds:
            raise ParameterError("inadmissible plan: " + check.describe())
    return plan
