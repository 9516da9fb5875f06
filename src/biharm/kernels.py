"""Green-kernel machinery: the composed biharmonic kernel, radial potential
operators in three kernel modes, annulus lower bounds, and a Euclidean Monte
Carlo oracle.

Kernel modes
------------
split-comparison
    (G phi)(rho) = int g(rho+r) phi(r) v(r) dr/r + int g(r) phi(rho+r) v(r) dr/r,
    the two-sided comparable reduction of the manifold potential for radial
    monotone sources.  Each term is one ``quad.integrate`` call over all
    radii.
surrogate-exact
    kernel max(rho, r)**(-gamma) against the measure alpha * r**(alpha-1) dr;
    the exact inverse of the surrogate radial operator in `spectral`.
euclidean-exact
    kernel max(rho, r)**(2-n) against the sphere-area measure; exact for the
    Newtonian kernel by the spherical mean value property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergentIntegralError, ParameterError
from .profiles import ManifoldProfile, profile_piecewise
from .quad import PowerIntegrand, QuadratureResult, integrate
from .radial import PiecewisePower, RadialFunction, power_integral, pp_product, require_normal

_INF = float("inf")
_ORACLE_MAX_DIM = 340            # math.gamma(n/2 + 1) overflows beyond

MODE_SPLIT = "split-comparison"
MODE_SURROGATE = "surrogate-exact"
MODE_EUCLIDEAN = "euclidean-exact"
KERNEL_MODES = (MODE_SPLIT, MODE_SURROGATE, MODE_EUCLIDEAN)


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R**n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel mode plus the profile it draws exponents from.

    The split-comparison factors g, v and g v are built once per spec, so
    every potential of a spec passes quad the same kernel objects, and the
    grid path's plans for them (kept while those objects live) end with it.
    """

    mode: str
    prof: ManifoldProfile

    def __post_init__(self):
        if self.mode not in KERNEL_MODES:
            raise ParameterError(f"kernel mode must be one of {KERNEL_MODES}, got {self.mode!r}")

    @cached_property
    def g(self) -> PiecewisePower:
        return profile_piecewise("g", self.prof)

    @cached_property
    def v(self) -> PiecewisePower:
        return profile_piecewise("v", self.prof)

    @cached_property
    def gv(self) -> PiecewisePower:
        return pp_product(self.g, self.v)


@dataclass(frozen=True)
class BallSource:
    """Indicator of the ball of given radius, scaled by height."""

    radius: float
    height: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.radius < _INF:
            raise ParameterError(f"ball radius must be finite and > 0, got {self.radius!r}")
        if not 0.0 <= self.height < _INF:
            raise ParameterError(f"ball height must be finite and >= 0, got {self.height!r}")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = (r <= self.radius) * self.height   # np.where's values, ~6x faster
        return out if out.ndim else float(out)

    def as_piecewise(self) -> PiecewisePower:
        return PiecewisePower((0.0, self.radius, _INF), (self.height, 0.0), (0.0, 0.0))


def compose_green(prof: ManifoldProfile, rho) -> QuadratureResult:
    """The 1-D reduction of the composed Green kernel at each separation rho > 0:

        int_0^inf g(rho + r) g(r) v(r) dr/r.

    rho may be a scalar or an array; the result's fields follow its shape.
    Finite exactly when gamma > alpha/2; otherwise the result carries the
    diverged flag (the tail exponent being alpha - 2*gamma).  g and g v are
    a split-comparison ``KernelSpec``'s.
    """
    spec = KernelSpec(MODE_SPLIT, prof)
    return integrate(PowerIntegrand(spec.gv, spec.g, rho))


def annulus_lower_bound(prof: ManifoldProfile, radius: float) -> float:
    """radius**(-(2*gamma-alpha)) with all comparability constants set to 1."""
    if not radius >= 1.0:
        raise ParameterError(f"annulus bound is defined for radius >= 1, got {radius}")
    exponent = float(prof.alpha) - 2.0 * float(prof.gamma)
    return radius ** exponent


# -- max-kernel potentials (surrogate / euclidean) ---------------------------

def _max_kernel_data(spec: KernelSpec):
    if spec.mode == MODE_SURROGATE:
        kernel_exp = -float(spec.prof.gamma)
        measure = PiecewisePower.single(float(spec.prof.alpha), float(spec.prof.alpha) - 1.0)
    else:
        n = spec.prof.dim_n
        kernel_exp = 2.0 - n
        measure = PiecewisePower.single(sphere_area(n), n - 1.0)
    return kernel_exp, measure


def _max_kernel_values(kexp: float, weighted: PiecewisePower, rho: np.ndarray) -> np.ndarray:
    """potential(rho) = rho**kexp * int_0^rho w + int_rho^inf r**kexp w."""
    b, lc, e = weighted.bounds, weighted.log_coefs, weighted.exps

    if lc[0] > -_INF and e[0] <= -1.0:
        raise DivergentIntegralError(
            f"potential source diverges at the origin: integrand exponent {e[0]} <= -1",
            location="origin", exponent=e[0])
    if lc[-1] > -_INF and e[-1] + kexp >= -1.0:
        raise DivergentIntegralError(
            f"potential tail diverges: integrand exponent {e[-1] + kexp} >= -1",
            location="tail", exponent=e[-1] + kexp)

    # whole pieces: inner integrals summed from the origin, kernel-weighted
    # outer integrals summed from infinity
    prefix = np.concatenate([[0.0], np.cumsum(power_integral(lc, e, b[:-1], b[1:]))])
    outer_full = power_integral(lc, e + kexp, b[:-1], b[1:])
    suffix = np.concatenate([np.cumsum(outer_full[::-1])[::-1], [0.0]])

    # the piece containing each rho, split at rho where rho is inside it; at
    # its start the split is an empty interval and the whole piece, which
    # prefix and suffix already hold
    idx = weighted.piece_index(rho)
    inner, outer = prefix[idx], suffix[idx]
    cut = np.flatnonzero(rho > b[idx])
    if cut.size:   # none on a grid source's own grid
        j = idx[cut]
        inner[cut] += power_integral(lc[j], e[j], b[j], rho[cut])
        outer[cut] = suffix[j + 1] + power_integral(lc[j], e[j] + kexp, rho[cut], b[j + 1])
    # w vanishes on (0, start), and so does the first term
    pos = rho > b[:-1][lc > -_INF].min(initial=_INF)
    first = np.zeros_like(rho)
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        first[pos] = rho[pos] ** kexp * inner[pos]
        values = first + outer   # at rho = 0, outer is the whole suffix sum
    if np.any(rho == 0.0) and lc[0] > -_INF and e[0] + kexp <= -1.0:
        raise DivergentIntegralError(
            f"potential at rho=0 diverges: origin exponent {e[0] + kexp} <= -1",
            location="origin", exponent=e[0] + kexp)
    # a source live somewhere gives a positive potential everywhere: one
    # that comes out below the normal range has left the float range
    return require_normal("potential", rho, values,
                          floor=np.finfo(float).tiny if np.any(lc > -_INF) else -_INF)


def _split_values(spec: KernelSpec, src_pp: PiecewisePower, rho: np.ndarray) -> np.ndarray:
    terms = [PowerIntegrand(pp_product(src_pp, spec.v), spec.g, rho),
             PowerIntegrand(spec.gv, src_pp, rho)]
    t1, t2 = (integrate(term) for term in terms)
    bad = np.flatnonzero(t1.diverged | t2.diverged)
    if bad.size:
        i = bad[0]
        term, res = (terms[0], t1) if t1.diverged[i] else (terms[1], t2)
        if res.origin[i]:
            e = float(term.u.exps[0])
            raise DivergentIntegralError(f"split potential diverges at the origin: exponent {e} <= 0",
                                         location="origin", exponent=e)
        exponent = float(res.tail_exponent[i])
        raise DivergentIntegralError(
            f"split potential diverges: tail exponent {exponent} >= 0",
            location="tail", exponent=exponent)
    with np.errstate(over="ignore"):   # two finite terms may sum to inf: checked below
        values = t1.value + t2.value
    return require_normal("split potential", rho, values, floor=-_INF)


def potential_values(spec: KernelSpec, source, rho) -> np.ndarray:
    """Kernel-integral values at the given radii (rho > 0 in split-comparison
    mode, rho >= 0 in the max-kernel modes).  The source is a PiecewisePower
    or has an as_piecewise() view (RadialFunction, BallSource)."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    src_pp = source if isinstance(source, PiecewisePower) else source.as_piecewise()
    if spec.mode == MODE_SPLIT:   # quad.PowerIntegrand checks rho > 0
        return _split_values(spec, src_pp, rho)
    if np.any(rho < 0):
        raise ParameterError("max-kernel potentials need rho >= 0")
    kexp, measure = _max_kernel_data(spec)
    return _max_kernel_values(kexp, pp_product(src_pp, measure), rho)


def potential(spec: KernelSpec, source, grid=None) -> RadialFunction:
    """Apply the kernel integral operator to a nonnegative radial source.

    Positivity is preserved and the operator is monotone in the source.
    Divergent origin/tail behavior raises DivergentIntegralError carrying the
    failing exponent.
    """
    if grid is None:
        if isinstance(source, RadialFunction):
            grid = source.grid
        else:
            raise ParameterError("potential needs a target grid for closed-form sources")
    return RadialFunction(grid, potential_values(spec, source, grid))


# -- Monte Carlo oracle for the euclidean-exact mode -------------------------

_ORACLE_BATCH = 1 << 16


def _direction_cosines(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """m cosines omega = u_1 of points u uniform on S**(n-1), n >= 3.

    Ulrich's construction (Applied Statistics 33, 1984): the first two
    coordinates of u have squared norm B ~ Beta(1, (n-2)/2), independent of
    their angle, so omega = sqrt(B) cos(2 pi U2) with B = 1 - U1**(2/(n-2))
    for uniform U1, U2.  expm1 keeps B's small values exact to rounding at
    high n; U1 = 0 gives B = 1, its limit.  The cosine is taken as
    (1 - T**2)/(1 + T**2) with T = tan(pi U2): numpy 2.4 on x86-64 runs
    float64 tan vectorised and cos not, and both land within 1e-15 of
    cos(2 pi U2).
    """
    u = rng.random((2, m))
    b, omega = u   # worked in place: a fresh 512 KiB temporary costs its page faults
    with np.errstate(divide="ignore"):
        np.log(b, out=b)
    b *= 2.0 / (n - 2)
    np.sqrt(np.negative(np.expm1(b, out=b), out=b), out=b)
    omega *= np.pi
    np.square(np.tan(omega, out=omega), out=omega)   # finite: no float is pi/2
    denominator = 1.0 + omega
    np.subtract(1.0, omega, out=omega)
    omega /= denominator
    omega *= b
    return omega


def mc_oracle(n: int, x_radius: float, src: BallSource, samples: int, seed: int):
    """Unbiased Monte Carlo estimate of int_{R^n} |x-y|**(2-n) src(|y|) dy.

    Two importance-sampling regimes, both unbiased and reproducible for a
    fixed seed.  When the evaluation point sits inside or near the source
    support, the distance t = |x-y| is sampled with density 2t/t_max**2 on
    (0, t_max), t_max = |x| + support radius, which exactly cancels the
    kernel singularity.  When the point is far outside (|x| >= 2 * support)
    the kernel is bounded, and points y are sampled uniformly in the support
    ball.  Returns (estimate, standard error).

    Each sample's direction enters only through its cosine omega with x,
    drawn from its exact marginal on the sphere S**(n-1) by two uniforms
    (``_direction_cosines``).  A batch holds 2**16 samples, so each float64
    temporary is 512 KiB.  Inputs whose constants or sums leave the float
    range, or whose source of positive height no sample hits, raise ParameterError.
    """
    if not 5 <= n <= _ORACLE_MAX_DIM:
        raise ParameterError(f"oracle is for 5 <= n <= {_ORACLE_MAX_DIM} "
                             f"(kernel exponent 2-n), got n={n}")
    if samples < 2:
        raise ParameterError("need at least 2 samples")
    if not x_radius >= 0:
        raise ParameterError(f"evaluation radius must be >= 0, got {x_radius}")
    support = float(src.radius)
    far_field = x_radius >= 2.0 * support
    t_max = x_radius + support
    try:
        x_sq = x_radius ** 2
        if far_field:   # the support ball's volume
            scale = math.pi ** (n / 2.0) * support ** n / math.gamma(n / 2.0 + 1.0)
        else:
            scale = sphere_area(n) * t_max ** 2 / 2.0
    except OverflowError:
        raise ParameterError(f"oracle inputs out of range: n={n}, |x|={x_radius!r}, "
                             f"support radius {support!r}") from None
    rng = np.random.default_rng(seed)

    total, total_sq, shift, hit = 0.0, 0.0, None, False   # sums in units of 2**shift: no square underflows
    for start in range(0, int(samples), _ORACLE_BATCH):
        m = min(_ORACLE_BATCH, samples - start)
        omega1 = _direction_cosines(rng, n, m)
        with np.errstate(all="ignore"):   # checked after the loop
            if far_field:
                # y uniform in the support ball; kernel bounded away from x
                y_radius = support * rng.random(m) ** (1.0 / n)
                dist = np.sqrt(x_sq - 2.0 * x_radius * y_radius * omega1 + y_radius ** 2)
                f = scale * dist ** (2.0 - n) * np.asarray(src(y_radius), dtype=float)
            else:
                t = t_max * np.sqrt(rng.random(m))
                y_radius = np.sqrt(x_sq + 2.0 * x_radius * t * omega1 + t ** 2)
                f = scale * np.asarray(src(y_radius), dtype=float)
            hit = hit or y_radius.min() <= support   # every sample in the far field
            if shift is None and np.max(f) > 0.0:
                shift = int(np.frexp(np.max(f))[1])
            f = np.ldexp(f, -(shift or 0))
            total += float(np.sum(f))
            total_sq += float(np.sum(f * f))
    if not hit and src.height > 0.0:
        raise ParameterError(f"oracle scored no hit in {samples} samples at n={n}, "
                             f"|x|={x_radius!r}, support radius {support!r}")
    mean = total / samples
    var = max(total_sq / samples - mean ** 2, 0.0) * samples / (samples - 1)
    with np.errstate(over="ignore"):   # checked below
        mean, stderr = np.ldexp([mean, math.sqrt(var / samples)], shift or 0).tolist()
    if not math.isfinite(mean + stderr):
        raise ParameterError(f"oracle sums overflow at n={n}, |x|={x_radius!r}, "
                             f"support radius {support!r}")
    return mean, stderr
