"""First Dirichlet eigenvalue of the surrogate radial operator on annuli.

The surrogate operator realizes the volume and Green hypotheses exactly for
any admissible (alpha, gamma): it is the Sturm-Liouville operator

    L u = -(1/w) (a u')',   a(r) = r**(gamma+1)/gamma,   w(r) = alpha*r**(alpha-1),

whose kernel from the pole is exactly rho**(-gamma) (since
int_rho^inf gamma*s**(-gamma-1) ds = rho**(-gamma)) and whose volume of
(0, R) is exactly R**alpha.  L is the analogue of -Delta: its Dirichlet
spectrum is positive, and by exact homogeneity lambda1 on (c*R, C*R) scales
like R**(-(alpha-gamma)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonConvergenceError, ParameterError
from .profiles import ManifoldProfile
from .radial import RadialFunction

# safety multiplier on the calibrated finite-difference error constant
FD_SAFETY = 10.0

_TINY = np.finfo(float).tiny
# inverse iteration: stop at this relative change of lambda, or raise after _MAXIT steps
_REL_TOL = 1e-12
_MAXIT = 500
# interior nodes of the mesh that calibrates the finite-difference error constant
_FD_MESH = 256


# module attribute -> LAPACK routine; the banded Cholesky factor and solve
# that scipy.linalg's cholesky_banded and cho_solve_banded call
_LAPACK = {"_cholesky_banded": "dpbtrf", "cho_solve_banded": "dpbtrs"}


def __getattr__(name):
    """LAPACK's banded Cholesky routines, imported from scipy on the first
    eigen solve: only the eigen solves need scipy.  ``cho_solve_banded``, the
    per-step solve, stays a module attribute, so that a profiler can wrap it."""
    if name not in _LAPACK:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.linalg import lapack
    for attr, routine in _LAPACK.items():
        globals().setdefault(attr, getattr(lapack, routine))
    return globals()[name]


@dataclass(frozen=True)
class SurrogateOperator:
    """Coefficients of the surrogate Sturm-Liouville operator.

    Its Dirichlet lambda1 on (r1, r2) is known exactly, and the tests check
    the solver against it: (gamma**2/4 + pi**2/ln(r2/r1)**2)/(gamma*alpha)
    at alpha = gamma (Euler's equation), else the first root in lambda of
    J_nu(k r1**q) Y_nu(k r2**q) - J_nu(k r2**q) Y_nu(k r1**q), with
    q = (alpha-gamma)/2, nu = gamma/|alpha-gamma| and
    k = 2 sqrt(lambda gamma alpha)/|alpha-gamma| (DLMF 10.13, 10.21).
    """

    alpha: float
    gamma: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if not self.gamma > 0:
            raise ParameterError(f"gamma must be positive, got {self.gamma}")

    @staticmethod
    def from_profile(prof: ManifoldProfile) -> "SurrogateOperator":
        return SurrogateOperator(float(prof.alpha), float(prof.gamma))

    def stiffness(self, r):
        return np.asarray(r, dtype=float) ** (self.gamma + 1.0) / self.gamma

    def weight(self, r):
        return self.alpha * np.asarray(r, dtype=float) ** (self.alpha - 1.0)


@dataclass(frozen=True)
class EigenResult:
    """Smallest Dirichlet eigenvalue with Richardson extrapolation data.

    ``lambda1`` is the raw value on the finer mesh, ``richardson`` the
    second-order extrapolation from the mesh pair, ``error_estimate`` the
    larger of the extrapolation increment and the distance from the same
    extrapolation one mesh pair coarser.  ``vectors`` holds the (coarse,
    fine) eigenvectors, a start for the next solve, and ``iterations`` the
    (coarse, fine, half-mesh) inverse-iteration step counts.
    """

    lambda1: float
    mesh: int
    richardson: float
    error_estimate: float
    vectors: tuple = field(repr=False, compare=False)
    iterations: tuple

    @property
    def value(self) -> float:
        return self.richardson


def annulus_mesh(r_in: float, r_out: float, n: int) -> np.ndarray:
    """Uniform mesh with n interior nodes plus the two endpoints."""
    return np.linspace(float(r_in), float(r_out), int(n) + 2)


def _assemble(op: SurrogateOperator, r_in: float, r_out: float, n: int):
    """Symmetric tridiagonal stiffness in banded form plus the diagonal weight."""
    h = (r_out - r_in) / (n + 1)
    a_half = op.stiffness(r_in + h * (np.arange(n + 1) + 0.5))
    ab = np.zeros((2, n))
    ab[0, 1:] = -a_half[1:-1] / (h * h)
    ab[1] = (a_half[:-1] + a_half[1:]) / (h * h)
    return ab, op.weight(r_in + h * np.arange(1, n + 1))


def _smallest_eigenvalue(ab, w, start=None):
    """Inverse power iteration on the generalized tridiagonal problem.

    Starts from ``start`` (a vector of ones by default), scaled to max-abs 1
    before the W-normalization, so that a start from another scale keeps the
    iterates in the float range.  Returns (lambda, eigenvector, steps); lambda
    is nan when an iterate leaves the float range.
    """
    factor, solve = (globals().get(name) or __getattr__(name) for name in _LAPACK)
    cb, info = factor(ab)
    if info:
        raise ParameterError(f"the stiffness matrix is not positive definite "
                             f"(LAPACK dpbtrf info {info})")
    x = np.full(ab.shape[1], 1.0) if start is None else start / np.max(np.abs(start))
    x /= math.sqrt(float(x @ (w * x)))
    lam_prev = None
    trace = []
    for steps in range(1, _MAXIT + 1):
        wx = w * x
        y = solve(cb, wx)[0]   # its info is nonzero only for an illegal argument
        norm = math.sqrt(float(y @ (w * y)))
        if not 0.0 < norm < math.inf:   # the iterate's scale left the float range
            return math.nan, x, steps
        y /= norm
        # Rayleigh quotient of y: A y = W x / norm
        lam = float(y @ wx) / norm
        trace.append(lam)
        if lam_prev is not None and abs(lam - lam_prev) <= _REL_TOL * abs(lam):
            return lam, y, steps
        lam_prev = lam
        x = y
    raise NonConvergenceError(
        f"inverse power iteration did not converge in {_MAXIT} steps", trace=trace)


def _interpolated(vec, n: int):
    """vec, given at the interior nodes of a uniform mesh, linearly
    interpolated onto the n interior nodes of the same interval (zero at
    both ends)."""
    coarse = np.arange(vec.size + 2) / (vec.size + 1)
    return np.interp(np.arange(1, n + 1) / (n + 1), coarse, np.concatenate(([0.0], vec, [0.0])))


def check_annuli(op: SurrogateOperator, r_in, r_out, mesh: int) -> None:
    """Raise ParameterError for the first annulus (r_in, r_out), in order, whose
    arguments are inadmissible or whose coefficients leave the normal float
    range on the meshes (mesh, 2*mesh, mesh//2), naming it as a call on that
    annulus alone would.  a and w are positive and monotone in r, and so are
    the nodes in float, so a at both ends, each diagonal and each w are
    checked at their end entries only, formed by ``_assemble``'s float
    operations in one broadcast over the meshes."""
    r_in, r_out = (np.reshape(x, (-1, 1)).astype(float) for x in np.broadcast_arrays(r_in, r_out))
    # a mesh below 64 refuses every annulus, so the first one raises
    refused = ~((r_out > r_in) & (r_in > 0.0)).ravel() | (mesh < 64)
    m = np.array([int(mesh), 2 * int(mesh), int(mesh) // 2])[:, None, None]
    k = m * np.array([0, 0, 1, 1]) + [0, 1, -1, 0]   # half nodes 0, 1, m-1, m; nodes 1, m
    with np.errstate(all="ignore"):   # the range is checked below
        h = (r_out - r_in) / (m + 1)
        a_half = op.stiffness(r_in + h * (k + 0.5))
        coefs = (op.stiffness(np.concatenate([r_in, r_out], axis=-1))[None],
                 (a_half[..., ::2] + a_half[..., 1::2]) / (h * h), op.weight(r_in + h * k[..., 1::2]))
    normal = np.logical_and.reduce([((x >= _TINY) & (x < np.inf)).all(axis=(0, 2)) for x in coefs])
    bad = np.flatnonzero(refused | ~normal)
    if bad.size:
        a, b = float(r_in[bad[0], 0]), float(r_out[bad[0], 0])
        if not (b > a > 0.0):
            raise ParameterError(f"need 0 < r_in < r_out, got ({a}, {b})")
        if mesh < 64:
            raise ParameterError(f"mesh must be at least 64 interior nodes, got {mesh}")
        raise ParameterError(f"annulus ({a!r}, {b!r}) is out of range: "
                             "the operator's coefficients leave the normal float range")


def lambda1_annulus(op: SurrogateOperator, r_in: float, r_out: float, mesh: int,
                    start=None) -> EigenResult:
    """Smallest Dirichlet eigenvalue on (r_in, r_out).

    Second-order central differences on the mesh pair (mesh, 2*mesh) with
    Richardson extrapolation; the discrete values converge at O(mesh**-2).
    The error estimate also takes the extrapolation from (mesh//2, mesh),
    since the h**2 and h**4 error terms can cancel in one pair's increment.
    ``start``, a previous result's ``vectors`` on the same mesh pair, starts
    the coarse and fine inverse iterations; without it the coarse one starts
    from a vector of ones and the fine one from the coarse eigenvector,
    linearly interpolated onto its nodes.  The half-mesh one always starts
    from the coarse eigenvector, interpolated.  A start changes the step
    counts, not the stop rule.  The annulus is range-checked first.
    """
    check_annuli(op, r_in, r_out, mesh)
    (ab_coarse, w_coarse), fine, half = (_assemble(op, r_in, r_out, m)
                                         for m in (int(mesh), 2 * int(mesh), int(mesh) // 2))
    annulus = f"annulus ({float(r_in)!r}, {float(r_out)!r})"
    coarse_start, fine_start = start or (None, None)
    try:
        with np.errstate(over="ignore"):   # an iterate out of range gives nan
            lam_coarse, vec_coarse, it_coarse = _smallest_eigenvalue(ab_coarse, w_coarse,
                                                                     coarse_start)
            if fine_start is None:
                fine_start = _interpolated(vec_coarse, 2 * int(mesh))
            lam_fine, vec_fine, it_fine = _smallest_eigenvalue(*fine, fine_start)
            lam_half, _, it_half = _smallest_eigenvalue(*half,
                                                        _interpolated(vec_coarse, int(mesh) // 2))
    except ParameterError as exc:
        raise ParameterError(f"{annulus}: {exc}") from None
    if not math.isfinite(lam_coarse + lam_fine + lam_half):
        raise ParameterError(f"{annulus} is out of range: the inverse iteration leaves the "
                             "float range")
    rich = lam_fine + (lam_fine - lam_coarse) / 3.0
    rich_coarse = lam_coarse + (lam_coarse - lam_half) / 3.0
    estimate = max(abs(lam_fine - lam_coarse) / 3.0, abs(rich - rich_coarse))
    return EigenResult(lam_fine, 2 * int(mesh), rich, estimate,
                       (vec_coarse, vec_fine), (it_coarse, it_fine, it_half))


# -- fourth-order infimum check ----------------------------------------------

def apply_operator(op: SurrogateOperator, grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Discrete L f at the interior nodes of a uniform grid (full-node input)."""
    h = grid[1] - grid[0]
    if not np.allclose(np.diff(grid), h, rtol=1e-9):
        raise ParameterError("apply_operator needs a uniform grid")
    half = 0.5 * (grid[:-1] + grid[1:])
    a_half = op.stiffness(half)
    w = op.weight(grid[1:-1])
    flux = a_half * np.diff(values) / h
    return -np.diff(flux) / (h * w)


@lru_cache(maxsize=None)
def fd_error_constant() -> float:
    """Dimensionless FD error constant, calibrated once on -u'' over (0, 1).

    Applies the flux-form stencil of apply_operator with unit coefficients
    twice to the continuum eigenfunction sin(pi r) and compares with
    pi**4 sin(pi r); the maximum defect divided by h**2 * pi**4 is the
    constant.
    """
    grid = annulus_mesh(0.0, 1.0, _FD_MESH)
    f = np.sin(math.pi * grid)
    llf = f
    for nodes in (grid, grid[1:-1]):
        h = nodes[1] - nodes[0]
        llf = -np.diff(np.diff(llf) / h) / h
    defect = llf - math.pi ** 4 * f[2:-2]
    h = grid[1] - grid[0]
    return float(np.max(np.abs(defect)) / (h ** 2 * math.pi ** 4))


@dataclass(frozen=True)
class InfBoundCheck:
    """Minimum of the discrete L(Lf) - lambda1**2 f with its tolerance."""

    min_value: float
    tau_fd: float
    fd_constant: float
    scale: float

    @property
    def holds(self) -> bool:
        return self.min_value <= self.tau_fd


def check_inf_bound(op: SurrogateOperator, f: RadialFunction, lam) -> InfBoundCheck:
    """Check min over interior nodes of L(Lf) - lambda1**2 f <= tau_fd.

    Preconditions: f >= 0 on the annulus, which every RadialFunction holds,
    and L f >= 0 at the two boundary bands (first and last interior node),
    the discrete analogue of the super-harmonicity required on the boundary;
    its violation raises because the inequality then simply does not apply.  tau_fd is the
    calibrated finite-difference error bound C_fd * (h/width)**2 * scale and
    is reported, never hidden.
    """
    lam1 = lam.value if isinstance(lam, EigenResult) else float(lam)
    grid, values = f.grid, f.values
    lf = apply_operator(op, grid, values)
    # the band check gets its own FD allowance: a genuine violation is O(scale)
    h_rel = (grid[1] - grid[0]) / (grid[-1] - grid[0])
    band_tol = FD_SAFETY * fd_error_constant() * h_rel ** 2 * float(np.max(np.abs(lf)))
    if lf[0] < -band_tol or lf[-1] < -band_tol:
        raise ParameterError(
            "hypothesis violated: L f must be >= 0 at both boundary bands "
            f"(got {lf[0]:.3e} and {lf[-1]:.3e}, allowance {band_tol:.3e}); "
            "the inequality does not apply")
    llf = apply_operator(op, grid[1:-1], lf)
    defect = llf - lam1 ** 2 * values[2:-2]

    h = grid[1] - grid[0]
    width = grid[-1] - grid[0]
    scale = max(float(np.max(np.abs(llf))), lam1 ** 2 * float(np.max(np.abs(values))))
    tau = FD_SAFETY * fd_error_constant() * (h / width) ** 2 * scale
    return InfBoundCheck(float(np.min(defect)), tau, fd_error_constant(), scale)
