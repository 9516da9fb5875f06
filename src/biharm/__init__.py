"""Numerical toolkit for the critical-exponent classification of positive
solutions to fourth-order elliptic inequalities with power-law weights on
radial volume/Green profiles."""

from .errors import (BiharmError, DivergentIntegralError, NonConvergenceError,
                     ParameterError)
from .profiles import (ClassificationReport, ExponentPlan, ManifoldProfile,
                       SourceProfile, classify, critical_exponent, eval_profile,
                       plan_exponents)
from .radial import PiecewisePower, RadialFunction, log_grid
from .quad import PowerIntegrand, QuadratureResult, integrate
from .kernels import (BallSource, KernelSpec, annulus_lower_bound, compose_green,
                      mc_oracle, potential, potential_values)
from .spectral import (EigenResult, SurrogateOperator, check_inf_bound,
                       lambda1_annulus)
from .liouville import WitnessConfig, WitnessReport, lhs_upper, rhs_lower, verdict
from .solver import (SolveReport, apply_T, estimate_constants, pick_l,
                     residual_check, solve_fixed_point, verify_prop1, verify_prop2)

__version__ = "0.1.0"
