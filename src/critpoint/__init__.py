"""critpoint: a numerical laboratory for critical points of random polynomials.

Build random polynomials P(X) = prod (X - Z_k) with i.i.d. roots, locate
the n-1 zeros of P' at scale, and measure how the empirical law of the
critical points tracks the law of the roots.

Roots, critical points and every empirical measure are plain point sets: a
measure is the uniform measure on a multiset, given by its points as a 1-d
complex array (repetition = multiplicity), which `from_points` checks.
"""

from .critical import CriticalSet, critical_points, critical_points_oracle
from .errors import (ConvergenceError, CritpointError, NonDegeneracyError,
                     ParameterError, PoleOnContourError)
from .experiments import (AnticoncentrationConfig, ConvergenceConfig,
                          GrowthConfig, JensenConfig, LLNConfig,
                          run_anticoncentration, run_convergence,
                          run_experiment, run_growth, run_jensen,
                          run_lln_logminus)
from .logderiv import Circle, circle_sup_norm, eval_S, log_minus, log_plus
from .measures import (from_points, log_minus_integral, quadrant_discrepancy,
                       reference_quantization, sliced_w1, sliced_w1_many)
from .mobius import MobiusTransform, apply, preimage_unit_circle, sample_mobius
from .report import Report, Verdict
from .sampler import BaseMeasure, SeedSpec, Trajectory, sample

__version__ = "0.1.0"

__all__ = [
    "BaseMeasure", "SeedSpec", "Trajectory", "sample",
    "Circle", "eval_S",
    "circle_sup_norm", "log_plus", "log_minus",
    "CriticalSet", "critical_points", "critical_points_oracle",
    "from_points", "log_minus_integral",
    "sliced_w1", "sliced_w1_many", "quadrant_discrepancy", "reference_quantization",
    "MobiusTransform", "apply", "preimage_unit_circle", "sample_mobius",
    "ConvergenceConfig", "JensenConfig", "AnticoncentrationConfig", "GrowthConfig",
    "LLNConfig", "Report", "Verdict", "run_experiment",
    "run_convergence", "run_jensen", "run_anticoncentration", "run_growth",
    "run_lln_logminus",
    "CritpointError", "ParameterError", "ConvergenceError", "NonDegeneracyError",
    "PoleOnContourError",
]
