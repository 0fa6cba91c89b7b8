"""Stochastic gradient methods as iterative regularizers for ill-posed
linear systems, with exact-moment oracles for their bias and variance."""

from .analysis import (ConditionReport, ErrorCurves, ExactMoments,
                       MomentReport, OrthogonalityReport, RecursionReport,
                       VarianceComparison, VarianceDecomposition,
                       closed_form_mean, condition_report,
                       enumerate_exact_moments,
                       enumerate_weighted_second_moment, error_curves,
                       exact_final_moments, exact_weighted_second_moment,
                       mc_moments, orthogonality_check, rate_fit,
                       recursion_check, residual_bound, sgd_variance_terms,
                       stopping_stats, svrg_variance_terms, theorem_bound,
                       variance_compare)
from .experiment import (ExperimentSpec, MethodPlan, load_spec, parse_c0_expr,
                         parse_m_expr, run_experiment, run_precondition_study,
                         spec_from_dict)
from .problems import (NoisyData, ProblemInstance, SourceConditionError,
                       add_noise, generate, is_preconditioned, load_instance,
                       load_noisy, make_instance, noise_functional,
                       precondition, rescale_to_unit_norm, save_instance,
                       save_noisy, smooth_solution, source_element)
from .solvers import (DivergenceError, EpochAccounting, SolverConfig,
                      Trajectory, oracle_stop, solve, write_trajectory)
from .spectral import (GramOperator, Propagator, build_gram,
                       kernel_bound_check, step_constant, svd)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "ConditionReport", "DivergenceError", "EpochAccounting", "ErrorCurves",
    "ExactMoments", "ExperimentSpec", "GramOperator", "MethodPlan",
    "MomentReport", "NoisyData", "OrthogonalityReport", "ProblemInstance",
    "Propagator", "RecursionReport", "SolverConfig", "SourceConditionError",
    "Trajectory", "VarianceComparison", "VarianceDecomposition", "add_noise",
    "build_gram", "closed_form_mean", "condition_report",
    "enumerate_exact_moments", "enumerate_weighted_second_moment",
    "error_curves", "exact_final_moments", "exact_weighted_second_moment",
    "generate", "is_preconditioned", "kernel_bound_check",
    "load_instance", "load_noisy", "load_spec", "make_instance", "mc_moments",
    "noise_functional", "oracle_stop", "orthogonality_check", "parse_c0_expr",
    "parse_m_expr", "precondition", "rate_fit", "recursion_check",
    "rescale_to_unit_norm", "residual_bound", "run_experiment",
    "run_precondition_study", "run_suite", "save_instance", "save_noisy",
    "sgd_variance_terms", "smooth_solution", "solve",
    "source_element", "spec_from_dict", "step_constant", "stopping_stats",
    "svd",
    "svrg_variance_terms", "theorem_bound", "variance_compare",
    "write_trajectory",
]
