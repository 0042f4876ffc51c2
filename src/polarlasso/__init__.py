"""Polar geometry of the l1-penalized Gaussian posterior.

Closed-form radial masses per direction, partition-function estimation with
certified bounds, exact posterior sampling, the two-route mode solver, and a
radial-mode convergence diagnosis for Metropolis-Hastings chains.
"""

__version__ = "0.1.0"

from .lasso import LassoSolution, duality_gap, objective, solve_fista, solve_polar
from .mcmc import (
    ChainConfig,
    ChainDiagnosis,
    ChainTrace,
    criterion_coverage,
    run_chain,
    tv_bound,
)
from .partition import (
    PartitionEstimate,
    concentration_prob,
    estimate_z_naive,
    estimate_z_polar,
    estimate_z_shifted,
    lasso_ball_volume,
    sphere_surface,
)
from .problem import (
    ProblemInstance,
    beta_lower_bound,
    gen_bernoulli_matrix,
    load_problem,
    make_problem,
    sample_sphere,
    save_problem,
    zero_lasso_sufficient,
)
from .radial import ExpansionResult, expansion_coeff, mass_closed_form, mass_expansion, mode_radius_times_l1
from .shifted import (
    ExactSamplerBudgetError,
    RadialSummary,
    build_shift_context,
    radial_summary,
    sample_posterior,
    sample_posterior_batch,
)

__all__ = [
    "ChainConfig",
    "ChainDiagnosis",
    "ChainTrace",
    "ExactSamplerBudgetError",
    "ExpansionResult",
    "LassoSolution",
    "PartitionEstimate",
    "ProblemInstance",
    "RadialSummary",
    "beta_lower_bound",
    "build_shift_context",
    "concentration_prob",
    "criterion_coverage",
    "duality_gap",
    "estimate_z_naive",
    "estimate_z_polar",
    "estimate_z_shifted",
    "expansion_coeff",
    "gen_bernoulli_matrix",
    "lasso_ball_volume",
    "load_problem",
    "make_problem",
    "mass_closed_form",
    "mass_expansion",
    "mode_radius_times_l1",
    "objective",
    "radial_summary",
    "run_chain",
    "sample_posterior",
    "sample_posterior_batch",
    "sample_sphere",
    "save_problem",
    "solve_fista",
    "solve_polar",
    "sphere_surface",
    "tv_bound",
    "zero_lasso_sufficient",
]
