"""Skellam laws, Stein-equation machinery, and exact TV verification tools."""

from . import haar_spillover, noisy_graph
from .dists import (
    IntegerDist,
    ResourceLimitError,
    TVInterval,
    convolve,
    empirical_dist,
    negate,
    tv_distance,
)
from .skellam import (
    SkellamParams,
    cdf,
    log_pmf,
    max_pmf_bound,
    moments,
    pmf,
    sample,
    to_dist,
)
from .special import (
    QuadratureError,
    bessel_i,
    binomial_thin_dist,
    poisson_dist,
)
from .stein import (
    BivariateState,
    DifferenceKernel,
    IntegralBound,
    SecondDiffSumReport,
    SteinFactorResult,
    TestSet,
    bound_first_diff,
    bound_first_diff_integral,
    bound_relaxed,
    bound_second_diff,
    default_state_grid,
    difference_kernel,
    exact_stein_factor,
    generator_apply,
    intermediate_law,
    prior_bound_comparison,
    set_expectation,
    skellam_expectation,
    skellam_second_diff_sum,
    stein_solution,
    stein_solution_grid,
)
from .verification import VerificationReport, empirical_tv_threshold, make_report

__version__ = "0.1.0"
# The kernels are numpy only; benchmark results record this name.
BACKEND = "python"
