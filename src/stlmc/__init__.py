"""Simulated tempering Langevin Monte Carlo for multimodal targets.

The library samples from densities proportional to ``exp(-f)`` where f
is the energy of an equal-variance Gaussian mixture (optionally with a
bounded smooth perturbation), estimating the per-temperature
normalizing constants along an automatically built ladder. A companion
finite-chain toolkit checks the spectral inequalities that make the
approach work.
"""

from .chain_analysis import (
    DiscretizedGenerator,
    FiniteChain,
    Partition,
    build_tempering_chain,
    chain_eigenvalues,
    cheeger_constant,
    chi_sq_decay_check,
    conductance,
    discretize_langevin_generator,
    gap_product_check,
    mixing_rate,
    overlap_delta,
    perturbation_gap_check,
    project,
    random_partition,
    random_reversible_chain,
    refinement_gap_bound_check,
    restrict,
    sce_envelope_1d,
    spectral_gap,
    tempering_gap_bound_check,
    z_ratio_bound_check,
)
from .diagnostics import (
    Histogram,
    chi_sq_divergence,
    chi_sq_mixture_check,
    default_box,
    exact_bin_masses,
    kl_decomposition_check,
    kl_divergence,
    mode_occupancy,
    tv_distance,
    tv_from_masses,
)
from .errors import (
    BoundViolationError,
    ConfigError,
    NonConvergenceError,
    NonFiniteGradientError,
    NonReversibleError,
    ReducibleChainError,
    RetriesExhaustedError,
)
from .langevin_kernel import (
    LangevinParams,
    check_step_size,
    langevin_step,
    run_macro_step,
)
from .mixture_target import (
    GaussianMixture,
    PerturbedTarget,
    SinusoidalPerturbation,
    check_perturbation_bounds,
    close_to_sum_ratio,
    hessian_max_eig,
    locate_min,
    target_from_config,
)
from .partition_estimator import (
    ConcentrationResult,
    MainResult,
    PartitionEstimates,
    concentration_check,
    estimate_next_z,
    load_estimates,
    log_partition_quadrature,
    run_main_algorithm,
    sample_exact,
    save_estimates,
)
from .tempering_chain import (
    RunParams,
    TemperatureLadder,
    make_ladder,
    run_stlmc,
    run_tempering_batch,
    write_trace_csv,
)
from .verification import CheckResult, available_suites, run_suite, run_suites

__version__ = "0.1.0"
