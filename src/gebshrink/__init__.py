"""Blockwise general empirical Bayes shrinkage for Gaussian sequence data.

The package is organized bottom-up:

  mixture     exact risks, rules and bounds for atomic mixing distributions
  kde         sinc-kernel density estimation (direct and spectral forms)
  thresholds  threshold maps and the closed-form soft-threshold risk
  blocks      tuning schedules and the one per-block policy, fit_block
  sequence    the blocked sequence model and its ideal benchmark
  wavelets    periodic orthonormal transforms, equispaced and random-design
              regression pipelines
  signals     the four standard test signals
  risklab     reproducible Monte Carlo risk experiments
  cli         the gebshrink command
"""

from .blocks import (
    RHO0_BALANCED,
    FittedBlockRule,
    TuningConfig,
    TuningValues,
    fit_block,
    geb_rule,
    hybrid_fit,
    james_stein,
    kappa_hat,
    tuning,
)
from .errors import InvalidConfigError, NumericFailure, QuadratureError
from .kde import KernelDensityEstimate, kde_eval, kde_fit
from .mixture import (
    GebRule,
    HardThresholdRule,
    IdentityRule,
    LinearShrinkRule,
    MixingDistribution,
    MixtureSummary,
    OracleBounds,
    OracleRule,
    ScalarRule,
    SoftThresholdRule,
    ZeroRule,
    bayes_risk,
    density_floor_loss,
    empirical_mixing,
    from_atoms,
    gaussian_grid_prior,
    kernel_estimation_loss,
    kl_bernoulli,
    mix,
    mixture_density,
    mixture_summaries,
    oracle_bound_suite,
    oracle_rule,
    point_mass,
    rule_risk,
    signal_rate_bound,
    sparse_rate_bound,
    uniform_grid_prior,
)
from .risklab import (
    ESTIMATORS,
    BlockReport,
    ExperimentSpec,
    RateFit,
    RiskReport,
    TruthSource,
    besov_norm,
    monte_carlo_risk,
    rate_fit,
    report_to_csv,
    report_to_dict,
    report_to_json,
    replicate_rng,
)
from .sequence import (
    BlockedSequence,
    BlockScheduleReport,
    check_blocks,
    dyadic_sequence,
    estimate_sequence,
    ideal_risk,
)
from .signals import SIGNAL_NAMES, test_signal
from .thresholds import soft_threshold_risk, threshold
from .wavelets import (
    EquispacedReport,
    RandomDesignData,
    RandomDesignReport,
    WaveletBasis,
    Z_THREE_QUARTERS,
    denoise_equispaced,
    dwt,
    haar_coefficients,
    haar_reconstruct,
    idwt,
    mad_sigma,
    random_design_estimate,
    random_design_transform,
    wavelet_basis,
)

__version__ = "0.1.0"
