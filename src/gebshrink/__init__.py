"""Blockwise general empirical Bayes shrinkage for Gaussian sequence data.

The package is organized bottom-up:

  mixture     exact risks, rules and rate bounds for atomic mixing distributions
  kde         sinc-kernel density estimation (direct and spectral forms)
  thresholds  threshold maps and the closed-form soft-threshold risk
  blocks      tuning schedules and the one per-block policy, fit_block
  sequence    the blocked sequence model and each block's ideal risk
  wavelets    periodic orthonormal transforms, equispaced and random-design
              regression pipelines
  signals     the four standard test signals
  risklab     reproducible Monte Carlo risk experiments
  cli         the gebshrink command
"""

from .blocks import (
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
    OracleRule,
    ScalarRule,
    SoftThresholdRule,
    bayes_risk,
    density_floor_loss,
    empirical_mixing,
    from_atoms,
    gaussian_grid_prior,
    mixture_density,
    mixture_summaries,
    oracle_rule,
    rule_risk,
    signal_rate_bound,
    sparse_rate_bound,
)
from .risklab import (
    ESTIMATORS,
    BlockReport,
    ExperimentSpec,
    RateFit,
    RiskReport,
    TruthSource,
    monte_carlo_risk,
    rate_fit,
    report_to_csv,
    report_to_dict,
    report_to_json,
    replicate_rng,
)
from .sequence import (
    BlockedSequence,
    dyadic_sequence,
    estimate_sequence,
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
    haar_reconstruct,
    idwt,
    mad_sigma,
    random_design_estimate,
    random_design_transform,
    wavelet_basis,
)

__version__ = "0.1.0"
