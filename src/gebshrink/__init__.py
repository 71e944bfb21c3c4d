"""Blockwise general empirical Bayes shrinkage for Gaussian sequence data.

The package is organized bottom-up:

  mixture     exact risks and rules for atomic mixing distributions
  kde         sinc-kernel density estimation (direct and spectral forms)
  thresholds  threshold maps and the closed-form soft-threshold risk
  blocks      tuning schedules, fit_block's table of fits, its one selector
  sequence    the blocked sequence model and each block's ideal risk
  wavelets    periodic orthonormal transforms, equispaced and random-design
              regression pipelines
  signals     the four standard test signals
  risklab     reproducible Monte Carlo risk experiments
  cli         the gebshrink command
"""

import importlib

# module -> the public names it defines.  A name loads its module on first
# access (PEP 562), so ``import gebshrink`` runs no submodule.
_MODULES = {
    "blocks": (
        "ESTIMATORS",
        "FittedBlockRule",
        "TuningConfig",
        "TuningValues",
        "fit_block",
        "geb_rule",
        "hybrid_fit",
        "james_stein",
        "kappa_hat",
        "tuning",
    ),
    "errors": ("InvalidConfigError", "NumericFailure", "QuadratureError", "WorkerDied"),
    "kde": ("KernelDensityEstimate", "kde_eval", "kde_fit"),
    "mixture": (
        "GebRule",
        "HardThresholdRule",
        "IdentityRule",
        "LinearShrinkRule",
        "MixingDistribution",
        "MixtureSummary",
        "OracleRule",
        "ScalarRule",
        "SoftThresholdRule",
        "bayes_risk",
        "density_floor_loss",
        "empirical_mixing",
        "from_atoms",
        "gaussian_grid_prior",
        "mixture_density",
        "mixture_summaries",
        "oracle_rule",
        "rule_risk",
    ),
    "risklab": (
        "BlockReport",
        "ExperimentSpec",
        "RateFit",
        "RiskReport",
        "TruthSource",
        "monte_carlo_risk",
        "rate_fit",
        "report_to_csv",
        "report_to_dict",
        "report_to_json",
        "replicate_rng",
    ),
    "sequence": ("estimate_sequence",),
    "signals": ("SIGNAL_NAMES", "test_signal"),
    "thresholds": ("soft_threshold_risk", "threshold"),
    "wavelets": (
        "EquispacedReport",
        "RandomDesignData",
        "RandomDesignReport",
        "WaveletBasis",
        "Z_THREE_QUARTERS",
        "denoise_equispaced",
        "dwt",
        "idwt",
        "mad_sigma",
        "random_design_estimate",
        "random_design_transform",
        "wavelet_basis",
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    """The export ``name``, read from its module on every access, so that a
    later rebinding there (a tracing wrapper, a test's patch) is what
    callers get."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
