"""Blocked Gaussian sequence model.

Observations y_jk = beta_jk + eps z_jk arrive in ordered blocks indexed by
an integer level j, as one {j: array} mapping from the transform to the
estimate: :func:`estimate_sequence` takes it and returns its estimates and
fits keyed the same way, in the same order.  Estimation standardizes each
block by eps, fits the chosen block estimator blockwise, and rescales.  The
ideal benchmark charges each block the posterior-mean risk of its own
empirical mixing distribution:

    R*(eps, beta) = eps^2 sum_j n_j bayes_risk(empirical_mixing(beta_j, eps)).

Blocks are estimated one at a time in block order, and each block's ideal
risk is bit-identical whatever batch prices it, so results never depend on
any parallel execution of callers.
"""

from __future__ import annotations

import math

import numpy as np

from .blocks import TuningConfig, fit_block
from .errors import NumericFailure
from .mixture import IdentityRule, bayes_risks, empirical_mixing


def estimate_sequence(epsilon, levels, cfg: TuningConfig = TuningConfig(), estimator="geb-hybrid"):
    """Estimate every block of ``levels``, a {level: values} mapping, with
    one of the block estimators at noise scale ``epsilon``.

    Returns ``(estimates, fits)``: {level: array} estimates matching the
    block shapes and {level: FittedBlockRule} diagnostics, both in the
    order of ``levels``.  Every block is checked before any is fitted: a
    nonpositive or non-finite epsilon, no blocks, an empty block or a
    non-finite value raise ValueError.  Each block is standardized by eps
    and fitted by :func:`blocks.fit_block`; a block that overflows when
    standardized raises NumericFailure.
    """
    eps = float(epsilon)
    if not 0 < eps < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if len(levels) == 0:
        raise ValueError("need at least one block")
    blocks = {}
    for level, values in levels.items():
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError(f"block {level} is empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"block {level} contains non-finite values")
        blocks[level] = arr
    estimates = {}
    fits = {}
    for level, values in blocks.items():
        with np.errstate(over="ignore"):  # reported once, not as numpy warnings
            x = values / eps
        if not np.all(np.isfinite(x)):
            raise NumericFailure(f"block {level} overflows when standardized by epsilon {eps:g}")
        fit = fit_block(x, cfg, estimator)
        if isinstance(fit.rule, IdentityRule):
            # exact passthrough, not eps * (values / eps)
            estimates[level] = values.copy()
        else:
            estimates[level] = eps * np.asarray(fit.rule(x), dtype=float)
        fits[level] = fit
    return estimates, fits


def block_ideal_risks(blocks, epsilon) -> list:
    """Each block's term of R*, eps^2 n bayes_risk(empirical_mixing(beta, eps)),
    priced in one lockstep quadrature.

    Raises what a loop over the blocks would raise first: a block whose
    empirical prior cannot be built fails only after the blocks before it
    are priced, and a failing quadrature of one of those wins.
    """
    priors = []
    try:
        for beta in blocks:
            priors.append(empirical_mixing(beta, epsilon))
    except ValueError:
        bayes_risks(priors)
        raise
    risks = bayes_risks(priors)
    return [epsilon * epsilon * beta.size * risk for beta, risk in zip(blocks, risks)]
