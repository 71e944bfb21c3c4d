"""Blocked Gaussian sequence model.

Observations y_jk = beta_jk + eps z_jk arrive in ordered blocks indexed by
an integer level j.  Estimation standardizes each block by eps, fits the
chosen block estimator blockwise, and rescales.  The ideal benchmark
charges each block the posterior-mean risk of its own empirical mixing
distribution:

    R*(eps, beta) = eps^2 sum_j n_j bayes_risk(empirical_mixing(beta_j, eps)).

Blocks are estimated one at a time in block order, and each block's ideal
risk is bit-identical whatever batch prices it, so results never depend on
any parallel execution of callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import TuningConfig, fit_block
from .errors import NumericFailure
from .mixture import IdentityRule, bayes_risks, empirical_mixing


@dataclass(frozen=True, eq=False)
class BlockedSequence:
    """Noise scale and ordered (level, values) blocks."""

    epsilon: float
    blocks: tuple

    def __post_init__(self):
        if not 0 < float(self.epsilon) < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if len(self.blocks) == 0:
            raise ValueError("need at least one block")
        cleaned = []
        for level, values in self.blocks:
            arr = np.asarray(values, dtype=float).ravel()
            if arr.size == 0:
                raise ValueError(f"block {level} is empty")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"block {level} contains non-finite values")
            arr.setflags(write=False)
            cleaned.append((int(level), arr))
        levels = [lvl for lvl, _ in cleaned]
        if len(set(levels)) != len(levels):
            raise ValueError("block levels must be distinct")
        object.__setattr__(self, "blocks", tuple(cleaned))


def dyadic_sequence(epsilon, levels) -> BlockedSequence:
    """Build a sequence whose block at level j has size 2^max(j, 0).

    ``levels`` maps j -> values, with j = -1, 0, 1, ... consecutive from
    the coarsest; the single coarsest coefficient sits at (j, k) = (-1, 1).
    """
    items = sorted((int(j), np.asarray(v, dtype=float).ravel()) for j, v in dict(levels).items())
    expected = -1
    for j, arr in items:
        if j != expected:
            raise ValueError(f"dyadic levels must run -1, 0, 1, ... without gaps; found {j}")
        want = 2 ** max(j, 0)
        if arr.size != want:
            raise ValueError(f"dyadic block {j} must have size {want}, got {arr.size}")
        expected += 1
    return BlockedSequence(epsilon=float(epsilon), blocks=tuple(items))


def estimate_sequence(seq: BlockedSequence, cfg: TuningConfig = TuningConfig(), estimator="geb-hybrid"):
    """Estimate every block of ``seq`` with one of the block estimators.

    Returns ``(estimates, fits)``: a list of arrays matching the block
    shapes and the list of per-block FittedBlockRule diagnostics.  Each
    block is standardized by eps and fitted by :func:`blocks.fit_block`;
    a block that overflows when standardized raises NumericFailure.
    """
    eps = float(seq.epsilon)
    estimates = []
    fits = []
    for level, values in seq.blocks:
        with np.errstate(over="ignore"):  # reported once, not as numpy warnings
            x = values / eps
        if not np.all(np.isfinite(x)):
            raise NumericFailure(f"block {level} overflows when standardized by epsilon {eps:g}")
        fit = fit_block(x, cfg, estimator)
        if isinstance(fit.rule, IdentityRule):
            # exact passthrough, not eps * (values / eps)
            estimates.append(values.copy())
        else:
            estimates.append(eps * np.asarray(fit.rule(x), dtype=float))
        fits.append(fit)
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
