"""Blocked Gaussian sequence model.

Observations y_jk = beta_jk + eps z_jk arrive in ordered blocks indexed by
an integer level j.  Estimation standardizes each block by eps, fits the
chosen block estimator blockwise, and rescales.  The ideal benchmark
charges each block the posterior-mean risk of its own empirical mixing
distribution:

    R*(eps, beta) = eps^2 sum_j n_j bayes_risk(empirical_mixing(beta_j, eps)).

Blocks are processed one at a time in block order, so results never depend
on any parallel execution of callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import TuningConfig, fit_block
from .errors import NumericFailure
from .mixture import IdentityRule, bayes_risk, empirical_mixing


def check_epsilon(epsilon):
    """Raise ValueError unless 0 < epsilon < inf."""
    if not 0 < float(epsilon) < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def standardize(values, epsilon, name):
    """values / epsilon; an overflow is reported once, as NumericFailure
    naming ``name``, not as numpy warnings."""
    with np.errstate(over="ignore"):
        x = values / epsilon
    if not np.all(np.isfinite(x)):
        raise NumericFailure(f"{name} overflows when standardized by epsilon {epsilon:g}")
    return x


@dataclass(frozen=True, eq=False)
class BlockedSequence:
    """Noise scale, ordered (level, values) blocks, optional true means."""

    epsilon: float
    blocks: tuple
    truth: tuple | None = None

    def __post_init__(self):
        check_epsilon(self.epsilon)
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
        if self.truth is not None:
            if len(self.truth) != len(cleaned):
                raise ValueError("truth must have one array per block")
            kept = []
            for (lvl, arr), t in zip(cleaned, self.truth):
                tarr = np.asarray(t, dtype=float).ravel()
                if tarr.shape != arr.shape:
                    raise ValueError(f"truth for block {lvl} has mismatched length")
                tarr.setflags(write=False)
                kept.append(tarr)
            object.__setattr__(self, "truth", tuple(kept))

    def sizes(self) -> tuple:
        return tuple(arr.size for _, arr in self.blocks)

    def total_count(self) -> int:
        return sum(self.sizes())


def dyadic_sequence(epsilon, levels, truth=None) -> BlockedSequence:
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
    truth_tuple = None
    if truth is not None:
        truth = dict(truth)
        truth_tuple = tuple(np.asarray(truth[j], dtype=float).ravel() for j, _ in items)
    return BlockedSequence(epsilon=float(epsilon), blocks=tuple(items), truth=truth_tuple)


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
        x = standardize(values, eps, f"block {level}")
        fit = fit_block(x, cfg, estimator)
        if isinstance(fit.rule, IdentityRule):
            # exact passthrough, not eps * (values / eps)
            estimates.append(values.copy())
        else:
            estimates.append(eps * np.asarray(fit.rule(x), dtype=float))
        fits.append(fit)
    return estimates, fits


def block_ideal_risk(beta, epsilon) -> float:
    """One block's term of R*: eps^2 n bayes_risk(empirical_mixing(beta, eps))."""
    return epsilon * epsilon * beta.size * bayes_risk(empirical_mixing(beta, epsilon))


def ideal_risk(seq: BlockedSequence) -> float:
    """Blockwise posterior-mean benchmark risk; requires truth."""
    if seq.truth is None:
        raise ValueError("ideal risk needs the true means")
    eps = float(seq.epsilon)
    return sum(block_ideal_risk(beta, eps) for beta in seq.truth)


# ---------------------------------------------------------------------------
# block-schedule diagnostics


@dataclass(frozen=True)
class BlockScheduleReport:
    """What the block-size schedule looks like, and whether it is sane.

    tail_weight_sum  sum_j (1 + log n_j)^(-3/2), which must stay bounded
                     for blockwise risks to accumulate gracefully
    nondecreasing    whether log-sizes never decrease
    preset           "dyadic", "geometric", or None
    warnings         human-readable schedule concerns (never errors)
    """

    tail_weight_sum: float
    nondecreasing: bool
    preset: str | None
    warnings: tuple


def check_blocks(sizes) -> BlockScheduleReport:
    """Diagnose a proposed block-size schedule."""
    ns = [int(n) for n in sizes]
    if len(ns) == 0 or any(n < 1 for n in ns):
        raise ValueError("sizes must be positive integers")
    logs = np.log(ns)
    tail = float(np.sum((1.0 + logs) ** -1.5))
    nondecreasing = bool(np.all(np.diff(logs) >= 0))
    preset = None
    warnings = []
    dyadic = [2 ** max(j, 0) for j in range(-1, len(ns) - 1)]
    if ns == dyadic:
        preset = "dyadic"
    elif len(ns) >= 2:
        ratios = np.array(ns[1:], dtype=float) / np.array(ns[:-1], dtype=float)
        if np.all(np.abs(ratios - ratios[0]) <= 1e-9 * ratios[0]) and ratios[0] > 1.0:
            preset = "geometric"
    if len(set(ns)) == 1 and len(ns) > 1:
        warnings.append(
            "constant block sizes: the schedule never grows, so blockwise "
            "risk guarantees degrade as more blocks are appended"
        )
    if preset is None:
        warnings.append("schedule matches no supported preset (dyadic or geometric)")
    if not nondecreasing:
        warnings.append("block sizes are not nondecreasing")
    return BlockScheduleReport(
        tail_weight_sum=tail,
        nondecreasing=nondecreasing,
        preset=preset,
        warnings=tuple(warnings),
    )
