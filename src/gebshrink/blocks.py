"""Blockwise estimation of standardized normal means.

Given one block of observations X_k = theta_k + z_k with unit noise, the
hybrid estimator either applies the kernel plug-in posterior-mean rule or
falls back to soft thresholding at the universal level, depending on
whether the signal-mass statistic

    kappa_hat = 1 - (sqrt 2 / n) sum_k exp(-X_k^2 / 2)

exceeds the schedule b(n) = b0 log(n) / sqrt(n).  All logarithms are
natural.  The density floor follows rho(n) = rho0 sqrt(2 log(n) / n) and
the threshold uses sqrt(2 (1 + A0) log n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfigError
from .kde import kde_fit
from .mixture import (
    DENSITY_FLOOR_LIMIT,
    GebRule,
    HardThresholdRule,
    IdentityRule,
    LinearShrinkRule,
    ScalarRule,
    SoftThresholdRule,
)

#: estimators that fit each block on its own; see :func:`fit_block`
BLOCK_ESTIMATORS = ("geb-hybrid", "soft-universal", "hard-universal", "james-stein", "mle")
#: every estimator a risk experiment can name: the block estimators, and
#: oracle-truth, which ``risklab`` answers with the true means themselves
ESTIMATORS = (*BLOCK_ESTIMATORS, "oracle-truth")

_POLICIES = ("mle", "james_stein")


@dataclass(frozen=True)
class TuningConfig:
    """Tuning constants for the hybrid fit.

    rho0, b0            coefficients of the floor and branch schedules
    n_star              smallest block size the hybrid path accepts
    threshold_inflation the A0 in the threshold sqrt(2 (1 + A0) log n)
    small_block_policy  "mle" or "james_stein", applied below n_star
    """

    rho0: float = 0.4
    b0: float = 2.0
    n_star: int = 64
    threshold_inflation: float = 0.0
    small_block_policy: str = "mle"

    def __post_init__(self):
        if not 0 < self.rho0 < math.inf:
            raise InvalidConfigError(f"rho0 must be positive and finite, got {self.rho0}")
        if not 0 < self.b0 < math.inf:
            raise InvalidConfigError(f"b0 must be positive and finite, got {self.b0}")
        if self.n_star <= 2:
            raise InvalidConfigError(f"n_star (nstar) must exceed 2, got {self.n_star}")
        if not 0 <= self.threshold_inflation < math.inf:
            raise InvalidConfigError(
                f"threshold_inflation (a0) must be nonnegative and finite, got {self.threshold_inflation}"
            )
        if self.small_block_policy not in _POLICIES:
            raise InvalidConfigError(
                f"small_block_policy must be one of {_POLICIES}, got {self.small_block_policy!r}"
            )


class TuningValues(NamedTuple):
    rho: float
    b: float
    lam: float


def tuning(n, cfg: TuningConfig = TuningConfig()) -> TuningValues:
    """Evaluate the tuning schedules at block size ``n``.

    Raises InvalidConfigError when the implied density floor reaches
    1/sqrt(2 pi), where the plug-in rule's denominator guard would be
    vacuous.
    """
    n = int(n)
    if n < 3:
        raise ValueError(f"block size must be at least 3, got {n}")
    log_n = math.log(n)
    rho = cfg.rho0 * math.sqrt(2.0 * log_n / n)
    if rho >= DENSITY_FLOOR_LIMIT:
        raise InvalidConfigError(
            f"density floor {rho:.6g} at n={n} reaches the 1/sqrt(2 pi) limit; reduce rho0"
        )
    if rho <= 0:
        raise InvalidConfigError(f"density floor {rho:.6g} at n={n} is not positive")
    lam = math.sqrt(2.0 * (1.0 + cfg.threshold_inflation) * log_n)
    return TuningValues(rho=rho, b=_branch_bound(n, cfg.b0), lam=lam)


def _branch_bound(n, b0) -> float:
    """The branch schedule b(n) = b0 log(n) / sqrt(n)."""
    return b0 * math.log(n) / math.sqrt(n)


def branch_frontier(kappa_tilde, cfg: TuningConfig = TuningConfig()):
    """The smallest block size n >= n_star with b(n) < ``kappa_tilde``, or
    None when ``kappa_tilde`` <= 0, which no b(n) falls below.

    kappa_hat estimates kappa_tilde, so a large block drawn from a prior
    with that kappa_tilde takes the geb branch from about this size on.
    b(n) rises up to n = e^2 and falls after it, so the search steps
    through n < 8 and then bisects.
    """
    if not kappa_tilde > 0:
        return None

    def below(n):
        return _branch_bound(n, cfg.b0) < kappa_tilde

    n = cfg.n_star
    while n < 8 and not below(n):
        n += 1
    if below(n):
        return n
    high = 2 * n
    while not below(high):
        n, high = high, 2 * high
    while high - n > 1:  # below(high) and not below(n)
        mid = (n + high) // 2
        if below(mid):
            high = mid
        else:
            n = mid
    return high


def kappa_hat(values) -> float:
    """Signal-mass statistic 1 - (sqrt 2 / n) sum exp(-X_k^2 / 2).

    Lies in [1 - sqrt 2, 1); summation runs over sorted values so the
    statistic is bit-identical under permutations of the input.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("need at least one value")
    if not np.all(np.isfinite(x)):
        raise ValueError("values must be finite")
    with np.errstate(over="ignore"):  # x^2 = inf gives the right term, 0
        terms = np.exp(-0.5 * np.sort(x) ** 2)
    return 1.0 - math.sqrt(2.0) * float(terms.sum()) / x.size


def geb_rule(values, floor) -> GebRule:
    """Kernel plug-in posterior-mean rule fitted to ``values``.

    The rule is x + f_hat'(x) / max(f_hat(x), floor); negative density
    values are kept (only the floor protects the ratio) and the output is
    not clipped.
    """
    floor = float(floor)
    if not 0.0 < floor < DENSITY_FLOOR_LIMIT:
        raise ValueError(
            f"floor must lie in (0, {DENSITY_FLOOR_LIMIT:.6f}), got {floor}"
        )
    return GebRule(density=kde_fit(values), floor=floor)


@dataclass(frozen=True, eq=False)
class FittedBlockRule:
    """Outcome of fitting one block.

    ``branch`` is "geb" or "threshold" for hybrid and universal-threshold
    fits, "mle" or "james_stein" for the identity and spherical shrinkage.
    For hybrid fits the branch is "geb" exactly when kappa_hat > b and
    n >= n_star.  Schedule fields are NaN where no schedule was evaluated:
    all three on mle and james_stein branches, rho and b on
    universal-threshold fits.
    """

    rule: ScalarRule
    branch: str
    kappa_hat: float
    rho: float
    b: float
    lam: float
    n: int

    def __post_init__(self):
        if self.branch in ("geb", "threshold"):
            picked_geb = self.kappa_hat > self.b
            if picked_geb != (self.branch == "geb"):
                raise ValueError(
                    f"branch {self.branch!r} contradicts kappa_hat={self.kappa_hat} "
                    f"vs b={self.b}"
                )


def hybrid_fit(values, cfg: TuningConfig = TuningConfig()) -> FittedBlockRule:
    """Fit the hybrid rule to one standardized block.

    Picks the kernel plug-in branch when kappa_hat > b(n), otherwise soft
    thresholding at the universal level.  Requires n >= cfg.n_star.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size < cfg.n_star:
        raise ValueError(
            f"hybrid fit needs at least n_star={cfg.n_star} values, got {x.size}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("values must be finite")
    vals = tuning(x.size, cfg)
    mass = kappa_hat(x)
    if mass > vals.b:
        rule: ScalarRule = geb_rule(x, vals.rho)
        branch = "geb"
    else:
        rule = SoftThresholdRule(vals.lam)
        branch = "threshold"
    return FittedBlockRule(
        rule=rule,
        branch=branch,
        kappa_hat=mass,
        rho=vals.rho,
        b=vals.b,
        lam=vals.lam,
        n=x.size,
    )


def fit_block(values, cfg: TuningConfig = TuningConfig(), estimator="geb-hybrid") -> FittedBlockRule:
    """Fit one of :data:`BLOCK_ESTIMATORS` to one standardized block.

    geb-hybrid runs :func:`hybrid_fit`; soft-universal and hard-universal
    threshold at the universal level.  All three apply
    cfg.small_block_policy to blocks of fewer than cfg.n_star values.
    james-stein (spherical shrinkage at unit noise) and mle (the
    identity) apply to blocks of every size.
    """
    if estimator not in BLOCK_ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; choose from {BLOCK_ESTIMATORS}")
    x = np.asarray(values, dtype=float).ravel()
    if estimator in ("james-stein", "mle"):
        branch = "mle" if estimator == "mle" else "james_stein"
    elif x.size < cfg.n_star:
        branch = cfg.small_block_policy
    elif estimator == "geb-hybrid":
        return hybrid_fit(x, cfg)
    else:
        branch = "threshold"
    lam = math.nan
    if branch == "threshold":
        lam = tuning(x.size, cfg).lam
        threshold_rule = SoftThresholdRule if estimator == "soft-universal" else HardThresholdRule
        rule: ScalarRule = threshold_rule(lam)
    elif branch == "james_stein":
        rule = LinearShrinkRule(james_stein_factor(x, 1.0))
    else:
        rule = IdentityRule()
    return FittedBlockRule(
        rule=rule, branch=branch, kappa_hat=kappa_hat(x), rho=math.nan, b=math.nan, lam=lam, n=x.size
    )


def james_stein_factor(values, epsilon) -> float:
    """Positive-part spherical shrinkage factor (1 - (n - 2) eps^2 / ||y||^2)_+.

    1 for n <= 2 and 0 when ||y|| = 0.  The squared norm is accumulated
    over sorted values so the factor is permutation-invariant bit for bit.
    """
    y = np.asarray(values, dtype=float).ravel()
    epsilon = float(epsilon)
    if not epsilon > 0:
        raise ValueError(f"noise scale must be positive, got {epsilon}")
    if not np.all(np.isfinite(y)):
        raise ValueError("values must be finite")
    n = y.size
    if n <= 2:
        return 1.0
    with np.errstate(over="ignore"):  # ||y||^2 = inf gives the right factor, 1
        norm_sq = float(np.sum(np.sort(y) ** 2))
    if norm_sq == 0.0:
        return 0.0
    return max(1.0 - (n - 2) * epsilon * epsilon / norm_sq, 0.0)


def james_stein(values, epsilon):
    """Positive-part spherical shrinkage toward the origin.

    Returns ``james_stein_factor(y, epsilon) * y``: the identity for
    n <= 2 and zeros when ||y|| = 0.
    """
    y = np.asarray(values, dtype=float).ravel()
    return james_stein_factor(y, epsilon) * y
