"""Threshold maps and the exact risk of soft thresholding.

For X ~ N(mu, 1) the soft-threshold risk has the closed form of Donoho
and Johnstone (Biometrika 1994),

    R(mu; lam) = 1 + lam^2 + (mu^2 - lam^2 - 1) [Phi(lam - mu) - Phi(-lam - mu)]
                 - (lam - mu) phi(lam + mu) - (lam + mu) phi(lam - mu),

evaluated here with upper normal tails Q = 1 - Phi from ``math.erfc``,
arranged so that no tail is subtracted from one.  The tests cross-check
it against quadrature of the distribution-function representation and
against direct Monte Carlo.
"""

from __future__ import annotations

import math

import numpy as np

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def threshold(values, level, mode="soft"):
    """Apply a soft or hard threshold coordinatewise.

    soft: sgn(x) (|x| - level)_+      hard: x 1{|x| > level}
    """
    if level < 0:
        raise ValueError(f"threshold level must be nonnegative, got {level}")
    x = np.asarray(values, dtype=float)
    if mode == "soft":
        return np.sign(x) * np.maximum(np.abs(x) - level, 0.0)
    if mode == "hard":
        return np.where(np.abs(x) > level, x, 0.0)
    raise ValueError(f"unknown threshold mode {mode!r}")


# math.erfc and math.exp entry by entry: numpy has no erfc, and its exp may
# differ from math.exp in the last bit
_erfc = np.frompyfunc(math.erfc, 1, 1)
_exp = np.frompyfunc(math.exp, 1, 1)


def _upper_tail(t):
    return 0.5 * _erfc(t * _SQRT_HALF).astype(float)


def _density(t):
    return _INV_SQRT_2PI * _exp(-0.5 * t * t).astype(float)


def soft_threshold_risk(mu, level):
    """Mean squared error of soft thresholding at ``level`` when X ~ N(mu, 1).

    Equals 1 at level 0 (the identity map) and approaches level**2 + 1 as
    |mu| grows.  Even in mu and monotone in |mu|.  ``mu`` may be an array:
    the risk at each entry, each with the arithmetic of a scalar call.
    """
    if level < 0:
        raise ValueError(f"threshold level must be nonnegative, got {level}")
    lam = float(level)
    mus = np.asarray(mu, dtype=float)
    # past lam + 40 every tail and density term underflows, so the risk is
    # 1 + lam^2 to the last bit; the cap keeps mu^2 finite
    m = np.minimum(np.abs(np.atleast_1d(mus)), lam + 40.0)
    lam2 = lam * lam
    densities = (lam - m) * _density(lam + m) + (lam + m) * _density(lam - m)
    near, far = _upper_tail(np.abs(lam - m)), _upper_tail(lam + m)
    slack = 1.0 + lam2 - m * m
    # at lam = 0 the two tails and the two density terms cancel exactly: 1
    risk = np.where(
        m <= lam,
        m * m + slack * (near + far) - densities,
        1.0 + lam2 - slack * (near - far) - densities,
    )
    return float(risk[0]) if mus.ndim == 0 else risk
