"""Blocked sequence estimation and the blockwise ideal risk."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gebshrink.blocks import BLOCK_ESTIMATORS, TuningConfig, fit_block, james_stein
from gebshrink.errors import NumericFailure
from gebshrink.mixture import IdentityRule, bayes_risk, from_atoms
from gebshrink.sequence import block_ideal_risks, estimate_sequence, level_key


def make_dyadic(rng, j_max, epsilon, scale=1.0):
    """{j: values} for levels -1 .. j_max, level j of size 2^max(j, 0)."""
    blocks = {}
    for j in range(-1, j_max + 1):
        n = 2 ** max(j, 0)
        blocks[j] = rng.standard_normal(n) * scale + rng.standard_normal(n) * epsilon
    return blocks


def ideal_risk(epsilon, truth):
    """R*: the blocks' ideal risks summed over the {j: beta_j} truth."""
    return sum(block_ideal_risks([np.asarray(beta, dtype=float) for beta in truth.values()], epsilon))


# ---------------------------------------------------------------- structure


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_epsilon_must_be_positive_and_finite(epsilon):
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        estimate_sequence(epsilon, {0: np.ones(4)})


@pytest.mark.parametrize(
    "levels, message",
    [
        ({}, "need at least one block"),
        ({2: np.ones(4), 7: np.empty(0)}, "block 7 is empty"),
        ({2: np.ones(4), -1: np.array([np.nan])}, "block -1 contains non-finite values"),
        # every block is checked before any is fitted, so block 3's overflow is never met
        ({3: np.full(4, 1e-3), 5: np.array([np.inf])}, "block 5 contains non-finite values"),
    ],
    ids=["no-blocks", "empty", "nan", "checked-first"],
)
def test_malformed_blocks_are_rejected(levels, message):
    with pytest.raises(ValueError, match=message):
        estimate_sequence(1e-320, levels)


def test_overflowing_standardization_is_numeric_failure():
    # 1e-320 is a valid epsilon, but the second block divided by it overflows
    with pytest.raises(NumericFailure, match="block 5 overflows"):
        estimate_sequence(1e-320, {3: np.zeros(4), 5: np.full(4, 1e-3)})


_SEQUENCE_CFGS = (TuningConfig(), TuningConfig(b0=0.25, n_star=8, small_block_policy="james_stein"))


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=5, unique=True),
    sizes=st.lists(st.integers(1, 300), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.floats(1e-3, 1e3),
    estimator=st.sampled_from(BLOCK_ESTIMATORS),
    cfg=st.sampled_from(_SEQUENCE_CFGS),
)
def test_each_block_is_estimated_alone_under_its_own_key(keys, sizes, seed, epsilon, estimator, cfg):
    rng = np.random.default_rng(seed)
    levels = {
        key: epsilon * (rng.choice([-4.0, 0.0, 4.0], size=n) + rng.standard_normal(n))
        for key, n in zip(keys, sizes)
    }
    estimates, fits = estimate_sequence(epsilon, levels, cfg, estimator)
    assert list(estimates) == list(fits) == keys
    grid = np.linspace(-8.0, 8.0, 33)
    for key, values in levels.items():
        alone = fit_block(values / epsilon, cfg, estimator)
        fit = fits[key]
        assert (fit.branch, fit.n) == (alone.branch, alone.n)
        for name in ("kappa_hat", "rho", "b", "lam"):
            assert np.array_equal(getattr(fit, name), getattr(alone, name), equal_nan=True)
        assert np.array_equal(fit.rule(grid), alone.rule(grid))
        want = values if isinstance(alone.rule, IdentityRule) else epsilon * alone.rule(values / epsilon)
        assert estimates[key].tobytes() == np.asarray(want, dtype=float).tobytes()


# ---------------------------------------------------------------- estimation


def test_zero_sequence_estimates_to_zero():
    levels = {j: np.zeros(2 ** max(j, 0)) for j in range(-1, 8)}
    estimates, fits = estimate_sequence(0.5, levels, TuningConfig())
    for est in estimates.values():
        assert np.array_equal(est, np.zeros_like(est))
    for fit in fits.values():
        if fit.n >= 64:
            assert fit.branch == "threshold"


def test_small_levels_pass_through_under_mle_policy():
    rng = np.random.default_rng(3)
    levels = make_dyadic(rng, 5, 0.2)  # largest block is 32 < 64
    estimates, fits = estimate_sequence(0.2, levels, TuningConfig())
    for j, values in levels.items():
        assert np.array_equal(estimates[j], values)
        assert fits[j].branch == "mle"


def test_james_stein_policy_on_small_levels():
    rng = np.random.default_rng(4)
    levels = make_dyadic(rng, 4, 0.3)
    cfg = TuningConfig(small_block_policy="james_stein")
    estimates, fits = estimate_sequence(0.3, levels, cfg)
    for j, values in levels.items():
        assert fits[j].branch == "james_stein"
        assert np.allclose(estimates[j], james_stein(values, 0.3), rtol=1e-12, atol=0.0)


def test_scale_equivariance_power_of_two_is_bitwise():
    rng = np.random.default_rng(5)
    levels = make_dyadic(rng, 8, 0.25, scale=1.5)
    base, _ = estimate_sequence(0.25, levels, TuningConfig())
    scaled, _ = estimate_sequence(0.5, {j: 2.0 * v for j, v in levels.items()}, TuningConfig())
    for j in levels:
        assert np.array_equal(2.0 * base[j], scaled[j])


def test_scale_equivariance_generic_factor():
    rng = np.random.default_rng(6)
    levels = make_dyadic(rng, 8, 0.25, scale=1.5)
    base, _ = estimate_sequence(0.25, levels, TuningConfig())
    c = 3.7
    scaled, _ = estimate_sequence(c * 0.25, {j: c * v for j, v in levels.items()}, TuningConfig())
    for j in levels:
        denom = np.maximum(np.abs(c * base[j]), 1e-300)
        assert float(np.max(np.abs(c * base[j] - scaled[j]) / denom)) < 1e-12


def test_shape_preserved():
    rng = np.random.default_rng(7)
    levels = make_dyadic(rng, 7, 0.4)
    estimates, fits = estimate_sequence(0.4, levels, TuningConfig())
    assert list(estimates) == list(levels) == list(fits)
    for j, values in levels.items():
        assert estimates[j].shape == values.shape


def test_within_block_permutation_acts_coordinatewise():
    rng = np.random.default_rng(8)
    levels = make_dyadic(rng, 7, 0.4, scale=2.0)
    estimates, _ = estimate_sequence(0.4, levels, TuningConfig())
    perm = rng.permutation(128)
    permuted, _ = estimate_sequence(0.4, {**levels, 7: levels[7][perm]}, TuningConfig())
    assert np.array_equal(permuted[7], estimates[7][perm])
    for j in range(-1, 7):
        assert np.array_equal(estimates[j], permuted[j])


@pytest.mark.parametrize("n", [256, 2**13, 2**13 + 197], ids=["fused", "fused-at-cap", "two-walks"])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "rounded"])
def test_permuted_geb_block_gives_the_permuted_estimate(n, ties):
    rng = np.random.default_rng(n)
    values = 3.0 * rng.standard_normal(n) + 0.5 * rng.standard_normal(n)
    if ties:  # many equal values: equal inputs must give equal outputs
        values = np.round(values, 1)
    cfg = TuningConfig(b0=0.25)
    estimates, fits = estimate_sequence(0.5, {3: values}, cfg)
    assert fits[3].branch == "geb" and fits[3].rule.density.mode == "fourier"
    perm = rng.permutation(n)
    permuted, _ = estimate_sequence(0.5, {3: values[perm]}, cfg)
    assert np.array_equal(permuted[3], estimates[3][perm])
    if ties:
        first = {}
        for v, e in zip(values, estimates[3]):
            assert first.setdefault(v, e) == e


def test_fit_determinism_repeated_runs():
    rng = np.random.default_rng(9)
    levels = make_dyadic(rng, 8, 0.3)
    a, _ = estimate_sequence(0.3, levels, TuningConfig())
    b, _ = estimate_sequence(0.3, levels, TuningConfig())
    for j in levels:
        assert np.array_equal(a[j], b[j])


# ---------------------------------------------------------------- ideal risk


def test_ideal_risk_zero_truth():
    blocks = {j: np.zeros(2 ** max(j, 0)) for j in range(-1, 6)}
    assert ideal_risk(0.2, blocks) == 0.0


def test_ideal_risk_constant_block_is_zero():
    vals = {-1: np.array([4.0]), 0: np.array([4.0]), 1: np.array([4.0, 4.0])}
    assert ideal_risk(1.0, vals) == 0.0


def test_ideal_risk_two_point_block():
    truth = {-1: np.array([0.0]), 0: np.array([0.0]), 1: np.array([-3.0, 3.0])}
    expected = 2.0 * bayes_risk(from_atoms([-3.0, 3.0], [0.5, 0.5]))
    assert ideal_risk(1.0, truth) == pytest.approx(expected, rel=1e-9)


def test_ideal_risk_scales_with_epsilon_squared_and_adds():
    truth = {-1: np.array([1.0]), 0: np.array([-2.0]), 1: np.array([0.5, 3.0])}
    r1 = ideal_risk(1.0, truth)
    half = {j: 0.5 * v for j, v in truth.items()}
    r2 = ideal_risk(0.5, half)
    # same standardized atoms, quarter the scale
    assert r2 == pytest.approx(0.25 * r1, rel=1e-9)


def test_level_key_takes_integers_only():
    assert [level_key(j) for j in (-1, 0, np.int64(7), np.int32(3))] == [-1, 0, 7, 3]
    assert type(level_key(np.int64(7))) is int
    for key in (1.5, 2.0, np.float64(0.9), "1", None):
        with pytest.raises(ValueError, match=re.escape(f"level {key!r} is not an integer")):
            level_key(key)
