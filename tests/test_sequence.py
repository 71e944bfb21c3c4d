"""Blocked sequence estimation and the blockwise ideal risk."""

import math

import numpy as np
import pytest

from gebshrink.blocks import TuningConfig, james_stein
from gebshrink.errors import NumericFailure
from gebshrink.mixture import bayes_risk, from_atoms
from gebshrink.sequence import (
    BlockedSequence,
    block_ideal_risks,
    dyadic_sequence,
    estimate_sequence,
)


def make_dyadic(rng, j_max, epsilon, scale=1.0):
    blocks = {}
    for j in range(-1, j_max + 1):
        n = 2 ** max(j, 0)
        blocks[j] = rng.standard_normal(n) * scale + rng.standard_normal(n) * epsilon
    return dyadic_sequence(epsilon, blocks)


def ideal_risk(epsilon, truth):
    """R*: the blocks' ideal risks summed over the {j: beta_j} truth."""
    return sum(block_ideal_risks([np.asarray(beta, dtype=float) for beta in truth.values()], epsilon))


# ---------------------------------------------------------------- structure


def test_dyadic_sequence_sizes():
    seq = dyadic_sequence(0.1, {j: np.zeros(2 ** max(j, 0)) for j in range(-1, 5)})
    assert [(j, len(v)) for j, v in seq.blocks] == [
        (-1, 1), (0, 1), (1, 2), (2, 4), (3, 8), (4, 16)
    ]


def test_dyadic_sequence_validates_shape():
    with pytest.raises(ValueError):
        dyadic_sequence(0.1, {-1: np.zeros(1), 0: np.zeros(2)})  # wrong size
    with pytest.raises(ValueError):
        dyadic_sequence(0.1, {0: np.zeros(1)})  # must start at -1
    with pytest.raises(ValueError):
        dyadic_sequence(0.1, {-1: np.zeros(1), 1: np.zeros(2)})  # gap
    with pytest.raises(ValueError):
        dyadic_sequence(0.0, {-1: np.zeros(1)})


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_epsilon_must_be_positive_and_finite(epsilon):
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        BlockedSequence(epsilon=epsilon, blocks=((0, np.ones(4)),))


def test_overflowing_standardization_is_numeric_failure():
    # 1e-320 is a valid epsilon, but the second block divided by it overflows
    seq = BlockedSequence(epsilon=1e-320, blocks=((3, np.zeros(4)), (5, np.full(4, 1e-3))))
    with pytest.raises(NumericFailure, match="block 5 overflows"):
        estimate_sequence(seq)


# ---------------------------------------------------------------- estimation


def test_zero_sequence_estimates_to_zero():
    seq = dyadic_sequence(0.5, {j: np.zeros(2 ** max(j, 0)) for j in range(-1, 8)})
    estimates, fits = estimate_sequence(seq, TuningConfig())
    for est in estimates:
        assert np.array_equal(est, np.zeros_like(est))
    for fit in fits:
        if fit.n >= 64:
            assert fit.branch == "threshold"


def test_small_levels_pass_through_under_mle_policy():
    rng = np.random.default_rng(3)
    seq = make_dyadic(rng, 5, 0.2)  # largest block is 32 < 64
    estimates, fits = estimate_sequence(seq, TuningConfig())
    for (j, values), est, fit in zip(seq.blocks, estimates, fits):
        assert np.array_equal(est, values)
        assert fit.branch == "mle"


def test_james_stein_policy_on_small_levels():
    rng = np.random.default_rng(4)
    seq = make_dyadic(rng, 4, 0.3)
    cfg = TuningConfig(small_block_policy="james_stein")
    estimates, fits = estimate_sequence(seq, cfg)
    for (j, values), est, fit in zip(seq.blocks, estimates, fits):
        assert fit.branch == "james_stein"
        assert np.allclose(est, james_stein(values, 0.3), rtol=1e-12, atol=0.0)


def test_scale_equivariance_power_of_two_is_bitwise():
    rng = np.random.default_rng(5)
    seq = make_dyadic(rng, 8, 0.25, scale=1.5)
    base, _ = estimate_sequence(seq, TuningConfig())
    doubled = dyadic_sequence(0.5, {j: 2.0 * v for j, v in seq.blocks})
    scaled, _ = estimate_sequence(doubled, TuningConfig())
    for a, b in zip(base, scaled):
        assert np.array_equal(2.0 * a, b)


def test_scale_equivariance_generic_factor():
    rng = np.random.default_rng(6)
    seq = make_dyadic(rng, 8, 0.25, scale=1.5)
    base, _ = estimate_sequence(seq, TuningConfig())
    c = 3.7
    scaled_seq = dyadic_sequence(c * 0.25, {j: c * v for j, v in seq.blocks})
    scaled, _ = estimate_sequence(scaled_seq, TuningConfig())
    for a, b in zip(base, scaled):
        denom = np.maximum(np.abs(c * a), 1e-300)
        assert float(np.max(np.abs(c * a - b) / denom)) < 1e-12


def test_shape_preserved():
    rng = np.random.default_rng(7)
    seq = make_dyadic(rng, 7, 0.4)
    estimates, fits = estimate_sequence(seq, TuningConfig())
    assert len(estimates) == len(seq.blocks) == len(fits)
    for (j, values), est in zip(seq.blocks, estimates):
        assert est.shape == values.shape


def test_within_block_permutation_acts_coordinatewise():
    rng = np.random.default_rng(8)
    seq = make_dyadic(rng, 7, 0.4, scale=2.0)
    estimates, _ = estimate_sequence(seq, TuningConfig())
    blocks = dict(seq.blocks)
    perm = rng.permutation(128)
    blocks[7] = blocks[7][perm]
    permuted, _ = estimate_sequence(dyadic_sequence(0.4, blocks), TuningConfig())
    assert np.array_equal(permuted[-1], estimates[-1][perm])
    for a, b in zip(estimates[:-1], permuted[:-1]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [256, 2**13, 2**13 + 197], ids=["fused", "fused-at-cap", "two-walks"])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "rounded"])
def test_permuted_geb_block_gives_the_permuted_estimate(n, ties):
    rng = np.random.default_rng(n)
    values = 3.0 * rng.standard_normal(n) + 0.5 * rng.standard_normal(n)
    if ties:  # many equal values: equal inputs must give equal outputs
        values = np.round(values, 1)
    cfg = TuningConfig(b0=0.25)
    estimates, fits = estimate_sequence(BlockedSequence(0.5, ((3, values),)), cfg)
    assert fits[0].branch == "geb" and fits[0].rule.density.mode == "fourier"
    perm = rng.permutation(n)
    permuted, _ = estimate_sequence(BlockedSequence(0.5, ((3, values[perm]),)), cfg)
    assert np.array_equal(permuted[0], estimates[0][perm])
    if ties:
        first = {}
        for v, e in zip(values, estimates[0]):
            assert first.setdefault(v, e) == e


def test_fit_determinism_repeated_runs():
    rng = np.random.default_rng(9)
    seq = make_dyadic(rng, 8, 0.3)
    a, _ = estimate_sequence(seq, TuningConfig())
    b, _ = estimate_sequence(seq, TuningConfig())
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


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
