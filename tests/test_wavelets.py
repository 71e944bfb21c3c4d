"""Filter banks, noise calibration, and the two regression front ends."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from gebshrink.blocks import TuningConfig
from gebshrink.signals import SIGNAL_NAMES
from gebshrink.signals import test_signal as make_signal
from gebshrink.wavelets import (
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

BASES = ("haar", "d4", "s8")


def bisect_normal_quantile(p, lo=-10.0, hi=10.0):
    # independent root finder: ndtr(z) = p
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ndtr(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------- filters


@pytest.mark.parametrize("name", BASES)
def test_filters_orthonormal(name):
    h = wavelet_basis(name).lowpass
    assert np.dot(h, h) == pytest.approx(1.0, abs=1e-12)
    for shift in range(2, len(h), 2):
        assert float(np.dot(h[:-shift], h[shift:])) == pytest.approx(0.0, abs=1e-12)
    assert float(np.sum(h)) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_unknown_basis_rejected():
    with pytest.raises(ValueError):
        wavelet_basis("db97")


# ---------------------------------------------------------------- transform


def test_constant_signal_concentrates_on_coarse_level():
    x = np.full(64, 3.25)
    for name in BASES:
        levels = dwt(x, wavelet_basis(name))
        assert levels[-1][0] == pytest.approx(3.25, abs=1e-11)
        for j in range(0, max(levels) + 1):
            # published taps carry ~1e-12 of alternating-sum error
            assert np.max(np.abs(levels[j])) < 5e-12
    # haar details on a constant are exactly zero
    haar_levels = dwt(x, wavelet_basis("haar"))
    for j in range(0, max(haar_levels) + 1):
        assert np.all(haar_levels[j] == 0.0)


@pytest.mark.parametrize("name", BASES)
def test_perfect_reconstruction_and_energy(name):
    basis = wavelet_basis(name)
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = 2 ** int(rng.integers(1, 11))
        x = rng.standard_normal(n) * float(rng.uniform(0.5, 4.0))
        levels = dwt(x, basis)
        back = idwt(levels, basis)
        assert float(np.max(np.abs(back - x))) < 1e-10
        energy = sum(float(np.dot(v, v)) for v in levels.values())
        assert energy == pytest.approx(float(np.dot(x, x)) / n, rel=1e-10)


def test_level_sizes_are_dyadic():
    levels = dwt(np.arange(32, dtype=float), wavelet_basis("haar"))
    assert {j: v.size for j, v in levels.items()} == {
        -1: 1, 0: 1, 1: 2, 2: 4, 3: 8, 4: 16
    }


def test_non_dyadic_length_rejected_with_explanation():
    with pytest.raises(ValueError, match="power of two"):
        dwt(np.zeros(1000), wavelet_basis("haar"))
    with pytest.raises(ValueError, match="power of two"):
        dwt(np.zeros(1), wavelet_basis("haar"))


def test_white_noise_coefficients_have_scaled_variance():
    rng = np.random.default_rng(42)
    n = 8192
    sigma = 2.0
    levels = dwt(sigma * rng.standard_normal(n), wavelet_basis("d4"))
    details = np.concatenate([levels[j] for j in sorted(levels) if j >= 0])
    ratio = float(np.std(details)) * math.sqrt(n) / sigma
    assert 0.95 < ratio < 1.05


# ---------------------------------------------------------------- mad scale


def test_mad_constant_magnitudes():
    z75 = bisect_normal_quantile(0.75)
    assert abs(z75 - Z_THREE_QUARTERS) < 1e-12
    got = mad_sigma(np.full(16, -0.3), 1024)
    assert got == pytest.approx(math.sqrt(1024) * 0.3 / z75, rel=1e-12)


def test_mad_single_and_even_count():
    assert mad_sigma([2.0], 4) == pytest.approx(2.0 * 2.0 / Z_THREE_QUARTERS, rel=1e-12)
    # even count: midpoint of the two central magnitudes
    got = mad_sigma([1.0, -3.0, 2.0, 4.0], 1)
    assert got == pytest.approx(2.5 / Z_THREE_QUARTERS, rel=1e-12)


def test_mad_all_zero_is_zero():
    assert mad_sigma(np.zeros(8), 256) == 0.0


def test_mad_rejects_empty_input():
    with pytest.raises(ValueError):
        mad_sigma([], 16)


def test_mad_calibration_on_pure_noise():
    sigma = 2.5
    basis = wavelet_basis("s8")
    hits = 0
    for r in range(200):
        rng = np.random.default_rng(3000 + r)
        levels = dwt(sigma * rng.standard_normal(2048), basis)
        est = mad_sigma(levels[max(levels)], 2048)
        hits += 0.9 <= est / sigma <= 1.1
    assert hits >= 198


# ---------------------------------------------------------------- denoising


def test_noiseless_constant_passes_through():
    y = np.full(256, 1.75)
    f_hat, report = denoise_equispaced(y, wavelet_basis("haar"))
    assert np.array_equal(f_hat, y)
    assert report.sigma_hat == 0.0


def test_denoise_scale_equivariance_with_known_sigma():
    rng = np.random.default_rng(21)
    y = np.sin(np.linspace(0.0, 6.0, 512)) + 0.3 * rng.standard_normal(512)
    base, _ = denoise_equispaced(y, wavelet_basis("d4"), sigma=0.3)
    c = 5.5
    scaled, _ = denoise_equispaced(c * y, wavelet_basis("d4"), sigma=c * 0.3)
    assert float(np.max(np.abs(scaled - c * base))) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(SIGNAL_NAMES),
    basis_name=st.sampled_from(BASES),
    n=st.sampled_from((64, 256, 1024)),
    seed=st.integers(0, 2**32 - 1),
    # the paper's schedule, and one that lets coarse levels take the geb branch
    cfg=st.sampled_from((TuningConfig(), TuningConfig(b0=0.25, n_star=8))),
    power=st.integers(-40, 40),
    factor=st.floats(1e-4, 1e4),
)
def test_denoise_is_scale_equivariant(name, basis_name, n, seed, cfg, power, factor):
    samples, sigma = make_signal(name, n, 7.0)
    y = samples + sigma * np.random.default_rng(seed).standard_normal(n)
    basis = wavelet_basis(basis_name)
    base, report = denoise_equispaced(y, basis, cfg)
    branches = [fit.branch for fit in report.fits]

    # scaling by a power of two is exact in every step, so bit for bit
    c = 2.0**power
    scaled, scaled_report = denoise_equispaced(c * y, basis, cfg)
    assert np.array_equal(scaled, c * base)
    assert scaled_report.sigma_hat == c * report.sigma_hat
    assert [fit.branch for fit in scaled_report.fits] == branches

    # any other factor: to rounding, relative to the estimate's scale
    scaled, scaled_report = denoise_equispaced(factor * y, basis, cfg)
    assert scaled_report.sigma_hat == pytest.approx(factor * report.sigma_hat, rel=1e-12)
    assert float(np.max(np.abs(scaled - factor * base))) <= 1e-12 * factor * float(
        np.max(np.abs(base))
    )
    assert [fit.branch for fit in scaled_report.fits] == branches


def test_denoise_smooth_run_reports_levels():
    rng = np.random.default_rng(22)
    n = 1024
    t = np.arange(n) / n
    y = 4.0 * np.sin(4.0 * np.pi * t) + 0.5 * rng.standard_normal(n)
    f_hat, report = denoise_equispaced(y, wavelet_basis("s8"))
    assert f_hat.shape == y.shape
    assert np.all(np.isfinite(f_hat))
    assert report.levels == tuple(range(-1, 10))
    assert len(report.fits) == 11
    assert 0.3 < report.sigma_hat < 0.8
    # shrinkage should beat the raw observations on this smooth target
    truth = 4.0 * np.sin(4.0 * np.pi * t)
    assert np.mean((f_hat - truth) ** 2) < np.mean((y - truth) ** 2)


def test_denoise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        denoise_equispaced(np.zeros(64), wavelet_basis("haar"), sigma=-1.0)


# ------------------------------------------------- piecewise-constant haar


def test_haar_step_function_single_detail():
    cells = np.array([1.0] * 8 + [-1.0] * 8)
    levels = haar_coefficients(cells)
    assert levels[-1][0] == 0.0
    assert levels[0][0] == pytest.approx(1.0, abs=1e-14)
    for j in range(1, 4):
        assert np.max(np.abs(levels[j])) < 1e-14


def test_haar_constant_is_coarse_only():
    levels = haar_coefficients(np.full(32, -2.5))
    assert levels[-1][0] == -2.5
    for j in range(0, 5):
        assert np.all(levels[j] == 0.0)


def test_haar_roundtrip():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = 2 ** int(rng.integers(1, 10))
        v = rng.standard_normal(n) * 3.0
        back = haar_reconstruct(haar_coefficients(v))
        assert float(np.max(np.abs(back - v))) < 1e-12


def test_haar_coefficients_match_sampled_transform():
    # a function constant on dyadic cells has cell values equal to its
    # equispaced samples, and its analytic coefficients equal the discrete ones
    rng = np.random.default_rng(32)
    v = rng.standard_normal(128)
    analytic = haar_coefficients(v)
    discrete = dwt(v, wavelet_basis("haar"))
    assert sorted(analytic) == sorted(discrete)
    for j in analytic:
        assert float(np.max(np.abs(analytic[j] - discrete[j]))) < 1e-12


def test_haar_resolution_mismatch_rejected():
    with pytest.raises(ValueError):
        haar_coefficients(np.zeros(16), j_max=5)


# ---------------------------------------------------------- random design


def test_transform_counts_and_contrast_by_hand():
    t = np.array([0.1, 0.3, 0.6, 0.9])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    data = random_design_transform(t, y, 1)
    assert list(data.counts[2]) == [1, 1, 1, 1]
    assert list(data.counts[1]) == [2, 2]
    assert list(data.deltas[1]) == [1, 1]
    assert list(data.deltas[0]) == [1]
    # contrast of cell (1,1): children hold exactly one value each
    want = (1.0 - 2.0) / (math.sqrt(4.0) * math.sqrt(1.0 / 1.0 + 1.0 / 1.0))
    assert data.coefficients[1][0] == pytest.approx(want, rel=1e-14)
    assert data.coefficients[-1][0] == pytest.approx(2.5, rel=1e-14)


def test_constant_response_loads_only_the_mean():
    rng = np.random.default_rng(41)
    t = rng.uniform(1e-9, 1.0, 300)
    data = random_design_transform(t, np.full(300, 2.75), 5)
    assert data.coefficients[-1][0] == pytest.approx(2.75, rel=1e-14)
    for j in range(0, 6):
        assert np.max(np.abs(data.coefficients[j])) < 1e-12


def test_empty_child_cells_are_flagged_unusable():
    t = np.linspace(0.01, 0.5, 40)  # all in the left half
    y = np.ones(40)
    data = random_design_transform(t, y, 2)
    assert data.deltas[0][0] == 0
    assert data.coefficients[0][0] == 0.0
    assert data.effective[0] == 0
    # right-half cells at finer levels are empty too
    assert data.counts[1][1] == 0


def test_contrast_conditional_variance_is_one_over_n():
    pooled = []
    for r in range(60):
        rng = np.random.default_rng(5000 + r)
        t = rng.uniform(0.0, 1.0, 4096)
        t = np.where(t == 0.0, 1.0, t)
        y = rng.standard_normal(4096)
        data = random_design_transform(t, y, 7)
        pooled.append(data.coefficients[7][data.deltas[7] == 1])
    pooled = np.concatenate(pooled)
    assert abs(float(np.var(pooled)) * 4096 - 1.0) <= 0.06


def test_mean_preserving_within_cell_perturbation_is_invisible():
    rng = np.random.default_rng(43)
    j_max = 3
    # two points in the same finest cell (level j_max + 1)
    t = np.array([0.011, 0.014, 0.3, 0.52, 0.77, 0.95])
    y = rng.standard_normal(6)
    base = random_design_transform(t, y, j_max)
    y2 = y.copy()
    y2[0] += 0.8
    y2[1] -= 0.8
    bumped = random_design_transform(t, y2, j_max)
    for j in range(-1, j_max + 1):
        assert float(np.max(np.abs(base.coefficients[j] - bumped.coefficients[j]))) < 1e-12


def test_transform_validation():
    with pytest.raises(ValueError):
        random_design_transform([], [], 2)
    with pytest.raises(ValueError):
        random_design_transform([0.0, 0.5], [1.0, 2.0], 2)  # 0 excluded
    with pytest.raises(ValueError):
        random_design_transform([0.5, 1.2], [1.0, 2.0], 2)
    with pytest.raises(ValueError):
        random_design_transform([0.5], [1.0, 2.0], 2)
    with pytest.raises(ValueError):
        random_design_transform([0.5, np.nan], [1.0, 2.0], 2)
    with pytest.raises(ValueError):
        random_design_transform([0.5], [1.0], -1)


def test_noiseless_estimate_recovers_constant_exactly():
    rng = np.random.default_rng(900)
    t = rng.uniform(1e-12, 1.0, 500)
    y = np.full(500, 2.75)
    data = random_design_transform(t, y, 6)
    cells, report = random_design_estimate(data, sigma=0.0)
    assert cells.size == 128
    assert np.array_equal(cells, np.full(128, 2.75))
    assert report.epsilon == 0.0


def fstep(t):
    return np.select([t <= 0.3, t <= 0.6, t <= 0.8], [2.0, -1.0, 3.0], default=0.5)


def test_step_trend_error_shrinks_with_sample_size():
    mises = []
    for n, j_max in [(1024, 6), (4096, 8), (16384, 10)]:
        errs = []
        for r in range(12):
            rng = np.random.default_rng(9000 + 100 * j_max + r)
            t = rng.uniform(0.0, 1.0, n)
            t = np.where(t == 0.0, 1.0, t)
            y = fstep(t) + rng.standard_normal(n)
            data = random_design_transform(t, y, j_max)
            cells, _ = random_design_estimate(data, sigma=1.0)
            mids = (np.arange(cells.size) + 0.5) / cells.size
            errs.append(float(np.mean((cells - fstep(mids)) ** 2)))
        mises.append(sum(errs) / len(errs))
    assert mises[0] > mises[1] > mises[2]
    assert mises[2] < 0.05


def test_estimate_rejects_negative_sigma():
    data = random_design_transform([0.2, 0.7], [1.0, -1.0], 0)
    with pytest.raises(ValueError):
        random_design_estimate(data, sigma=-0.5)
