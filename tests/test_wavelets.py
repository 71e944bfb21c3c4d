"""Filter banks, noise calibration, and the two regression front ends."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from gebshrink.blocks import TuningConfig
from gebshrink.errors import NumericFailure
from gebshrink.signals import SIGNAL_NAMES
from gebshrink.signals import test_signal as make_signal
from gebshrink.wavelets import (
    Z_THREE_QUARTERS,
    WaveletBasis,
    _median,
    denoise_equispaced,
    dwt,
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


# ------------------------------------------------- polyphase bit identity
#
# Two pairs of reference steps, both over index arrays.  The filter-order
# references add the taps left to right, and scatter them tap by tap at the
# unwrapped indices before folding the periodic tail back; dwt and idwt must
# give their bits exactly for every bank.  The window-matrix sum and
# np.add.at scatter are the transforms before the polyphase steps; haar and
# d4 keep their bits too, since np.sum adds fewer than 8 terms left to right
# and their synthesis outputs take at most two terms, which commute.


def _reference_windows(m, taps):
    k = np.arange(m // 2)[:, None]
    i = np.arange(taps)[None, :]
    return (2 * k + i) % m


def _reference_dwt(signal, basis):
    x = np.asarray(signal, dtype=float)
    scale = 1.0 / math.sqrt(x.size)
    levels, approx, j = {}, x, int(math.log2(x.size)) - 1
    while approx.size > 1:
        windows = approx[_reference_windows(approx.size, basis.lowpass.size)]
        approx, detail = (windows * basis.lowpass).sum(axis=1), (windows * basis.highpass).sum(axis=1)
        levels[j] = scale * detail
        j -= 1
    levels[-1] = scale * approx
    return levels


def _reference_idwt(levels, basis):
    approx = levels[-1].copy()
    for j in range(0, max(levels) + 1):
        detail = levels[j]
        out = np.zeros(2 * approx.size)
        contrib = approx[:, None] * basis.lowpass[None, :] + detail[:, None] * basis.highpass[None, :]
        np.add.at(out, _reference_windows(out.size, basis.lowpass.size), contrib)
        approx = out
    return approx * math.sqrt(sum(v.size for v in levels.values()))


def _filter_order_dwt(signal, basis):
    x = np.asarray(signal, dtype=float)
    scale = 1.0 / math.sqrt(x.size)
    levels, approx, j = {}, x, int(math.log2(x.size)) - 1
    while approx.size > 1:
        windows = approx[_reference_windows(approx.size, basis.lowpass.size)]
        sums = []
        for filt in (basis.lowpass, basis.highpass):
            products = windows * filt
            total = products[:, 0].copy()
            for i in range(1, filt.size):
                total += products[:, i]
            sums.append(total + 0.0)
        approx, detail = sums
        levels[j] = scale * detail
        j -= 1
    levels[-1] = scale * approx
    return levels


def _filter_order_idwt(levels, basis):
    approx = levels[-1].copy()
    taps = basis.lowpass.size
    for j in range(0, max(levels) + 1):
        detail = levels[j]
        m = 2 * approx.size
        ext = np.zeros(m + taps - 2)
        k = np.arange(approx.size)
        for i in range(taps):
            np.add.at(ext, 2 * k + i, approx * basis.lowpass[i] + detail * basis.highpass[i])
        out = np.zeros(m)
        np.add.at(out, np.arange(ext.size) % m, ext)
        approx = out
    return approx * math.sqrt(sum(v.size for v in levels.values()))


def _daubechies(vanishing):
    """The 2 * vanishing-tap orthonormal Daubechies scaling filter, by
    spectral factorization: the minimum-phase roots of its half-band
    polynomial, then ``vanishing`` zeros at z = -1."""
    p = [math.comb(vanishing - 1 + k, k) for k in range(vanishing)]  # in y = (2 - z - 1/z) / 4
    roots = []
    for y in np.roots(p[::-1]):
        pair = np.roots([1.0, 4.0 * y - 2.0, 1.0])  # z + 1/z = 2 - 4y
        roots.append(pair[np.argmin(np.abs(pair))])
    h = np.real(np.poly(roots))
    for _ in range(vanishing):
        h = np.convolve(h, [1.0, 1.0])
    h *= math.sqrt(2.0) / h.sum()
    return WaveletBasis(f"d{h.size}", h, (-1.0) ** np.arange(h.size) * h[::-1])


# WaveletBasis checks unit norm and double-shift orthogonality to 1e-12
D12 = _daubechies(6)
BIT_BASES = {**{name: wavelet_basis(name) for name in BASES}, "d12": D12}


def _assert_same_bits(x, basis, reference_dwt=_filter_order_dwt, reference_idwt=_filter_order_idwt):
    levels = dwt(x, basis)
    want = reference_dwt(x, basis)
    assert sorted(levels) == sorted(want)
    for j in want:
        assert levels[j].tobytes() == want[j].tobytes(), j
    assert idwt(levels, basis).tobytes() == reference_idwt(want, basis).tobytes()
    # idwt of coefficients that are no analysis's output
    raw = {-1: x[:1], **{j: x[2**j : 2 ** (j + 1)] for j in range(int(math.log2(x.size)))}}
    assert idwt(raw, basis).tobytes() == reference_idwt(raw, basis).tobytes()


def _drawn_signal(rng, n, kind):
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "wide":  # normals, subnormals and magnitudes up to 1e300
        return rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n).astype(float)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300, 1.0, -3.5])
    return rng.choice(specials, n)


def test_basis_leaves_the_callers_filters_writable():
    h = np.array([1.0, 1.0]) / math.sqrt(2.0)
    g = np.array([1.0, -1.0]) / math.sqrt(2.0)
    basis = WaveletBasis("mine", h, g)
    h[0], g[0] = 0.5, 0.5
    assert basis.lowpass[0] == basis.highpass[0] == 1.0 / math.sqrt(2.0)
    for arr in (basis.lowpass, basis.highpass):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_daubechies_12_is_a_twelve_tap_orthonormal_bank():
    assert D12.lowpass.size == 12
    assert float(D12.lowpass.sum()) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    x = np.random.default_rng(8).standard_normal(256)
    assert float(np.max(np.abs(idwt(dwt(x, D12), D12) - x))) < 1e-10


@settings(max_examples=120, deadline=None)
@given(
    power=st.integers(1, 12),
    basis_name=st.sampled_from(sorted(BIT_BASES)),
    kind=st.sampled_from(("normal", "wide", "specials")),
    seed=st.integers(0, 2**32 - 1),
)
def test_polyphase_steps_match_the_gather_and_scatter_bit_for_bit(power, basis_name, kind, seed):
    x = _drawn_signal(np.random.default_rng(seed), 2**power, kind)
    _assert_same_bits(x, BIT_BASES[basis_name])


@pytest.mark.parametrize("basis_name", sorted(BIT_BASES))
@pytest.mark.parametrize("kind", ["specials", "zeros"])
def test_polyphase_steps_keep_signed_zeros_and_subnormals(basis_name, kind):
    # every length up to 2^8, each level shorter than the 12-tap filter included
    for power in range(1, 9):
        n = 2**power
        if kind == "zeros":
            x = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)
        else:
            x = _drawn_signal(np.random.default_rng(power), n, kind)
        _assert_same_bits(x, BIT_BASES[basis_name])


@pytest.mark.parametrize("name", SIGNAL_NAMES)
def test_polyphase_steps_match_on_the_benchmark_signals(name):
    samples, sigma = make_signal(name, 2**16, 7.0)
    y = samples + sigma * np.random.default_rng(1).standard_normal(samples.size)
    for basis in BIT_BASES.values():
        _assert_same_bits(y, basis)


@settings(max_examples=60, deadline=None)
@given(
    power=st.integers(1, 12),
    basis_name=st.sampled_from(("haar", "d4")),
    kind=st.sampled_from(("normal", "wide", "specials")),
    seed=st.integers(0, 2**32 - 1),
)
def test_short_filters_keep_the_gather_and_scatter_bits(power, basis_name, kind, seed):
    x = _drawn_signal(np.random.default_rng(seed), 2**power, kind)
    _assert_same_bits(x, BIT_BASES[basis_name], _reference_dwt, _reference_idwt)


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


def test_upper_quartile_is_the_statistics_double():
    assert Z_THREE_QUARTERS == statistics.NormalDist().inv_cdf(0.75)


# ties, zeros of both signs, and magnitudes up to the largest double
_MEDIAN_INPUT = st.lists(
    st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324]),
    ),
    min_size=1,
    max_size=300,
)


@settings(max_examples=300, deadline=None)
@given(values=_MEDIAN_INPUT, nan=st.booleans())
def test_median_is_np_median_bit_for_bit(values, nan):
    a = np.array(values + [math.nan] * nan)
    with np.errstate(over="ignore", invalid="ignore"):  # the two central values may sum past the largest double
        got, want = _median(a.copy()), np.median(a)
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


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


@settings(max_examples=24, deadline=None)
@given(
    name=st.sampled_from(SIGNAL_NAMES),
    basis_name=st.sampled_from(BASES),
    n=st.sampled_from((256, 1024, 2048)),
    seed=st.integers(0, 2**32 - 1),
    given_sigma=st.booleans(),
)
def test_denoise_is_odd(name, basis_name, n, seed, given_sigma):
    samples, sigma = make_signal(name, n, 7.0)
    y = samples + sigma * np.random.default_rng(seed).standard_normal(n)
    basis = wavelet_basis(basis_name)
    known = sigma if given_sigma else None

    # at the default schedule every block is odd to the bit: the transforms
    # negate exactly and so does soft thresholding
    base, report = denoise_equispaced(y, basis, sigma=known)
    flipped, flipped_report = denoise_equispaced(-y, basis, sigma=known)
    assert np.array_equal(flipped, -base)
    assert flipped_report.sigma_hat == report.sigma_hat
    assert [fit.branch for fit in flipped_report.fits] == [fit.branch for fit in report.fits]

    # where blocks take the geb branch, kappa_hat and the density estimate
    # add their sorted values in reverse order: equal to rounding
    cfg = TuningConfig(b0=0.25)
    base, report = denoise_equispaced(y, basis, cfg, sigma=known)
    flipped, flipped_report = denoise_equispaced(-y, basis, cfg, sigma=known)
    assert float(np.max(np.abs(flipped + base))) <= 1e-12
    assert [fit.branch for fit in flipped_report.fits] == [fit.branch for fit in report.fits]


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
    # +1 on the left half, -1 on the right: one level-0 detail of 1
    levels = {j: np.zeros(2 ** max(j, 0)) for j in range(-1, 4)}
    levels[0][0] = 1.0
    back = idwt(levels, wavelet_basis("haar"))
    np.testing.assert_allclose(back, np.array([1.0] * 8 + [-1.0] * 8), rtol=0.0, atol=1e-14)


def test_haar_constant_is_coarse_only():
    levels = {j: np.zeros(2 ** max(j, 0)) for j in range(-1, 5)}
    levels[-1][0] = -2.5
    np.testing.assert_allclose(idwt(levels, wavelet_basis("haar")), np.full(32, -2.5), rtol=0.0, atol=1e-14)


def test_haar_roundtrip():
    # idwt inverts dwt's Haar analysis of equispaced cell values
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = 2 ** int(rng.integers(1, 10))
        v = rng.standard_normal(n) * 3.0
        back = idwt(dwt(v, wavelet_basis("haar")), wavelet_basis("haar"))
        assert float(np.max(np.abs(back - v))) < 1e-12


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


@pytest.mark.parametrize(
    "t, y, level",
    [
        (np.linspace(0.1, 1.0, 6), [1.5e308] * 6, -1),  # the root cell's sum overflows
        ([0.25, 0.75], [1.5e308, -1.5e308], 0),  # finite cell means, their contrast overflows
    ],
)
def test_transform_overflow_names_the_level(t, y, level, recwarn):
    with pytest.raises(NumericFailure, match=rf"^level {level} overflows"):
        random_design_transform(t, y, 1)
    assert [str(w.message) for w in recwarn] == []


def test_noiseless_estimate_recovers_constant_exactly():
    rng = np.random.default_rng(900)
    t = rng.uniform(1e-12, 1.0, 500)
    y = np.full(500, 2.75)
    data = random_design_transform(t, y, 6)
    cells, report = random_design_estimate(data, sigma=0.0)
    assert cells.size == 128
    assert np.array_equal(cells, np.full(128, 2.75))
    assert report.epsilon == 0.0


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 600),
    j_max=st.integers(0, 9),
    span=st.sampled_from([1.0, 0.3]),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_noiseless_estimate_returns_each_nonempty_cells_mean(n, j_max, span, scale, seed):
    # the unbalanced Haar inverse of the design; span 0.3 leaves cells empty
    rng = np.random.default_rng(seed)
    t = 1.0 - span * rng.uniform(0.0, 1.0, n)  # in (1 - span, 1]
    y = scale * (t + rng.standard_normal(n))
    data = random_design_transform(t, y, j_max)
    cells, _ = random_design_estimate(data, sigma=0.0)
    counts = data.counts[j_max + 1]
    cell = np.clip(np.ceil(t * counts.size).astype(int), 1, counts.size) - 1
    nonempty = counts > 0
    means = np.bincount(cell, weights=y, minlength=counts.size)[nonempty] / counts[nonempty]
    np.testing.assert_allclose(cells[nonempty], means, rtol=1e-12, atol=1e-12 * float(np.abs(y).max()))


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


def test_estimate_requires_sigma():
    data = random_design_transform([0.2, 0.7], [1.0, -1.0], 0)
    with pytest.raises(TypeError, match="sigma"):
        random_design_estimate(data)
    with pytest.raises(TypeError):
        random_design_estimate(data, TuningConfig(), 1.0)  # a keyword, not a third position


def test_estimate_rejects_negative_sigma():
    data = random_design_transform([0.2, 0.7], [1.0, -1.0], 0)
    with pytest.raises(ValueError):
        random_design_estimate(data, sigma=-0.5)


@pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan])
def test_estimate_rejects_non_finite_sigma(sigma):
    data = random_design_transform([0.2, 0.7], [1.0, -1.0], 0)
    with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
        random_design_estimate(data, sigma=sigma)


# the values of the denoise --sigma fuzzer in test_cli.py, with what each must give
_SIGMAS = {
    math.inf: (ValueError, "sigma must be nonnegative and finite"),
    -math.inf: (ValueError, "sigma must be nonnegative and finite"),
    math.nan: (ValueError, "sigma must be nonnegative and finite"),
    -1.0: (ValueError, "sigma must be nonnegative and finite"),
    5e-324: (ValueError, "epsilon must be positive and finite, got 0.0"),  # 5e-324 / 16 rounds to 0
    1e-320: (NumericFailure, r"block -?\d+ overflows when standardized by epsilon"),
    0.0: None,
    1e308: None,
}


@pytest.mark.parametrize("sigma", list(_SIGMAS), ids=[repr(s) for s in _SIGMAS])
def test_random_design_extreme_sigma_fails_cleanly_or_is_finite(sigma, recwarn):
    rng = np.random.default_rng(3)
    t = rng.uniform(1e-9, 1.0, 256)
    data = random_design_transform(t, np.sin(6.0 * t) + 0.3 * rng.standard_normal(256), 4)
    if _SIGMAS[sigma] is None:
        cells, _ = random_design_estimate(data, sigma=sigma)
        assert np.all(np.isfinite(cells))
    else:
        error, message = _SIGMAS[sigma]
        with pytest.raises(error, match=message):
            random_design_estimate(data, sigma=sigma)
    assert [str(w.message) for w in recwarn] == []
