"""Orthonormal periodic wavelet transforms and regression pipelines.

The analysis convention: for a signal of length N = 2^(J+1) the transform
returns levels j = -1, 0, ..., J (sizes 1, 1, 2, ..., 2^J) scaled by
1/sqrt(N), so that i.i.d. N(0, sigma^2) observation noise becomes i.i.d.
N(0, sigma^2/N) coefficient noise and

    sum_jk y_jk^2 = sum_i Y_i^2 / N.

Levels are dictionaries {j: array}; the single coarsest coefficient is
y[-1][0], written (j, k) = (-1, 1) in 1-based text output.

Each level is one polyphase step of Mallat's pyramid, written as strided
slices with no index arrays.  Analysis extends the signal periodically and
reads tap i of the filters from the slice ext[i : i + m : 2], adding the
taps' products left to right in filter order.  Synthesis is its transpose:
tap i adds a[k] h[i] + d[k] g[i] onto an extended output at 2k + i, taps
in order, and the tail past the level's end is folded back onto its start.
Both orders are plain IEEE additions fixed by the filter length alone, so
the bits depend on nothing but the arithmetic, at every level size,
including levels shorter than the filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import TuningConfig
from .errors import NumericFailure
from .sequence import BlockedSequence, dyadic_sequence, estimate_sequence

#: upper quartile of the standard normal, for MAD noise calibration; the
#: double statistics.NormalDist().inv_cdf(0.75) returns, written out so that
#: importing the package does not import statistics
Z_THREE_QUARTERS = 0.6744897501960817

_SQRT_3 = math.sqrt(3.0)
_SQRT_2 = math.sqrt(2.0)

# scaling (low-pass) analysis filters, each with sum h = sqrt 2, sum h^2 = 1;
# "s8" is the 8-tap least-asymmetric family member
_FILTERS = {
    "haar": np.array([1.0 / _SQRT_2, 1.0 / _SQRT_2]),
    "d4": np.array(
        [
            (1.0 + _SQRT_3) / (4.0 * _SQRT_2),
            (3.0 + _SQRT_3) / (4.0 * _SQRT_2),
            (3.0 - _SQRT_3) / (4.0 * _SQRT_2),
            (1.0 - _SQRT_3) / (4.0 * _SQRT_2),
        ]
    ),
    "s8": np.array(
        [
            -0.07576571478927333,
            -0.02963552764599851,
            0.49761866763201545,
            0.8037387518059161,
            0.29785779560527736,
            -0.09921954357684722,
            -0.012603967262037833,
            0.03222310060404270,
        ]
    ),
}


@dataclass(frozen=True, eq=False)
class WaveletBasis:
    """Orthonormal two-channel filter bank with periodic boundary."""

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray

    def __post_init__(self):
        h = np.array(self.lowpass, dtype=float)  # a copy: the caller's arrays stay writable
        g = np.array(self.highpass, dtype=float)
        if h.size % 2 or h.size < 2 or g.size != h.size:
            raise ValueError("filters must share an even length >= 2")
        if abs(float(h @ h) - 1.0) > 1e-12:
            raise ValueError(f"lowpass filter of {self.name!r} is not unit-norm")
        for shift in range(2, h.size, 2):
            if abs(float(h[:-shift] @ h[shift:])) > 1e-12:
                raise ValueError(
                    f"lowpass filter of {self.name!r} fails double-shift orthogonality"
                )
        h.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "lowpass", h)
        object.__setattr__(self, "highpass", g)


def wavelet_basis(name) -> WaveletBasis:
    """Look up one of the built-in bases: haar, d4, s8."""
    try:
        h = _FILTERS[name]
    except KeyError:
        raise ValueError(f"unknown wavelet basis {name!r}; choose from {sorted(_FILTERS)}")
    g = ((-1.0) ** np.arange(h.size)) * h[::-1]
    return WaveletBasis(name=name, lowpass=h, highpass=g)


def _periodic(x, length):
    """``x`` repeated periodically to ``length`` values."""
    whole, part = divmod(length, x.size)
    return np.concatenate((x,) * whole + (x[:part],))


def _analysis_step(x, basis):
    """One level of analysis: approximation and detail of the length-m
    signal ``x``, each of m/2 values."""
    m = x.size
    taps = basis.lowpass.size
    ext = _periodic(x, m + taps - 2)
    bank = np.stack([basis.lowpass, basis.highpass])[:, :, None]
    # row 0 lowpass, row 1 highpass; tap i reads x[2k + i mod m] for each k.
    # Multiply, then sum: fused multiply-adds would leave rounding residue
    # where the two-tap bank cancels a constant exactly
    sums = bank[:, 0] * ext[0:m:2]
    for i in range(1, taps):
        sums += bank[:, i] * ext[i : i + m : 2]
    sums += 0.0  # as a sum started from +0.0 would, so no sum is -0.0
    return sums[0], sums[1]


def _synthesis_step(approx, detail, basis):
    """One level of synthesis: the length-2M signal whose analysis gives the
    M-value ``approx`` and ``detail``, as the transpose of
    :func:`_analysis_step`.  Tap i adds a[k] h[i] + d[k] g[i] onto the
    extended output at 2k + i, taps in order; the tail past 2M is then
    folded back onto the start, one 2M-chunk at a time, as the analysis's
    periodic extension read it."""
    m = 2 * approx.size
    taps = basis.lowpass.size
    ext = np.zeros(m + taps - 2)
    for i in range(taps):
        ext[i : i + m : 2] += basis.lowpass[i] * approx + basis.highpass[i] * detail
    out = ext[:m].copy()
    for start in range(m, ext.size, m):
        tail = ext[start : start + m]
        out[: tail.size] += tail
    return out


def _check_dyadic_length(n) -> int:
    if n < 2 or n & (n - 1):
        raise ValueError(
            f"signal length must be a power of two of at least 2, got {n}"
        )
    return int(math.log2(n)) - 1  # J


def dwt(signal, basis: WaveletBasis):
    """Full periodic analysis of a length-2^(J+1) signal.

    Returns {j: coefficients} for j = -1 .. J under the 1/sqrt(N)
    normalization described in the module docstring.
    """
    x = np.asarray(signal, dtype=float).ravel()
    j_max = _check_dyadic_length(x.size)
    if not np.all(np.isfinite(x)):
        raise ValueError("signal must be finite")
    scale = 1.0 / math.sqrt(x.size)
    levels = {}
    approx = x
    j = j_max
    while approx.size > 1:
        approx, detail = _analysis_step(approx, basis)
        levels[j] = scale * detail
        j -= 1
    levels[-1] = scale * approx
    return dict(sorted(levels.items()))


def idwt(levels, basis: WaveletBasis):
    """Inverse of :func:`dwt`; accepts the same {j: array} layout."""
    levels = {int(j): np.asarray(v, dtype=float).ravel() for j, v in dict(levels).items()}
    js = sorted(levels)
    if js[0] != -1 or levels[-1].size != 1:
        raise ValueError("levels must start at j = -1 with a single coefficient")
    n_total = sum(v.size for v in levels.values())
    _check_dyadic_length(n_total)
    approx = levels[-1].copy()
    for j in js[1:]:
        detail = levels[j]
        if detail.size != approx.size:
            raise ValueError(f"level {j} has size {detail.size}, expected {approx.size}")
        approx = _synthesis_step(approx, detail, basis)
    return approx * math.sqrt(n_total)


def mad_sigma(finest, n_signal) -> float:
    """Median-absolute-deviation noise scale from the finest-level details.

    sqrt(N) median(|y_Jk|) / z_{0.75}; an even count takes the midpoint of
    the central order statistics.  All-zero input gives 0.
    """
    y = np.asarray(finest, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("need at least one finest-level coefficient")
    n_signal = int(n_signal)
    if n_signal < 1:
        raise ValueError("signal length must be positive")
    return math.sqrt(n_signal) * float(_median(np.abs(y))) / Z_THREE_QUARTERS


def _median(a):
    """``np.median`` of a nonempty 1-D float array, bit for bit.

    The same partition and mean of the central one or two order statistics,
    with the last position partitioned too: a NaN sorts there, and the
    median is then that NaN.  ``np.median`` makes that check through
    ``numpy.ma``, whose import would cost a cold process more than the
    median itself.
    """
    half = a.size // 2
    central = [half - 1, half] if a.size % 2 == 0 else [half]
    part = np.partition(a, central + [-1])
    if np.isnan(part[-1]):
        return part[-1]
    return np.mean(part[central[0] : half + 1])


@dataclass(frozen=True)
class EquispacedReport:
    """Noise calibration and per-level branch diagnostics of a denoise run."""

    sigma_hat: float
    epsilon: float
    levels: tuple
    fits: tuple


def denoise_equispaced(observations, basis: WaveletBasis, cfg: TuningConfig = TuningConfig(), sigma=None):
    """Shrink an equispaced noisy signal in the given wavelet basis.

    Analyzes, calibrates the noise scale (MAD on the finest level unless
    ``sigma`` is given), runs the blockwise hybrid estimator on the dyadic
    level structure, and synthesizes.  Returns ``(estimate, report)``.  A
    zero noise scale short-circuits: the observations are returned as the
    estimate.
    """
    y = np.asarray(observations, dtype=float).ravel()
    levels = dwt(y, basis)
    j_max = max(levels)
    n = y.size
    sigma_hat = mad_sigma(levels[j_max], n) if sigma is None else float(sigma)
    if sigma_hat < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma_hat}")
    if sigma_hat == 0.0:
        return y.copy(), EquispacedReport(sigma_hat=0.0, epsilon=0.0, levels=(), fits=())
    epsilon = sigma_hat / math.sqrt(n)
    seq = dyadic_sequence(epsilon, levels)
    estimates, fits = estimate_sequence(seq, cfg)
    shrunk = {j: est for (j, _), est in zip(seq.blocks, estimates)}
    f_hat = idwt(shrunk, basis)
    return f_hat, EquispacedReport(
        sigma_hat=sigma_hat,
        epsilon=epsilon,
        levels=tuple(j for j, _ in seq.blocks),
        fits=tuple(fits),
    )


# ---------------------------------------------------------------------------
# random-design regression


@dataclass(frozen=True, eq=False)
class RandomDesignData:
    """Standardized Haar contrasts of responses at random design points.

    counts[j][k-1]   number of design points in cell ((k-1)/2^j, k/2^j],
                     for j = 0 .. J+1
    deltas[j]        1 where both children of cell (j, k) are nonempty
                     (always 1 at j = -1), else 0
    coefficients[j]  the standardized contrast where delta is 1, else 0;
                     each has conditional noise variance sigma^2 / N
    effective[j]     number of usable coefficients at level j
    n_points         number of design points N
    """

    counts: dict
    deltas: dict
    coefficients: dict
    effective: dict
    n_points: int


def random_design_transform(t, y, j_max) -> RandomDesignData:
    """Cell counts, indicators and standardized contrasts up to level ``j_max``.

    Finite responses whose cell sums or contrasts overflow raise
    NumericFailure naming the first such level.
    """
    t = np.asarray(t, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if t.size == 0:
        raise ValueError("need at least one design point")
    if t.shape != y.shape:
        raise ValueError("design points and responses must have equal length")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("inputs must be finite")
    if np.any(t <= 0.0) or np.any(t > 1.0):
        raise ValueError("design points must lie in (0, 1]")
    j_max = int(j_max)
    if j_max < 0:
        raise ValueError(f"j_max must be nonnegative, got {j_max}")
    n = t.size

    counts = {}
    sums = {}
    for j in range(0, j_max + 2):
        cells = 2**j
        k = np.ceil(t * cells).astype(int)  # 1-based cell index, right-closed cells
        np.clip(k, 1, cells, out=k)
        counts[j] = np.bincount(k - 1, minlength=cells)
        sums[j] = np.bincount(k - 1, weights=y, minlength=cells)

    means = {
        j: np.divide(sums[j], counts[j], out=np.zeros(counts[j].size), where=counts[j] > 0)
        for j in counts
    }

    deltas = {-1: np.array([1], dtype=int)}
    coefficients = {-1: np.array([means[0][0]])}
    effective = {-1: 1}
    root_n = math.sqrt(n)
    for j in range(0, j_max + 1):
        left_n = counts[j + 1][0::2]
        right_n = counts[j + 1][1::2]
        usable = (left_n > 0) & (right_n > 0)
        delta = usable.astype(int)
        coef = np.zeros(delta.size)
        if np.any(usable):
            # cell means that overflowed to inf, or whose difference
            # overflows, are reported once below, not as numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                diff = means[j + 1][0::2][usable] - means[j + 1][1::2][usable]
            spread = np.sqrt(1.0 / left_n[usable] + 1.0 / right_n[usable])
            coef[usable] = diff / (root_n * spread)
        deltas[j] = delta
        coefficients[j] = coef
        effective[j] = int(delta.sum())
    for j, coef in coefficients.items():
        if not np.all(np.isfinite(coef)):
            raise NumericFailure(
                f"level {j} overflows: the responses' cell sums or contrasts exceed the float range"
            )

    return RandomDesignData(
        counts=counts,
        deltas=deltas,
        coefficients=coefficients,
        effective=effective,
        n_points=n,
    )


def _unbalanced_inverse(data: RandomDesignData, coefficients):
    """Finest-cell values from standardized contrasts {j: array}, j = -1 .. J,
    in the unbalanced Haar basis of ``data``'s design: the inverse of
    :func:`random_design_transform`, top-down.

    A cell of value m whose children hold n_L and n_R points takes the
    children's difference d = coef sqrt(N) sqrt(1/n_L + 1/n_R) where both are
    nonempty, else 0, and gives them m_L = m + n_R d / (n_L + n_R) and
    m_R = m - n_L d / (n_L + n_R), whose count-weighted mean is m.  So the
    raw contrasts return each nonempty finest cell's data mean, and an empty
    cell takes its parent's value.
    """
    root_n = math.sqrt(data.n_points)
    cells = np.array(coefficients[-1], dtype=float)
    for j in range(0, len(coefficients) - 1):
        left_n = data.counts[j + 1][0::2]
        right_n = data.counts[j + 1][1::2]
        usable = data.deltas[j] == 1
        diff = np.zeros(cells.size)
        diff[usable] = (
            coefficients[j][usable] * root_n * np.sqrt(1.0 / left_n[usable] + 1.0 / right_n[usable])
        )
        total = np.maximum(left_n + right_n, 1)  # an empty cell has diff 0
        out = np.empty(2 * cells.size)
        out[0::2] = cells + diff * (right_n / total)
        out[1::2] = cells - diff * (left_n / total)
        cells = out
    return cells


@dataclass(frozen=True)
class RandomDesignReport:
    """Per-level diagnostics of a random-design fit."""

    epsilon: float
    levels: tuple
    fits: tuple
    effective: tuple


def random_design_estimate(data: RandomDesignData, cfg: TuningConfig = TuningConfig(), *, sigma):
    """Estimate the regression function from standardized Haar contrasts.

    ``sigma``, the noise level of the responses, is a required keyword: no
    value suits every design, and a silent default of 1 inflated the
    integrated squared error 1.3-5.6 times on the test signals, whose noise
    levels are 0.04-0.42.  Where the usability indicator is zero the
    coefficient estimate is zero.  Each level's usable coefficients form
    one block of a :class:`sequence.BlockedSequence`, estimated by
    :func:`sequence.estimate_sequence` with the hybrid estimator; levels
    with none are skipped and report no fit.  ``sigma = 0`` short-circuits
    to the identity on the raw contrasts.  A block that overflows when
    standardized raises NumericFailure.  Returns
    ``(cell_values, report)`` where ``cell_values`` is the estimated
    function on the 2^(J+1) finest dyadic cells.
    """
    sigma = float(sigma)
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    levels = sorted(data.coefficients)
    effective = tuple(data.effective[j] for j in levels)
    if sigma == 0.0:
        cells = _unbalanced_inverse(data, data.coefficients)
        return cells, RandomDesignReport(epsilon=0.0, levels=tuple(levels), fits=(), effective=effective)
    epsilon = sigma / math.sqrt(data.n_points)
    masks = {j: data.deltas[j] == 1 for j in levels}
    used = [j for j in levels if masks[j].any()]
    # BlockedSequence also rejects a subnormal sigma that rounds sigma / sqrt(n) to 0
    seq = BlockedSequence(epsilon, tuple((j, data.coefficients[j][masks[j]]) for j in used))
    shrunk, block_fits = estimate_sequence(seq, cfg)
    estimates = {j: np.zeros(data.coefficients[j].size) for j in levels}
    for j, beta_hat in zip(used, shrunk):
        estimates[j][masks[j]] = beta_hat
    fits = dict(zip(used, block_fits))
    return _unbalanced_inverse(data, estimates), RandomDesignReport(
        epsilon=epsilon, levels=tuple(levels), fits=tuple(fits.get(j) for j in levels), effective=effective
    )
