"""Sinc-kernel density estimation with a sample-size-driven bandwidth.

The kernel is K(u) = sin(u) / (pi u), whose Fourier transform is the
indicator of [-1, 1].  With bandwidth a = sqrt(2 log n) the estimate

    f_hat(x) = (1/n) sum_k a K(a (x - X_k))

equals the inverse Fourier transform of the empirical characteristic
function truncated to frequencies |u| <= a.  Both forms are implemented:
``direct`` (the reference) sums the kernel, O(n) per point; ``fourier``
applies a Gauss-Legendre rule (16 nodes on each of an even number P of
uniform panels of half-width h = a / P) to the truncated inversion
integral.  The samples are real, so psi(-u) = conj psi(u), and the even
panel layout is mirror-symmetric about 0; hence

    f_hat(x) = (1/pi) Re sum_{u > 0} w psi(u) exp(-i u x),

and f_hat'(x) is the same sum with an extra factor -i u.  Only the P/2
positive panels are built.  Node i of positive panel p sits at
u = c_i + 2 p h with c_i = h (1 + nu_i), so

    exp(i u X) = exp(i c_i X) * z^p,    z = exp(2 i h X).

The empirical spectrum is therefore a running product over P/2 panels,
and evaluation is a Horner recurrence in exp(-2 i h x) followed by the 16
node phases: 17 exponentials per sample or point instead of one per node,
each built by ``_cis`` from one cos and one sin rather than a complex exp,
and O(16 * chunk) working memory whatever the node count.  The routes agree
to 1e-8 (a test contract); ``kde_fit`` picks the cheaper at its n samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EVAL_CHUNK = 1024
_SAMPLE_CHUNK = 4096
_DIRECT_PAIRS = 2**15  # (point, sample) pairs per direct-route chunk
_NODES16, _WEIGHTS16 = np.polynomial.legendre.leggauss(16)  # about 0.5 ms, so once

# route costs in ns (2-core Xeon): per (sample, point); fourier per (node, sample
# or point), per panel step of a chunk, and fixed
_DIRECT_NS, _FOURIER_NS, _PANEL_NS, _FOURIER_FIXED_NS = 60.0, 4.7, 3e3, 2.2e5


def _kernel(u):
    # K(u) = sin(u)/(pi u) with K(0) = 1/pi; np.sinc handles the origin.
    return np.sinc(u / np.pi) / np.pi


def _kernel_deriv(u):
    """K'(u) = (u cos u - sin u) / (pi u^2), K'(0) = 0."""
    out = np.empty_like(u)
    small = np.abs(u) < 1e-4
    us = u[small]
    # series: (u cos u - sin u)/u^2 = -u/3 + u^3/30 - ...
    out[small] = (-us / 3.0 + us**3 / 30.0) / np.pi
    ub = u[~small]
    out[~small] = (ub * np.cos(ub) - np.sin(ub)) / (np.pi * ub * ub)
    return out


@dataclass(frozen=True, eq=False)
class KernelDensityEstimate:
    """Fitted sinc-kernel density.

    ``samples`` are stored sorted so that evaluation is invariant, bit for
    bit, under permutations of the input.  ``bandwidth`` is always
    sqrt(2 log n); it is recorded rather than recomputed so downstream
    code can read it off; ``mode`` is the route ``kde_fit`` chose.
    """

    samples: np.ndarray
    bandwidth: float
    mode: str

    @property
    def n(self) -> int:
        return self.samples.size


def kde_fit(values):
    """Fit the sinc-kernel density to at least three finite ``values``."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size < 3:
        raise ValueError(f"need at least 3 samples to fit, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    samples = np.sort(x)
    samples.setflags(write=False)
    a = math.sqrt(2.0 * math.log(x.size))
    mode = _route(a, x.size, x.size, float(samples[-1] - samples[0]))
    return KernelDensityEstimate(samples=samples, bandwidth=a, mode=mode)


def _route(a, n, points, reach):
    """The cheaper of n * points kernel terms and the fourier route: the
    nodes of its P/2 positive panels times (n + points), plus one Python
    step per panel for each chunk of samples or points, plus a fixed cost."""
    panels = _panel_count(a, reach) // 2
    steps = panels * (math.ceil(n / _SAMPLE_CHUNK) + math.ceil(points / _EVAL_CHUNK))
    fourier_ns = _FOURIER_NS * 16 * panels * (n + points) + _PANEL_NS * steps + _FOURIER_FIXED_NS
    return "direct" if _DIRECT_NS * n * points <= fourier_ns else "fourier"


def _panel_count(a, reach):
    """An even panel count P: 6*a*reach/pi + 128 nodes, rounded up to a multiple of 32."""
    return 2 * math.ceil((math.ceil(6.0 * a * max(reach, 1.0) / math.pi) + 128) / 32.0)


def _cis(theta):
    """exp(i theta) for real theta: one cos and one sin written into one complex array."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _frequency_rule(kde, reach):
    """The positive half of a Gauss-Legendre rule on [-a, a], plus the
    empirical spectrum there.

    ``reach`` bounds max |x - X_k| over the points to be evaluated; the
    node count scales with a * reach / pi (oscillations of the integrand)
    and stays above the 4*a*reach/pi + 64 floor of the accuracy contract.
    The P panels are mirror-symmetric about 0 and psi(-u) = conj psi(u),
    so only the P/2 panels on (0, a] are kept.  Returns ``(u, w, psi)``,
    each of shape (P/2, 16): nodes, weights and (1/n) sum_k exp(i u X_k).
    """
    a = kde.bandwidth
    panels = _panel_count(a, reach)
    half = panels // 2
    h = a / panels
    offsets = h + h * _NODES16
    u = offsets[None, :] + (2.0 * h) * np.arange(half)[:, None]
    w = np.broadcast_to(h * _WEIGHTS16, u.shape)
    # empirical characteristic function on the grid, chunked over samples:
    # cur holds exp(i (c_i + 2 p h) X) for panel p of the running product
    psi = np.zeros(u.shape, dtype=complex)
    for start in range(0, kde.n, _SAMPLE_CHUNK):
        part = kde.samples[start : start + _SAMPLE_CHUNK]
        cur = _cis(offsets[:, None] * part[None, :])
        z = _cis((2.0 * h) * part)
        psi[0] += cur.sum(axis=1)
        for p in range(1, half):
            cur *= z
            psi[p] += cur.sum(axis=1)
    psi /= kde.n
    return u, w, psi


def _eval_direct(kde, x):
    """The kernel sums, over chunks of at most ``_DIRECT_PAIRS`` pairs (or one
    point); rows are independent, so the chunking does not change a bit."""
    a = kde.bandwidth
    value = np.empty_like(x)
    deriv = np.empty_like(x)
    rows = max(1, _DIRECT_PAIRS // kde.n)
    for start in range(0, x.size, rows):
        stop = start + rows
        u = a * (x[start:stop, None] - kde.samples[None, :])
        value[start:stop] = a * _kernel(u).mean(axis=1)
        deriv[start:stop] = a * a * _kernel_deriv(u).mean(axis=1)
    return value, deriv


def _eval_fourier(kde, x):
    reach = float(x.max(initial=kde.samples[-1]) - x.min(initial=kde.samples[0]))
    u, w, psi = _frequency_rule(kde, reach)
    panels = u.shape[0]
    h = kde.bandwidth / (2 * panels)
    wpsi = w * psi
    # value and derivative coefficients side by side, one row per panel
    coef = np.concatenate([wpsi, wpsi * (-1j * u)], axis=1)
    offsets = u[0]  # c_i: the nodes of the first panel
    value = np.empty_like(x)
    deriv = np.empty_like(x)
    for start in range(0, x.size, _EVAL_CHUNK):
        stop = start + _EVAL_CHUNK
        part = x[start:stop]
        zeta = _cis((-2.0 * h) * part)[:, None]
        acc = np.tile(coef[-1], (part.size, 1))
        for p in range(panels - 2, -1, -1):
            acc *= zeta
            acc += coef[p]
        phase = _cis(-part[:, None] * offsets[None, :])
        # the negative half is the conjugate of the positive: 2 Re over u > 0
        value[start:stop] = np.einsum("ki,ki->k", acc[:, :16], phase).real / np.pi
        deriv[start:stop] = np.einsum("ki,ki->k", acc[:, 16:], phase).real / np.pi
    return value, deriv


def kde_eval(kde, points):
    """Evaluate the density estimate and its derivative.

    Returns ``(value, derivative)`` with the shape of ``points``.  Values
    may be negative: the sinc kernel is not a probability density and no
    clipping is applied here.
    """
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 0
    flat = pts.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("evaluation points must be finite")
    mode, lo, hi = kde.mode, flat.min(initial=kde.samples[0]), flat.max(initial=kde.samples[-1])
    if mode == "fourier" and hi - lo > kde.samples[-1] - kde.samples[0]:  # the fit priced the samples' span
        mode = _route(kde.bandwidth, kde.n, flat.size, float(hi - lo))
    value, deriv = (_eval_direct if mode == "direct" else _eval_fourier)(kde, flat)
    if scalar:
        return float(value[0]), float(deriv[0])
    return value.reshape(pts.shape), deriv.reshape(pts.shape)
