"""Sinc-kernel density estimation with a sample-size-driven bandwidth.

The kernel is K(u) = sin(u) / (pi u), whose Fourier transform is the
indicator of [-1, 1].  With bandwidth a = sqrt(2 log n) the estimate

    f_hat(x) = (1/n) sum_k a K(a (x - X_k))

equals the inverse Fourier transform of the empirical characteristic
function truncated to frequencies |u| <= a.  Both forms are implemented:
``direct`` (the reference) sums the kernel, O(n) per point; ``fourier``
applies a Gauss-Legendre rule (16 nodes on each of an even number P of
uniform panels of half-width h = a / P) to the truncated inversion
integral; P is the fewest panels that hold the rule's error near 1e-10
over the span of the samples and points (``_panel_count``).  Against the
direct sums the rule measured at most 4.8e-11 in the value and 8.9e-11 in
the derivative over 1,500 random blocks of up to 512 samples; on two
panels the derivative reaches 2.9e-10 at a point the full reach away from
511 of 512 samples.  The 16-point rule is
``quadrature.gauss_legendre(16)``, built at the first fourier evaluation,
so a process that never takes this route never builds it.  The
samples are real, so psi(-u) = conj psi(u), and the even panel layout is
mirror-symmetric about 0; hence

    f_hat(x) = (1/pi) Re sum_{u > 0} w psi(u) exp(-i u x),

and f_hat'(x) is the same sum with an extra factor -i u.  Only the P/2
positive panels are built.  Node i of positive panel p sits at
u = c_i + 2 p h with c_i = h (1 + nu_i), so

    exp(i u X) = exp(i c_i X) * z^p,    z = exp(2 i h X).

One evaluator, ``_eval_fourier``, walks the P/2 panels (``_walk``).  Per
chunk of points it builds the 16 phases exp(i c_i x) from 9 exponentials,
each one cos and one sin: s = exp(i h x) and the 8 exp(i h nu_i x) with
nu_i < 0, whose conjugates give the mirrored nodes (nu_{15-i} = -nu_i).
The step is z = s^2.  Each panel then costs one complex product per node
and point.  Evaluation is the spectrum's transpose: since
Re(conj(c) conj(e)) = Re(c e), the inversion sum at x is Re of the
conjugated spectrum times one (2, 16) coefficient table per panel, for
value and derivative, times the same +i phases: one (2, 16) @ (16, m)
product per panel.  The conjugated spectrum has one of two sources.  At the
samples themselves (at most ``_FUSED_SAMPLES`` of them) panel p's spectrum
is the sum of its phases, known before the walk leaves the panel, so one
walk does both (the fused pass): 9 exponentials per sample.  Elsewhere a
chunked walk over the samples sums the spectrum, then a chunked walk over
the points evaluates it.

Whatever the node count, the chunked walks hold 16 complex phases per
point of a chunk, plus a value and a derivative accumulator per
evaluation point; the fused pass holds 16 complex phases per sample,
about 3 MB at its cap.  The points are padded to whole blocks of
``_LANES``, so a point's bits depend on the rest of its batch in two ways
only: through the rule, whose node count the batch's span sets, and
through the fused pass, which a batch that holds exactly the samples, in
any order, takes, and whose bits differ from the chunked walks' in the
last places.  The routes agree to 1e-8 (a test contract); ``kde_eval``
prices each call on its own points (``_route``) and takes the cheaper, the
fused walk priced at the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_legendre

_EVAL_CHUNK = 1024  # points per product: small enough that BLAS starts no threads
_SAMPLE_CHUNK = 4096
_FUSED_SAMPLES = 2**13  # the fused walk holds 16 phases per sample: about 3 MB at the cap
_LANES = 64  # evaluation points are padded to a multiple of this
_DIRECT_PAIRS = 2**15  # (point, sample) pairs per direct-route chunk

# route costs in ns (2-core Xeon): direct per (sample, point); fourier per (node,
# sample) of the fused walk, per (node, sample or point) of the two chunked walks,
# per panel step of a chunk, and fixed.  The per-node costs carry each sample's or
# point's 9 exponentials, so they rise as the rule's node count falls.
_DIRECT_NS, _FUSED_NS, _FOURIER_NS, _PANEL_NS, _FOURIER_FIXED_NS = 71.0, 4.3, 4.0, 4.8e3, 7.7e4


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
    # far points overflow u^2 to inf: K' = finite / inf = 0 there, which is
    # the kernel's own limit, so numpy need not warn of it
    with np.errstate(over="ignore"):
        out[~small] = (ub * np.cos(ub) - np.sin(ub)) / (np.pi * ub * ub)
    return out


@dataclass(frozen=True, eq=False)
class KernelDensityEstimate:
    """Fitted sinc-kernel density.

    ``samples`` are stored sorted so that evaluation is invariant, bit for
    bit, under permutations of the input.  ``bandwidth`` is always
    sqrt(2 log n); it is recorded rather than recomputed so downstream
    code can read it off.  ``kde_eval`` prices each call on its own points;
    ``mode`` is the route it takes at the samples.
    """

    samples: np.ndarray
    bandwidth: float

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def mode(self) -> str:
        return _route(self.bandwidth, self.n, None, float(self.samples[-1] - self.samples[0]))


def kde_fit(values):
    """Fit the sinc-kernel density to at least three finite ``values``."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size < 3:
        raise ValueError(f"need at least 3 samples to fit, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    samples = np.sort(x)
    samples.setflags(write=False)
    return KernelDensityEstimate(samples=samples, bandwidth=math.sqrt(2.0 * math.log(x.size)))


def _route(a, n, points, reach):
    """The cheaper of n * points kernel terms and the fourier route at
    ``points`` points, or at the n samples when ``points`` is None.

    At the samples, up to ``_FUSED_SAMPLES`` of them, the fourier route is one
    fused walk: the nodes of its P/2 positive panels times n, plus one Python
    step per panel.  Otherwise it is two chunked walks: the nodes times
    (n + points), plus one step per panel for each chunk of samples or points.
    Both add a fixed cost.
    """
    panels = _panel_count(a, reach) // 2
    if points is None and n <= _FUSED_SAMPLES:
        points, work_ns, steps = n, _FUSED_NS * n, panels
    else:
        points = n if points is None else points
        work_ns = _FOURIER_NS * (n + points)
        steps = panels * (math.ceil(n / _SAMPLE_CHUNK) + math.ceil(points / _EVAL_CHUNK))
    fourier_ns = 16 * panels * work_ns + _PANEL_NS * steps + _FOURIER_FIXED_NS
    return "direct" if _DIRECT_NS * n * points <= fourier_ns else "fourier"


def _panel_count(a, reach):
    """The smallest even panel count P with theta = h reach <= 4 pi, h = a / P:
    16 P >= 4 a reach / pi nodes.

    On a panel of half-width h the integrand's phases exp(i u t), |t| <= reach,
    are exp(i theta s) over s in [-1, 1].  At theta = 4 pi the 16-point rule's
    error is 1.3e-10 (2.0e-11 in the value per unit of bandwidth), well inside
    the routes' 1e-8 agreement.  A reach below 1 counts as 1.
    """
    return 2 * math.ceil(a * max(reach, 1.0) / (8.0 * math.pi))


def _cis(theta):
    """exp(i theta) for real theta: one cos and one sin written into one complex array."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _positive_nodes(a, reach):
    """The (P/2, 16) nodes u = c_i + 2 p h of the positive panels for ``reach``,
    and the panel half-width h = a / P."""
    panels = _panel_count(a, reach)
    h = a / panels
    nodes = gauss_legendre(16)[0]
    return (h + h * nodes)[None, :] + (2.0 * h) * np.arange(panels // 2)[:, None], h


def _walk(x, h, panels, chunk, reduce):
    """Walk the positive panels at the points ``x``, ``chunk`` points at a time.

    For each chunk and each panel p < ``panels`` in turn, calls
    ``reduce(p, columns, cur)`` with cur[i, k] = exp(i (c_i + 2 p h) x_k), the
    (16, chunk) phases of panel p: built once from cis(h x) and the 8
    cis(h nu_i x) with nu_i < 0, then advanced by one product with
    z = cis(h x)^2 per panel.
    """
    low_nodes = gauss_legendre(16)[0][:8]
    for start in range(0, x.size, chunk):
        part = x[start : start + chunk]
        shift = _cis(h * part)
        # c_i = h + h nu_i, and the nodes are symmetric to the bit, nu_{15-i} = -nu_i:
        # 8 exponentials cis(h nu_i x), built in place (the angles go into the
        # imaginary part first), then their conjugates
        cur = np.empty((16, part.size), dtype=complex)
        low = cur[:8]
        np.multiply((h * low_nodes)[:, None], part[None, :], out=low.imag)
        np.cos(low.imag, out=low.real)
        np.sin(low.imag, out=low.imag)
        np.conjugate(low[::-1], out=cur[8:])
        cur *= shift
        z = shift * shift
        columns = slice(start, start + chunk)
        for p in range(panels):
            if p:
                cur *= z
            reduce(p, columns, cur)


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


def _padded(x):
    """``x`` followed by zeros up to a multiple of ``_LANES`` points: the
    (2, 16) @ (16, m) products then run whole blocks of columns, with no
    ragged edge, so no point's bits depend on where it sits in its batch."""
    out = np.zeros(-(-x.size // _LANES) * _LANES)
    out[: x.size] = x
    return out


def _eval_fourier(kde, x=None):
    """Value and derivative at the points ``x``, or at the sorted samples when
    ``x`` is None, from one coefficient table on the P/2 positive panels.

    The node count follows the reach max |x - X_k| (see ``_panel_count``).
    Panel p's coefficients are conj(n psi_p) * scale[p], with
    scale[p] = (h w / n, h w / n * i u) and n psi_p = sum_k exp(i u X_k); with
    the +i phases of a point, Re(conj(c) conj(e)) = Re(c e) gives the inversion
    sum.  At the samples, n psi_p is the sum of panel p's phases there, so one
    walk yields each panel's spectrum and its evaluation (the fused pass);
    elsewhere a chunked walk over the samples sums the spectrum first.
    """
    samples, n = kde.samples, kde.n
    at = samples if x is None else x
    reach = float(at.max(initial=samples[-1]) - at.min(initial=samples[0]))
    u, h = _positive_nodes(kde.bandwidth, reach)
    half = u.shape[0]
    scale = np.empty((half, 2, 16), dtype=complex)
    scale[:, 0] = h * gauss_legendre(16)[1] / n
    scale[:, 1] = scale[:, 0] * (1j * u)
    if x is None:  # the samples are the first n points of the one walk
        psi = None
    else:
        psi = np.zeros(u.shape, dtype=complex)

        def spectrum(p, columns, cur):
            psi[p] += cur.sum(axis=1)

        _walk(samples, h, half, _SAMPLE_CHUNK, spectrum)
    points = _padded(at)
    acc = np.zeros((2, points.size), dtype=complex)

    def evaluate(p, columns, cur):
        coef = np.conj(cur[:, :n].sum(axis=1) if psi is None else psi[p]) * scale[p]
        # one product per _EVAL_CHUNK points, so that BLAS starts no threads: in a
        # parallel run's processes they contend for the cores and slow the walk down
        out = acc[:, columns]
        for start in range(0, cur.shape[1], _EVAL_CHUNK):
            part = slice(start, start + _EVAL_CHUNK)
            out[:, part] += coef @ cur[:, part]

    _walk(points, h, half, points.size if psi is None else _EVAL_CHUNK, evaluate)
    # the negative half is the conjugate of the positive: 2 Re over u > 0
    return acc[0, : at.size].real / np.pi, acc[1, : at.size].real / np.pi


def _sample_order(kde, x):
    """The permutation that sorts ``x`` when ``x`` holds exactly the samples,
    at most ``_FUSED_SAMPLES`` of them (the fused pass's cap), else None."""
    if x.size != kde.n or kde.n > _FUSED_SAMPLES:
        return None
    order = np.argsort(x)
    return order if np.array_equal(x[order], kde.samples) else None


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
    order = _sample_order(kde, flat)
    reach = float(flat.max(initial=kde.samples[-1]) - flat.min(initial=kde.samples[0]))
    if _route(kde.bandwidth, kde.n, None if order is not None else flat.size, reach) == "direct":
        value, deriv = _eval_direct(kde, flat)
    elif order is not None:  # the points are the samples: one fused walk, then scatter back
        value, deriv = np.empty_like(flat), np.empty_like(flat)
        value[order], deriv[order] = _eval_fourier(kde)
    else:
        value, deriv = _eval_fourier(kde, flat)
    if scalar:
        return float(value[0]), float(deriv[0])
    return value.reshape(pts.shape), deriv.reshape(pts.shape)
