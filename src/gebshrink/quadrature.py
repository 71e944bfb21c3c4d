"""Adaptive composite Gauss-Legendre quadrature, for one integral or a batch
of integrals in lockstep.

The risk functionals in this package integrate smooth Gaussian-mixture
expressions over a finite window, occasionally with known kinks (threshold
corners, density floors).  A panel-bisection Gauss-Legendre scheme with a
10-versus-20-point error estimate handles both cases; callers pass kink
locations as ``breakpoints`` so no panel straddles a non-smooth point.

:func:`integrate_batch` runs many integrals in lockstep: each round
evaluates every pending panel of every integral, at its low-order and
high-order nodes together, in one integrand call, so the per-round cost of
the scheme is paid once per batch instead of once per integral.  Each
integral keeps its own panel tree, tolerance share, panel budget and
``QuadratureError`` diagnostics.  A panel's sum is taken over its own row,
and each round adds an integral's accepted panels to its total one at a
time in ascending-edge order, so as long as the integrand's value at a
point does not depend on the other points of the call, an integral's
result is bit-identical whatever batch it runs in.  :func:`integrate` is a
batch of one.

Integrands must accept a 1-d ``numpy`` array and return an array of the
same shape.  The algorithm is deterministic: identical inputs produce
bit-identical results.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import QuadratureError

_LOW_ORDER = 10
_HIGH_ORDER = 20


@functools.lru_cache(maxsize=None)
def gauss_legendre(order):
    """Read-only nodes and weights of the ``order``-point Gauss-Legendre rule
    on [-1, 1], as ``numpy.polynomial.legendre.leggauss`` gives them.

    Built on first use and cached: importing ``numpy.polynomial`` and
    building the package's three rules (10 and 20 points here, 16 in
    ``kde``) cost a cold process about 2.6 ms, which a run that integrates
    nothing, such as a thresholding ``denoise``, does not pay.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panel_pairs(f, lo, hi, owner):
    """Low- and high-order estimates for the panels of a batch, from one
    integrand call.

    ``lo``, ``hi`` and ``owner`` describe the panels.  Each panel's sum is
    taken over its own row alone, so its bits do not depend on the other
    panels.  Returns ``(i_low, i_high)`` arrays of per-panel estimates.
    """
    nodes_low, weights_low = gauss_legendre(_LOW_ORDER)
    nodes_high, weights_high = gauss_legendre(_HIGH_ORDER)
    # a window reaching past the float range overflows lo + hi or hi - lo to
    # inf: the caller reports the non-finite estimates once, so numpy need not
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
    x_low = mid[:, None] + half[:, None] * nodes_low[None, :]
    x_high = mid[:, None] + half[:, None] * nodes_high[None, :]
    y = f(
        np.concatenate([x_low.ravel(), x_high.ravel()]),
        np.concatenate([owner.repeat(_LOW_ORDER), owner.repeat(_HIGH_ORDER)]),
    )
    y_low = y[: x_low.size].reshape(x_low.shape)
    y_high = y[x_low.size :].reshape(x_high.shape)
    return half * (y_low * weights_low).sum(axis=1), half * (y_high * weights_high).sum(axis=1)


def integrate(f, lo, hi, *, tol=1e-8, breakpoints=(), max_panels=1 << 17):
    """Integrate ``f`` over ``[lo, hi]`` to absolute tolerance ``tol``.

    Makes one call to ``f`` per round of panel bisection.

    Parameters
    ----------
    f : callable
        Vectorized integrand; called with a flat float array.
    lo, hi : float
        Finite integration limits with ``lo < hi``.
    tol : float
        Absolute tolerance, apportioned to panels by width.
    breakpoints : iterable of float
        Interior points forced to be panel edges (kinks, jumps).
    max_panels : int
        Budget on total panels processed before giving up.

    Raises
    ------
    QuadratureError
        If the panel budget is exhausted or the integrand returns
        non-finite values.
    """
    (total,) = integrate_batch(
        lambda x, which: f(x),
        [(lo, hi)],
        tol=tol,
        breakpoints=[breakpoints],
        max_panels=max_panels,
    )
    return total


def integrate_batch(f, limits, *, tol=1e-8, breakpoints=None, max_panels=1 << 17):
    """Integrate a batch of integrals in lockstep; returns a list of floats.

    Parameters
    ----------
    f : callable
        ``f(x, which)``: ``x`` is a flat float array of points and
        ``which`` an integer array of the same length giving, for each
        point, the index into ``limits`` of the integral it belongs to.
        Returns the integrand values, an array of ``x``'s shape.  Called
        once per round.
    limits : sequence of (lo, hi)
        Finite limits with ``lo < hi``, one pair per integral.
    tol, max_panels : float, int
        As for :func:`integrate`; each integral has its own.
    breakpoints : sequence of iterables of float, optional
        One iterable of interior panel edges per integral.

    Raises
    ------
    QuadratureError
        That of the first integral, in batch order, that fails: the
        integrals after it stop there and those before it run to the end,
        so it is the error a loop of :func:`integrate` calls would raise.
    """
    limits = [(float(lo), float(hi)) for lo, hi in limits]
    if breakpoints is None:
        breakpoints = [()] * len(limits)
    if len(breakpoints) != len(limits):
        raise ValueError("need one set of breakpoints per integral")
    panel_lo, panel_hi, panel_owner = [], [], []
    for k, ((lo, hi), cuts) in enumerate(zip(limits, breakpoints)):
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("integration limits must be finite")
        if hi <= lo:
            raise ValueError(f"empty integration interval [{lo}, {hi}]")
        edges = [lo, *sorted({float(b) for b in cuts if lo < float(b) < hi}), hi]
        panel_lo += edges[:-1]
        panel_hi += edges[1:]
        panel_owner += [k] * (len(edges) - 1)

    count = len(limits)
    width_total = np.array([hi - lo for lo, hi in limits])
    min_width = width_total * 2.0**-48
    totals = np.zeros(count)
    processed = np.zeros(count, dtype=np.int64)
    worst = np.full(count, np.inf)
    failure = None

    active_lo = np.array(panel_lo)
    active_hi = np.array(panel_hi)
    owner = np.array(panel_owner, dtype=np.intp)

    # a failing integral k raises at the end, unless one before it fails
    # too; both checks below go through stop
    def stop(k, message, **detail):
        """Integral k fails: build its error, and cut it and every integral
        after it from the active panels at once; returns the kept mask."""
        nonlocal failure, active_lo, active_hi, owner
        failure = QuadratureError(message, interval=limits[k], panels=int(processed[k]), **detail)
        keep = owner < k
        active_lo, active_hi, owner = active_lo[keep], active_hi[keep], owner[keep]
        return keep

    while active_lo.size:
        counts = np.bincount(owner, minlength=count)
        processed += counts
        over = ((counts > 0) & (processed > max_panels)).nonzero()[0]
        if over.size:
            k = over[0]
            stop(k, "quadrature did not converge within the panel budget;", worst_error=float(worst[k]))
            if not owner.size:
                break
        i_low, i_high = _panel_pairs(f, active_lo, active_hi, owner)
        bad = ~(np.isfinite(i_low) & np.isfinite(i_high))
        if bad.any():
            keep = stop(owner[bad][0], "integrand returned non-finite values;")
            i_low, i_high = i_low[keep], i_high[keep]
            if not owner.size:
                break
        err = np.abs(i_high - i_low)
        width = active_hi - active_lo
        budget = tol * width / width_total[owner]
        tiny = width <= min_width[owner]
        done = (err <= budget) | tiny
        if tiny.any():
            for k in np.unique(owner[tiny]):
                worst[k] = min(worst[k], float(err[tiny & (owner == k)].max(initial=0.0)))
        # bincount adds each integral's accepted panels in index order
        # (ascending edge), whatever else the batch holds
        totals += np.bincount(owner[done], weights=i_high[done], minlength=count)
        # each rejected panel is replaced by its two halves, in place, so
        # the panels stay sorted by owner and edge.  (Halves that tie an
        # edge come only from a panel one ulp wide, which splits into
        # itself until its integral runs out of panels.)
        keep_lo = active_lo[~done]
        keep_hi = active_hi[~done]
        mid = 0.5 * (keep_lo + keep_hi)
        active_lo = np.column_stack([keep_lo, mid]).ravel()
        active_hi = np.column_stack([mid, keep_hi]).ravel()
        owner = owner[~done].repeat(2)

    if failure is not None:
        raise failure
    return totals.tolist()
