"""Adaptive quadrature behavior: exactness, breakpoints, failure diagnostics,
and lockstep batches that reproduce each integral alone bit for bit."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gebshrink.errors import QuadratureError
from gebshrink.quadrature import gauss_legendre, integrate, integrate_batch


def test_polynomial_is_exact():
    # degree 7 is inside the exactness range of the 10-point panels
    val = integrate(lambda x: 3 * x**7 - x**3 + 2.0, -1.0, 2.0)
    exact = 3 * (2.0**8 - 1.0) / 8 - (2.0**4 - 1.0) / 4 + 2.0 * 3.0
    assert abs(val - exact) < 1e-12


def test_gaussian_tail_matches_error_function():
    from scipy.special import ndtr

    f = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    g = lambda x: np.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    val = integrate(g, -8.0, 1.5, tol=1e-12)
    assert abs(val - ndtr(1.5)) < 1e-10
    assert f(1.5) == pytest.approx(g(1.5))


def test_breakpoints_handle_kinks():
    # |x - 0.3| has a kink; forcing the breakpoint keeps panels smooth
    val = integrate(np.abs, -1.0, 1.0, tol=1e-12, breakpoints=(0.0,))
    assert abs(val - 1.0) < 1e-12
    shifted = integrate(lambda x: np.abs(x - 0.3), 0.0, 1.0, tol=1e-12, breakpoints=(0.3,))
    assert abs(shifted - (0.3**2 / 2 + 0.7**2 / 2)) < 1e-12


def test_breakpoints_outside_interval_are_ignored():
    val = integrate(lambda x: x * x, 0.0, 1.0, breakpoints=(-5.0, 9.0))
    assert abs(val - 1.0 / 3.0) < 1e-10


def test_degenerate_interval_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 2.0, 2.0)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)


def test_nonintegrable_singularity_raises_with_diagnostics():
    f = lambda x: 1.0 / np.abs(x - 0.3)
    with pytest.raises(QuadratureError) as exc:
        integrate(f, 0.0, 1.0, max_panels=1 << 10)
    err = exc.value
    assert err.interval == (0.0, 1.0)
    assert err.panels > 0
    assert err.worst_error > 0


def test_nan_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)


def test_tolerance_respected_on_oscillatory_integrand():
    # sin(40 x) over [0, pi] integrates to (1 - cos(40 pi)) / 40 = 0
    val = integrate(lambda x: np.sin(40 * x), 0.0, math.pi, tol=1e-11)
    assert abs(val) < 1e-10


# ---------------------------------------------------------------- lockstep batches


def _one_integral(f, lo, hi, tol=1e-8, breakpoints=(), max_panels=1 << 17):
    """The single-integral scheme as written before batches: two integrand
    calls per round, one per rule, over the integral's own panels.  Its
    arithmetic is the batch's: each panel sums its own row, and each round's
    accepted panels are added one at a time in ascending-edge order."""
    cuts = sorted({float(b) for b in breakpoints if lo < float(b) < hi})
    active_lo, active_hi = np.array([lo, *cuts]), np.array([*cuts, hi])
    nodes_low, weights_low = np.polynomial.legendre.leggauss(10)
    nodes_high, weights_high = np.polynomial.legendre.leggauss(20)
    total, processed, worst, min_width = 0.0, 0, np.inf, (hi - lo) * 2.0**-48
    while active_lo.size:
        processed += active_lo.size
        if processed > max_panels:
            raise QuadratureError("budget;", interval=(lo, hi), panels=processed, worst_error=worst)
        mid, half = 0.5 * (active_lo + active_hi), 0.5 * (active_hi - active_lo)
        x_low = mid[:, None] + half[:, None] * nodes_low[None, :]
        x_high = mid[:, None] + half[:, None] * nodes_high[None, :]
        i_low = half * (f(x_low.ravel()).reshape(x_low.shape) * weights_low).sum(axis=1)
        i_high = half * (f(x_high.ravel()).reshape(x_high.shape) * weights_high).sum(axis=1)
        if not (np.all(np.isfinite(i_low)) and np.all(np.isfinite(i_high))):
            raise QuadratureError("non-finite;", interval=(lo, hi), panels=processed)
        err = np.abs(i_high - i_low)
        width = active_hi - active_lo
        done = (err <= tol * width / (hi - lo)) | (width <= min_width)
        if np.any(width <= min_width):
            worst = min(worst, float(err[width <= min_width].max(initial=0.0)))
        accepted = 0.0
        for value in i_high[done]:
            accepted += float(value)
        total += accepted
        keep_lo, keep_hi = active_lo[~done], active_hi[~done]
        mid = 0.5 * (keep_lo + keep_hi)
        active_lo, active_hi = np.concatenate([keep_lo, mid]), np.concatenate([mid, keep_hi])
        order = np.argsort(active_lo, kind="stable")
        active_lo, active_hi = active_lo[order], active_hi[order]
    return total


def _bumps(params):
    """A batch integrand: integral k is a * exp(-b (x - c)^2) + |x - c| with
    (a, b, c) = params[k], pointwise, so a point's value ignores its batch."""
    a, b, c = (np.array(column) for column in zip(*params))

    def f(x, which):
        return a[which] * np.exp(-b[which] * (x - c[which]) ** 2) + np.abs(x - c[which])

    return f


_BUMP = st.tuples(st.floats(-5.0, 5.0), st.floats(0.01, 400.0), st.floats(-3.0, 3.0))


@settings(max_examples=60, deadline=None)
@given(
    params=st.lists(_BUMP, min_size=1, max_size=24),
    widths=st.lists(st.floats(0.5, 20.0), min_size=24, max_size=24),
    tol=st.sampled_from((1e-6, 1e-8, 1e-10)),
    cut=st.booleans(),
    grid=st.integers(0, 16),
)
def test_each_integral_of_a_batch_is_bit_identical_to_it_alone(params, widths, tol, cut, grid):
    f = _bumps(params)
    limits = [(c - w, c + 0.5 * w) for (_, _, c), w in zip(params, widths)]
    # a grid of breakpoints makes rounds that accept many panels at once
    breakpoints = [
        ((c,) if cut else ()) + tuple(np.linspace(lo, hi, grid + 2)[1:-1])
        for (_, _, c), (lo, hi) in zip(params, limits)
    ]
    batch = integrate_batch(f, limits, tol=tol, breakpoints=breakpoints)
    reverse = integrate_batch(_bumps(params[::-1]), limits[::-1], tol=tol, breakpoints=breakpoints[::-1])
    assert reverse[::-1] == batch
    for k, ((lo, hi), cuts) in enumerate(zip(limits, breakpoints)):
        alone = _one_integral(lambda x: f(x, np.full(x.size, k)), lo, hi, tol, cuts)
        assert batch[k] == alone
        assert integrate(lambda x: f(x, np.full(x.size, k)), lo, hi, tol=tol, breakpoints=cuts) == alone


def test_integrate_makes_one_call_per_round():
    sizes = []

    def kink(x):
        sizes.append(x.size)
        return np.abs(x - 1.0 / 3.0)

    val = integrate(kink, 0.0, 1.0, tol=1e-10)
    assert abs(val - (1.0 / 18.0 + 2.0 / 9.0)) < 1e-10
    # both rules of every pending panel in one call: the first round has
    # the one panel, and each later round the two halves of the panel
    # holding the kink, the other half having been accepted
    assert len(sizes) > 5
    assert sizes == [30] + [60] * (len(sizes) - 1)
    sizes.clear()
    integrate(lambda x: sizes.append(x.size) or x**7, -1.0, 2.0)
    assert sizes == [30]


def test_batch_calls_the_integrand_once_per_round_of_its_slowest_integral():
    calls = []
    params = [(1.0, 0.5, 0.0), (1.0, 300.0, 0.1), (2.0, 5.0, -0.2)]
    f = _bumps(params)

    def counted(x, which):
        calls.append(np.unique(which).tolist())
        return f(x, which)

    limits = [(-4.0, 4.0)] * 3
    integrate_batch(counted, limits)
    rounds = []
    for k in range(3):
        alone = []
        integrate_batch(lambda x, which: alone.append(1) or f(x, which + k), [limits[k]])
        rounds.append(len(alone))
    assert len(calls) == max(rounds) < sum(rounds)
    assert calls[0] == [0, 1, 2]


def test_batch_raises_the_first_failing_integral_in_batch_order():
    # integral 0 runs out of panels late, integral 1 returns nan at once,
    # integral 2 runs out of panels at once: a loop of integrate calls
    # meets integral 0's error first
    def f(x, which):
        out = 1.0 / np.abs(x - 0.3)
        out[which == 1] = np.nan
        return out

    limits = [(0.0, 1.0)] * 3
    with pytest.raises(QuadratureError) as alone:
        integrate(lambda x: 1.0 / np.abs(x - 0.3), 0.0, 1.0, max_panels=1 << 10)
    with pytest.raises(QuadratureError) as batch:
        integrate_batch(f, limits, max_panels=1 << 10, breakpoints=[(), (), np.linspace(0, 1, 2000)])
    assert batch.value.args == alone.value.args
    assert (batch.value.panels, batch.value.worst_error) == (alone.value.panels, alone.value.worst_error)
    # without integral 0, integral 1's non-finite values come first
    with pytest.raises(QuadratureError, match="non-finite") as second:
        integrate_batch(lambda x, which: f(x, which + 1), limits[1:], max_panels=1 << 10)
    assert second.value.panels == 1


def test_batch_validates_every_integral_and_handles_none():
    assert integrate_batch(lambda x, which: x, []) == []
    with pytest.raises(ValueError, match="empty integration interval"):
        integrate_batch(lambda x, which: x, [(0.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValueError, match="one set of breakpoints"):
        integrate_batch(lambda x, which: x, [(0.0, 1.0)], breakpoints=[(), ()])


@pytest.mark.parametrize("order", [10, 16, 20])
def test_gauss_legendre_rules_are_leggauss_bits_built_once(order):
    nodes, weights = gauss_legendre(order)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(order)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert gauss_legendre(order)[0] is nodes


def test_rules_are_built_on_first_use():
    # numpy.polynomial is imported only when a rule is first built
    script = (
        "import sys\n"
        "from gebshrink import kde, quadrature\n"
        "before = 'numpy.polynomial' in sys.modules\n"
        "quadrature.integrate(lambda x: x * x, 0.0, 1.0)\n"
        "print(before, 'numpy.polynomial' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
