"""Sinc-kernel density estimation: the route choice and both evaluation routes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gebshrink import kde as kde_module
from gebshrink.kde import _eval_direct, _eval_fourier, _positive_nodes, kde_eval, kde_fit
from gebshrink.quadrature import gauss_legendre


def test_bandwidth_is_tied_to_sample_count():
    k = kde_fit(np.zeros(1024))
    assert k.bandwidth == pytest.approx(math.sqrt(2.0 * math.log(1024)), rel=1e-15)


def test_degenerate_sample_at_origin():
    # all mass at zero: value a/pi at the spike, derivative zero by symmetry
    k = kde_fit(np.zeros(1024))
    v, d = kde_eval(k, 0.0)
    assert v == pytest.approx(math.sqrt(2.0 * math.log(1024)) / math.pi, rel=1e-14)
    assert d == 0.0


def test_value_decays_far_from_samples():
    k = kde_fit(np.random.default_rng(0).standard_normal(128))
    for x in (1e6, -1e6):
        v, d = kde_eval(k, x)
        assert abs(v) < 1e-4
        assert abs(d) < 1e-3


def test_small_sample_rejected():
    with pytest.raises(ValueError):
        kde_fit([1.0, 2.0])
    with pytest.raises(ValueError):
        kde_fit([])


def test_nonfinite_samples_rejected():
    with pytest.raises(ValueError):
        kde_fit([0.0, 1.0, math.nan])


def test_samples_are_sorted_and_frozen():
    k = kde_fit([3.0, -1.0, 2.0])
    assert k.samples.tolist() == [-1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        k.samples[0] = 0.0


def test_direct_and_fourier_agree_on_normal_samples():
    rng = np.random.default_rng(42)
    k = kde_fit(rng.standard_normal(512))
    grid = np.linspace(-6.0, 6.0, 201)
    vd, dd = _eval_direct(k, grid)
    vf, df = _eval_fourier(k, grid)
    assert float(np.max(np.abs(vd - vf))) < 1e-8
    assert float(np.max(np.abs(dd - df))) < 1e-8


def test_modes_agree_on_rough_data():
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.standard_normal(100) * 0.1, rng.uniform(3, 9, 60)])
    k = kde_fit(x)
    grid = np.linspace(-2.0, 11.0, 301)
    vd, dd = _eval_direct(k, grid)
    vf, df = _eval_fourier(k, grid)
    assert float(np.max(np.abs(vd - vf))) < 1e-8
    assert float(np.max(np.abs(dd - df))) < 1e-8


def test_scalar_and_array_evaluation_match():
    k = kde_fit(np.random.default_rng(3).standard_normal(64))
    xs = np.array([-1.5, 0.0, 2.25])
    vv, dv = kde_eval(k, xs)
    for i, x in enumerate(xs):
        v, d = kde_eval(k, float(x))
        assert v == vv[i]
        assert d == dv[i]


def test_density_integrates_to_about_one():
    from gebshrink.quadrature import integrate

    k = kde_fit(np.random.default_rng(11).standard_normal(256))
    total = integrate(lambda x: kde_eval(k, x)[0], -30.0, 30.0, tol=1e-8)
    # sinc tails decay slowly, so the truncated integral is close to 1
    # but not exact
    assert total == pytest.approx(1.0, abs=0.05)


# --------------------------------------------------------- fourier route


def _literal_rule(kde, u, w, points):
    """The quadrature the fourier route computes, by its definition.

    One exponential per (node, sample) for the empirical spectrum and one
    per (node, point) for the inversion sum, on the nodes and weights the
    route itself uses.
    """
    u = u.ravel()
    w = w.ravel()
    psi = np.zeros(u.size, dtype=complex)
    for start in range(0, kde.n, 1024):
        part = kde.samples[start : start + 1024]
        psi += np.exp(1j * u[:, None] * part[None, :]).sum(axis=1)
    psi /= kde.n
    phase = np.exp(-1j * points[:, None] * u[None, :])
    value = (phase @ (w * psi)).real / (2.0 * np.pi)
    deriv = (phase @ (w * psi * (-1j * u))).real / (2.0 * np.pi)
    return value, deriv


def _normal_block(n):
    return np.random.default_rng(n).standard_normal(n)


def _sparse_block(n):
    rng = np.random.default_rng(5)
    theta = rng.choice(np.array([0.0, -12.0, 12.0]), size=n, p=[0.9, 0.05, 0.05])
    return theta + rng.standard_normal(n)


def _outlier_block(n):
    x = np.random.default_rng(9).standard_normal(n)
    x[17] = 1e3
    return x


def _reach(k, points):
    """The reach ``_eval_fourier`` builds its nodes for."""
    return float(points.max(initial=k.samples[-1]) - points.min(initial=k.samples[0]))


def _counted_walks(monkeypatch):
    """The panel half-width h of every ``_walk`` call from now on."""
    calls = []
    walk = kde_module._walk

    def counted(x, h, panels, chunk, reduce):
        calls.append(h)
        return walk(x, h, panels, chunk, reduce)

    monkeypatch.setattr(kde_module, "_walk", counted)
    return calls


@pytest.mark.parametrize(
    "values",
    [_normal_block(4096), _sparse_block(1024), _outlier_block(256), _normal_block(2**15)],
    ids=["normal-4096", "sparse-atoms", "outlier-1e3", "normal-32768"],
)
def test_fourier_route_matches_literal_definition(values):
    k = kde_fit(values)
    points = np.concatenate([k.samples, np.linspace(k.samples[0] - 1.0, k.samples[-1] + 1.0, 97)])
    value, deriv = _eval_fourier(k, points)
    u, h = _positive_nodes(k.bandwidth, _reach(k, points))
    w = np.broadcast_to(h * gauss_legendre(16)[1], u.shape)

    # the stored rule is the positive half of 16 Gauss-Legendre nodes on
    # each of an even number P of equal panels
    half = u.shape[0]
    panels = 2 * half
    nodes16, weights16 = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(-k.bandwidth, k.bandwidth, panels + 1)
    width = 0.5 * (edges[1:] - edges[:-1])[:, None]
    layout = 0.5 * (edges[:-1] + edges[1:])[:, None] + width * nodes16[None, :]
    assert u.shape == (half, 16)
    assert float(np.max(np.abs(u - layout[half:]))) < 1e-13
    assert float(np.max(np.abs(w - width[half:] * weights16[None, :]))) < 1e-15

    # the full rule the route stands for: the stored half and its mirror image
    u_full = np.concatenate([-u[::-1, ::-1], u])
    w_full = np.concatenate([w[::-1, ::-1], w])
    assert float(np.max(np.abs(u_full - layout))) < 1e-13
    value_ref, deriv_ref = _literal_rule(k, u_full, w_full, points)
    assert float(np.max(np.abs(value - value_ref))) < 1e-12
    assert float(np.max(np.abs(deriv - deriv_ref))) < 1e-12


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 2**20), reach=st.floats(0.0, 1e6))
def test_panel_count_is_even_and_above_the_accuracy_floor(n, reach):
    # theta = h reach <= 4 pi on panels of half-width h = a / P, with the
    # fewest such panels: two fewer exceed it (a reach below 1 counts as 1)
    a = math.sqrt(2.0 * math.log(n))
    reach = max(reach, 1.0)
    panels = kde_module._panel_count(a, reach)
    assert panels % 2 == 0 and panels >= 2
    assert a / panels * reach <= 4.0 * math.pi * (1.0 + 1e-15)
    assert panels == 2 or a / (panels - 2) * reach > 4.0 * math.pi * (1.0 - 1e-15)


_WORST_GAP = 4.9293  # n = 512: the point sits 8 pi / a from half the samples, on P = 2


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 512),
    spread=st.floats(0.0, 50.0),
    centre=st.floats(-20.0, 20.0),
    seed=st.integers(0, 2**32 - 1),
    fractions=st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=16),
    gap=st.one_of(st.just(0.0), st.floats(0.0, 3000.0)),
    outlier=st.one_of(st.none(), st.floats(-1e4, 1e4)),
)
@example(n=512, spread=0.0, centre=0.0, seed=0, fractions=[1.2], gap=_WORST_GAP, outlier=None)
def test_rule_error_on_random_blocks(n, spread, centre, seed, fractions, gap, outlier):
    # the draws of test_routes_agree_on_random_blocks, against the rule's own
    # error at theta = 4 pi: E0 = 1.3e-10 for exp(i theta s) and E1 = 3.0e-10
    # for s exp(i theta s) per unit panel.  The value errs by at most
    # a E0 / (2 pi) <= 7.1e-11 here; the derivative's integrand carries u, and
    # it errs by up to a^2 E1 / (2 pi P), 1.5e-10 on the example (two atoms
    # with the point 4 pi / h from half the samples), so its bound is a * 1e-10
    rng = np.random.default_rng(seed)
    x = centre + spread * rng.uniform(-0.5, 0.5, n)
    x[rng.random(n) < 0.5] += gap
    x[rng.integers(n)] = centre + 0.5 * spread + gap
    if outlier is not None:
        x[rng.integers(n)] = outlier
    k = kde_fit(x)
    lo, hi = float(x.min()), float(x.max())
    points = lo + (hi - lo + 1.0) * np.array(fractions)
    vd, dd = _eval_direct(k, points)
    vf, df = _eval_fourier(k, points)
    assert float(np.max(np.abs(vd - vf))) < 1e-10
    assert float(np.max(np.abs(dd - df))) < k.bandwidth * 1e-10


def test_nodes_are_symmetric_to_the_bit():
    # the walk builds the phases of nodes 8..15 as conjugates of those of 0..7
    nodes = gauss_legendre(16)[0]
    assert np.array_equal(nodes[8:], -nodes[7::-1]) and np.all(nodes[:8] < 0)


@settings(max_examples=100, deadline=None)
@given(theta=st.lists(st.floats(-1e4, 1e4), min_size=0, max_size=64))
def test_cis_matches_complex_exponential(theta):
    t = np.array(theta, dtype=float)
    got = kde_module._cis(t)
    assert got.dtype == complex and got.shape == t.shape
    assert np.all(np.abs(got - np.exp(1j * t)) <= 1e-15)
    grid = t[:, None] * t[None, :] / 1e4  # the 2-d shape the phases take
    assert np.all(np.abs(kde_module._cis(grid) - np.exp(1j * grid)) <= 1e-15)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 512),
    spread=st.floats(0.0, 50.0),
    centre=st.floats(-20.0, 20.0),
    seed=st.integers(0, 2**32 - 1),
    fractions=st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=16),
    gap=st.one_of(st.just(0.0), st.floats(0.0, 3000.0)),
    outlier=st.one_of(st.none(), st.floats(-1e4, 1e4)),
)
def test_routes_agree_on_random_blocks(n, spread, centre, seed, fractions, gap, outlier):
    # wide blocks (two modes ``gap`` apart, or one far outlier) take the rule
    # at its accuracy floor over thousands of nodes
    rng = np.random.default_rng(seed)
    x = centre + spread * rng.uniform(-0.5, 0.5, n)
    x[rng.random(n) < 0.5] += gap
    x[rng.integers(n)] = centre + 0.5 * spread + gap  # the block spans the full spread
    if outlier is not None:
        x[rng.integers(n)] = outlier
    k = kde_fit(x)
    lo, hi = float(x.min()), float(x.max())
    points = lo + (hi - lo + 1.0) * np.array(fractions)
    vd, dd = _eval_direct(k, points)
    vf, df = _eval_fourier(k, points)
    assert float(np.max(np.abs(vd - vf))) < 1e-8
    assert float(np.max(np.abs(dd - df))) < 1e-8


def test_fourier_memory_does_not_grow_with_node_count():
    # one far outlier makes thousands of nodes; working memory stays per chunk
    x = np.random.default_rng(9).standard_normal(256)
    x[17] = 1.5e3
    k = kde_fit(x)
    tracemalloc.start()
    try:
        _eval_fourier(k, k.samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    u, _ = _positive_nodes(k.bandwidth, _reach(k, k.samples))
    assert 2 * u.size > 6000  # the stored half rule stands for twice its nodes
    assert peak < 4 * 2**20


def test_direct_memory_is_bounded_by_the_pair_budget():
    # 64 points x 65,536 samples: one (64, n) chunk would take 164 MB
    k = kde_fit(np.random.default_rng(1).standard_normal(2**16))
    points = np.linspace(-3.0, 3.0, 64)
    tracemalloc.start()
    try:
        _eval_direct(k, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("pairs", [1, 700, 2**15, 2**30], ids=["one-row", "odd", "default", "one-chunk"])
def test_direct_chunking_does_not_change_a_bit(pairs, monkeypatch):
    k = kde_fit(_outlier_block(256))
    points = np.concatenate([k.samples, np.linspace(-5.0, 5.0, 333)])
    want = _eval_direct(k, points)
    monkeypatch.setattr(kde_module, "_DIRECT_PAIRS", pairs)
    got = _eval_direct(k, points)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# ------------------------------------------------------------- route choice


@pytest.mark.parametrize(
    "values, mode",
    [(_outlier_block(128), "direct"), (_outlier_block(256), "fourier")]
    + [(_normal_block(n), "fourier") for n in (64, 256, 512, 1024, 2048, 4096, 8192)]
    + [(_sparse_block(n), "fourier") for n in (256, 512, 1024)],
    ids=["outlier-128", "outlier-256", "normal-64"]
    + [f"normal-{2**p}" for p in range(8, 14)]
    + [f"sparse-{2**p}" for p in range(8, 11)],
)
def test_route_choice_table(values, mode):
    k = kde_fit(values)
    assert k.mode == mode
    # kde_eval follows the route priced for its own 17 points, bit for bit
    points = np.linspace(k.samples[0], k.samples[-1], 17)
    priced = kde_module._route(k.bandwidth, k.n, points.size, _reach(k, points))
    route = _eval_direct if priced == "direct" else _eval_fourier
    got, want = kde_eval(k, points), route(k, points)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_small_blocks_go_direct():
    assert kde_fit(_normal_block(32)).mode == "direct"
    assert kde_fit(np.zeros(3)).mode == "direct"


def test_far_points_are_priced_again(monkeypatch):
    # the samples are priced fourier; a point at 1e6 would need millions of
    # nodes, so that call is priced direct
    k = kde_fit(_normal_block(128))
    assert k.mode == "fourier"
    walks = _counted_walks(monkeypatch)
    points = np.array([-1e6, 0.0, 1e6])
    got, want = kde_eval(k, points), _eval_direct(k, points)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert walks == []
    kde_eval(k, k.samples[::2])  # half the samples are priced fourier too: spectrum, then points
    _, h = _positive_nodes(k.bandwidth, float(k.samples[-1] - k.samples[0]))
    assert walks == [h, h]


def test_one_point_in_a_fourier_block_goes_direct(monkeypatch):
    # the samples are priced fourier, but one kernel sum over 4096 samples
    # costs less than walking the panels once
    k = kde_fit(_normal_block(4096))
    assert k.mode == "fourier"
    walks = _counted_walks(monkeypatch)
    point = np.array([0.5 * (k.samples[0] + k.samples[-1])])
    got, want = kde_eval(k, point), _eval_direct(k, point)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert walks == []


def test_many_wide_points_in_a_direct_block_go_fourier(monkeypatch):
    # 16 samples are priced direct, but 6,000 points cost more in kernel sums
    # than the two walks over the widened span
    k = kde_fit(_normal_block(16))
    assert k.mode == "direct"
    points = np.linspace(k.samples[0] - 8.0, k.samples[-1] + 8.0, 6000)
    want = _eval_fourier(k, points)
    walks = _counted_walks(monkeypatch)
    got = kde_eval(k, points)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert len(walks) == 2  # the spectrum over the samples, then the points


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 400),
    spread=st.sampled_from([0.0, 1.0, 10.0, 1e3, 1e5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_route_and_values_invariant_under_permutation(n, spread, seed):
    rng = np.random.default_rng(seed)
    x = spread * rng.standard_normal(n)
    k, kp = kde_fit(x), kde_fit(rng.permutation(x))
    assert kp.mode == k.mode
    points = np.concatenate([x[:5], np.linspace(-3.0, 3.0, 7)])
    v, d = kde_eval(k, points)
    vp, dp = kde_eval(kp, points)
    assert np.array_equal(v, vp) and np.array_equal(d, dp)


# ------------------------------------------------------------- fused pass


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 600),
    spread=st.sampled_from([0.0, 1.0, 10.0, 200.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_pass_matches_direct_and_two_walks(n, spread, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + spread * rng.uniform(-0.5, 0.5, n)
    k = kde_fit(x)
    value, deriv = _eval_fourier(k)
    vd, dd = _eval_direct(k, k.samples)
    assert float(np.max(np.abs(value - vd))) < 1e-8
    assert float(np.max(np.abs(deriv - dd))) < 1e-8
    vf, df = _eval_fourier(k, k.samples)
    scale = float(np.max(np.abs(vf)))
    assert float(np.max(np.abs(value - vf))) <= 1e-12 * scale
    assert float(np.max(np.abs(deriv - df))) <= 1e-12 * scale


@pytest.mark.parametrize("n", [200, kde_module._FUSED_SAMPLES])
def test_samples_in_any_order_take_the_fused_pass(n, monkeypatch):
    x = np.random.default_rng(n).standard_normal(n)
    k = kde_fit(x)
    value, deriv = _eval_fourier(k)
    walks = _counted_walks(monkeypatch)
    perms = (np.arange(n), np.argsort(x), np.random.default_rng(1).permutation(n))
    for perm in perms:
        got = kde_eval(k, k.samples[perm])
        assert np.array_equal(got[0], value[perm]) and np.array_equal(got[1], deriv[perm])
    assert len(walks) == len(perms)  # one fused walk per call, no separate spectrum
    monkeypatch.undo()
    moved = k.samples[perm] + 1e-3  # as many points as samples, but not the samples
    got, want = kde_eval(k, moved), _eval_fourier(k, moved)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_samples_above_the_cap_take_two_walks(monkeypatch):
    n = kde_module._FUSED_SAMPLES + 1
    k = kde_fit(_normal_block(n))
    want = _eval_fourier(k, k.samples)
    walks = _counted_walks(monkeypatch)
    got = kde_eval(k, k.samples[::-1])
    assert np.array_equal(got[0], want[0][::-1]) and np.array_equal(got[1], want[1][::-1])
    assert len(walks) == 2  # the spectrum over the samples, then the points


def test_a_points_bits_do_not_depend_on_its_neighbours():
    # within the samples' span every batch gets the same rule
    k = kde_fit(_sparse_block(1024))
    points = np.linspace(k.samples[0], k.samples[-1], 1500)
    value, deriv = _eval_fourier(k, points)
    for lo, hi in ((0, 1), (3, 70), (700, 1500), (1499, 1500)):
        v, d = _eval_fourier(k, points[lo:hi])
        assert np.array_equal(v, value[lo:hi]) and np.array_equal(d, deriv[lo:hi])


@pytest.mark.parametrize(
    "n", [kde_module._FUSED_SAMPLES, 2**16], ids=["fused-at-cap", "two-walks-above"]
)
def test_memory_at_the_samples_is_bounded(n):
    x = np.random.default_rng(2).standard_normal(n)
    k = kde_fit(x)
    tracemalloc.start()
    try:
        kde_eval(k, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
