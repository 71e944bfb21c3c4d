"""Mixing distributions, oracle rules, exact risks, and bound functionals.

Frozen numeric constants in this file were produced by the adaptive
quadrature integrator at tolerance 1e-10 or tighter, or by independent
closed-form arithmetic, before the assertions were written.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gebshrink import mixture
from gebshrink.blocks import tuning
from gebshrink.errors import QuadratureError
from gebshrink.mixture import (
    DENSITY_FLOOR_LIMIT,
    GebRule,
    HardThresholdRule,
    IdentityRule,
    LinearShrinkRule,
    MixingDistribution,
    OracleRule,
    SoftThresholdRule,
    bayes_risk,
    density_floor_loss,
    empirical_mixing,
    from_atoms,
    gaussian_grid_prior,
    mixture_density,
    mixture_summaries,
    oracle_rule,
    rule_risk,
)
from gebshrink.quadrature import integrate

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def normal_pdf(x):
    return math.exp(-x * x / 2.0) * PHI0


def random_mixing(rng, max_atoms=8, span=6.0):
    m = int(rng.integers(1, max_atoms + 1))
    locs = rng.uniform(-span, span, m)
    w = rng.dirichlet(np.ones(m))
    return from_atoms(locs, w)


# ---------------------------------------------------------------- construction


def test_empirical_mixing_basic():
    g = empirical_mixing([1.0, -1.0, 3.0], 1.0)
    assert np.allclose(g.locations, [-1.0, 1.0, 3.0])
    assert np.allclose(g.weights, [1 / 3, 1 / 3, 1 / 3])


def test_empirical_mixing_merges_and_standardizes():
    g = empirical_mixing([2.0, 2.0], 2.0)
    assert g.locations.tolist() == [1.0]
    assert g.weights.tolist() == [1.0]


def test_empirical_mixing_degenerate_zeros():
    g = empirical_mixing(np.zeros(17), 1.0)
    assert g.locations.tolist() == [0.0]
    assert g.weights.tolist() == [1.0]


def test_empirical_mixing_rejects_bad_input():
    with pytest.raises(ValueError):
        empirical_mixing([], 1.0)
    with pytest.raises(ValueError):
        empirical_mixing([1.0], 0.0)
    with pytest.raises(ValueError):
        empirical_mixing([1.0], -2.0)


def test_from_atoms_validates_weights():
    with pytest.raises(ValueError):
        from_atoms([0.0, 1.0], [0.7, 0.4])
    with pytest.raises(ValueError):
        from_atoms([0.0], [])
    with pytest.raises(ValueError):
        from_atoms([math.inf], [1.0])


def _from_atoms_by_unique(locations, weights):
    """The earlier from_atoms: a second sort in np.unique, then np.add.at."""
    locs = np.asarray(locations, dtype=float)
    order = np.argsort(locs, kind="stable")
    uniq, inverse = np.unique(locs[order], return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inverse, np.asarray(weights, dtype=float)[order])
    return MixingDistribution(uniq, merged)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3000),
    distinct=st.integers(1, 3000),
    zeros=st.sampled_from([(), (0.0,), (-0.0,), (0.0, -0.0)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_from_atoms_matches_the_unique_merge(n, distinct, zeros, seed):
    rng = np.random.default_rng(seed)
    pool = np.concatenate([rng.standard_normal(distinct) * 10.0 ** rng.integers(-3, 4), zeros])
    locs = rng.choice(pool, n)
    w = rng.random(n)
    w /= w.sum()
    got, want = from_atoms(locs, w), _from_atoms_by_unique(locs, w)
    # equal values; a merged zero atom may keep the other sign of zero
    assert np.array_equal(got.locations, want.locations)
    assert got.weights.tobytes() == want.weights.tobytes()


def test_mixing_distribution_leaves_the_callers_arrays_writable():
    locations, weights = np.array([-1.0, 3.0]), np.array([0.5, 0.5])
    g = MixingDistribution(locations, weights)
    locations[0], weights[0] = -2.0, 0.25
    assert g.locations.tolist() == [-1.0, 3.0] and g.weights.tolist() == [0.5, 0.5]
    for arr in (g.locations, g.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_mixing_distribution_is_immutable_and_sorted():
    g = from_atoms([3.0, -1.0, 3.0], [0.25, 0.5, 0.25])
    assert g.locations.tolist() == [-1.0, 3.0]
    assert g.weights.tolist() == [0.5, 0.5]
    with pytest.raises(ValueError):
        g.locations[0] = 0.0


# ---------------------------------------------------------------- density


def test_density_point_mass_at_origin():
    v, d = mixture_density(from_atoms([0.0], [1.0]), 0.0)
    assert v == pytest.approx(PHI0, abs=1e-15)
    assert d == 0.0


def test_density_single_atom_closed_form():
    mu, x = 1.7, 0.4
    v, d = mixture_density(from_atoms([mu], [1.0]), x)
    assert v == pytest.approx(normal_pdf(x - mu), rel=1e-14)
    assert d == pytest.approx(-(x - mu) * normal_pdf(x - mu), rel=1e-14)


def test_density_symmetric_pair():
    g = from_atoms([-2.0, 2.0], [0.5, 0.5])
    v, d = mixture_density(g, 0.0)
    assert v == pytest.approx(normal_pdf(2.0), rel=1e-14)
    assert d == pytest.approx(0.0, abs=1e-18)


# ---------------------------------------------------------------- oracle rule


def test_oracle_rule_point_mass_is_constant():
    rule = oracle_rule(from_atoms([2.5], [1.0]))
    for x in (-40.0, -3.0, 0.0, 1.0, 55.0):
        assert rule(x) == pytest.approx(2.5, abs=1e-9)


def test_oracle_rule_symmetry_fixes_origin():
    rule = oracle_rule(from_atoms([-4.0, 4.0], [0.5, 0.5]))
    assert rule(0.0) == pytest.approx(0.0, abs=1e-14)


def test_oracle_rule_gaussian_grid_matches_linear_shrinkage():
    # posterior mean for a N(0,1) prior is x/2; the grid approximation
    # carries a small discretization error
    rule = oracle_rule(gaussian_grid_prior(1.0, 201, 6.0))
    assert rule(1.0) == pytest.approx(0.5, abs=2e-3)


def test_oracle_rule_far_tail_stays_finite():
    rule = oracle_rule(from_atoms([0.0], [1.0]))
    assert rule(40.0) == pytest.approx(0.0, abs=1e-9)
    assert np.isfinite(rule(300.0))


def test_rule_evaluation_is_vectorized():
    rule = oracle_rule(from_atoms([-1.0, 2.0], [0.3, 0.7]))
    xs = np.linspace(-5, 5, 11)
    vec = np.asarray(rule(xs))
    assert vec.shape == (11,)
    for i, x in enumerate(xs):
        assert vec[i] == pytest.approx(rule(float(x)), rel=1e-14)


# ---------------------------------------------------------------- risks


def test_identity_rule_risk_is_one():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = random_mixing(rng)
        assert rule_risk(IdentityRule(), g) == pytest.approx(1.0, abs=1e-8)


def test_zero_rule_risk_is_second_moment():
    assert rule_risk(LinearShrinkRule(0.0), from_atoms([2.0], [1.0])) == pytest.approx(4.0, abs=1e-8)


def test_bayes_risk_point_mass_is_exactly_zero():
    assert bayes_risk(from_atoms([3.3], [1.0])) == 0.0


def test_bayes_risk_gaussian_grid():
    g = gaussian_grid_prior(1.0, 201, 6.0)
    assert bayes_risk(g) == pytest.approx(0.5, abs=1e-3)


def test_bayes_risk_uniform_grid_frozen_value():
    # frozen by the quadrature integrator before this assertion was written
    g = from_atoms(np.linspace(-1.0, 1.0, 401), np.full(401, 1.0 / 401))
    v = bayes_risk(g)
    assert 0.0 < v < 1.0
    assert v == pytest.approx(0.2501091173252702, abs=1e-9)


def test_oracle_risk_equals_bayes_risk_two_point():
    g = from_atoms([-3.0, 3.0], [0.5, 0.5])
    assert rule_risk(oracle_rule(g), g) == pytest.approx(bayes_risk(g), abs=1e-8)


def test_oracle_risk_equals_bayes_risk_random_sweep():
    rng = np.random.default_rng(42)
    for _ in range(50):
        g = random_mixing(rng)
        assert rule_risk(oracle_rule(g), g) == pytest.approx(bayes_risk(g), abs=1e-7)


def test_soft_threshold_rule_uses_exact_per_atom_formula():
    from gebshrink.thresholds import soft_threshold_risk

    g = from_atoms([-2.0, 0.0, 1.5], [0.2, 0.5, 0.3])
    lam = 1.3
    expected = (
        0.2 * soft_threshold_risk(-2.0, lam)
        + 0.5 * soft_threshold_risk(0.0, lam)
        + 0.3 * soft_threshold_risk(1.5, lam)
    )
    assert rule_risk(SoftThresholdRule(lam), g) == pytest.approx(expected, rel=1e-12)


def test_rule_risk_propagates_quadrature_failure():
    class Spiky:
        breakpoints = staticmethod(lambda: ())

        def __call__(self, x):
            x = np.asarray(x, dtype=float)
            return 1.0 / np.abs(x - 0.123456)

    with pytest.raises(QuadratureError):
        rule_risk(Spiky(), from_atoms([0.0], [1.0]))


# ---------------------------------------------------------------- invariants


def test_bayes_risk_bounded_by_identity_and_zero_rules():
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = random_mixing(rng)
        mu2sq = float(np.sum(g.weights * g.locations**2))
        r = bayes_risk(g)
        assert 0.0 <= r <= min(1.0, mu2sq) + 1e-9


def test_no_rule_beats_bayes_risk():
    """Optimality sweep: random rules from every family against random G."""
    rng = np.random.default_rng(11)
    from gebshrink.kde import kde_fit

    for _ in range(50):
        g = random_mixing(rng, max_atoms=5, span=4.0)
        base = bayes_risk(g)
        rules = [IdentityRule(), LinearShrinkRule(0.0)]
        rules += [SoftThresholdRule(float(rng.uniform(0, 4))) for _ in range(4)]
        rules += [HardThresholdRule(float(rng.uniform(0, 4))) for _ in range(4)]
        rules += [LinearShrinkRule(float(rng.uniform(0, 1))) for _ in range(4)]
        rules += [OracleRule(random_mixing(rng, max_atoms=4)) for _ in range(4)]
        samples = rng.standard_normal(24) + rng.choice(g.locations, 24, p=g.weights)
        rules += [GebRule(kde_fit(samples), float(rng.uniform(0.05, 0.3)))for _ in range(2)]
        for rule in rules:
            assert rule_risk(rule, g) >= base - 1e-6


def test_bayes_risk_is_concave_in_the_mixing_distribution():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g1 = random_mixing(rng, max_atoms=4)
        g2 = random_mixing(rng, max_atoms=4)
        w = float(rng.uniform(0.05, 0.95))
        blend = from_atoms(
            np.concatenate([g1.locations, g2.locations]),
            np.concatenate([w * g1.weights, (1.0 - w) * g2.weights]),
        )
        assert bayes_risk(blend) >= w * bayes_risk(g1) + (1 - w) * bayes_risk(g2) - 1e-6


# ---------------------------------------------------------------- summaries


def test_summaries_point_mass_origin():
    s = mixture_summaries(from_atoms([0.0], [1.0]))
    assert (s.kappa, s.kappa_tilde) == (0.0, 0.0)


def test_summaries_point_mass_two():
    s = mixture_summaries(from_atoms([2.0], [1.0]))
    assert s.kappa == 1.0
    assert s.kappa_tilde == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)


def test_summaries_half_atom():
    s = mixture_summaries(from_atoms([0.5], [1.0]))
    assert s.kappa == pytest.approx(0.25, rel=1e-15)
    assert s.kappa_tilde == pytest.approx(1.0 - math.exp(-1.0 / 16.0), rel=1e-14)


def test_signal_mass_sandwich_exact():
    rng = np.random.default_rng(17)
    lo = (math.e - 1.0) / (4.0 * math.e)
    for _ in range(200):
        s = mixture_summaries(random_mixing(rng))
        assert lo * s.kappa <= s.kappa_tilde <= s.kappa


# ---------------------------------------------------------------- density-floor loss


def test_density_floor_loss_small_signal_bound():
    # frozen: loss 0.16664619272476705, closed-form cap 0.43668263622813064
    rho = 0.1
    ltil = math.sqrt(-math.log(2.0 * math.pi * rho * rho))
    cap = 2.0 * rho * math.sqrt(ltil * ltil + 2.0)
    loss = density_floor_loss(rho, from_atoms([0.0], [1.0]))
    assert loss == pytest.approx(0.16664619272476705, rel=1e-6)
    assert loss <= cap


def test_density_floor_loss_validates_floor():
    with pytest.raises(ValueError):
        density_floor_loss(DENSITY_FLOOR_LIMIT, from_atoms([0.0], [1.0]))
    with pytest.raises(ValueError):
        density_floor_loss(0.0, from_atoms([0.0], [1.0]))


# ---------------------------------------------------------------- one-pass integrands
#
# Reference copies of the two-pass arithmetic the risk integrands used
# before they shared one exponential per (point, atom): the re-centred
# shift, the raw density from mixture_density, and a scalar
# scan-and-bisect for the floor crossings.

RHO_4096 = tuning(4096).rho


def _two_pass_shift(prior, x):
    d = x[:, None] - prior.locations[None, :]
    e = 0.5 * d * d
    e -= e.min(axis=1, keepdims=True)
    r = np.exp(-e) * prior.weights[None, :]
    return (-d * r).sum(axis=1) / r.sum(axis=1)


def _two_pass_bayes_risk(prior):
    if prior.atom_count == 1:
        return 0.0

    def integrand(x):
        shift = _two_pass_shift(prior, x)
        value, _ = mixture_density(prior, x)
        return shift * shift * value

    fisher = integrate(integrand, *prior.support_window(), tol=1e-8)
    return min(max(1.0 - fisher, 0.0), 1.0)


def _two_pass_rule_risk(rule, prior):
    """rule_risk's integrand as it was: whole (points, atoms) temporaries."""
    lo, hi = prior.support_window()

    def integrand(x):
        t = np.asarray(rule(x), dtype=float)
        d = x[:, None] - prior.locations[None, :]
        err = t[:, None] - prior.locations[None, :]
        kern = PHI0 * np.exp(-0.5 * d * d)
        return (err * err * kern) @ prior.weights

    return integrate(integrand, lo, hi, tol=1e-8, breakpoints=rule.breakpoints())


def _scalar_floor_crossings(prior, rho, lo, hi, scan=4096):
    grid = np.linspace(lo, hi, scan)
    value, _ = mixture_density(prior, grid)
    flips = np.nonzero(np.diff(np.sign(value - rho)) != 0)[0]
    roots = []
    for i in flips:
        a, b = grid[i], grid[i + 1]
        fa = float(mixture_density(prior, a)[0] - rho)
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = float(mixture_density(prior, m)[0] - rho)
            if (fa < 0) == (fm < 0):
                a, fa = m, fm
            else:
                b = m
        roots.append(0.5 * (a + b))
    return tuple(roots)


def _two_pass_floor_loss(rho, prior):
    lo, hi = prior.support_window()

    def factor(x):
        shift = _two_pass_shift(prior, x)
        value, _ = mixture_density(prior, x)
        damp = 1.0 - value / np.maximum(value, rho)
        return shift * shift * damp * damp * value

    return integrate(
        factor, lo, hi, tol=1e-8, breakpoints=_scalar_floor_crossings(prior, rho, lo, hi)
    )


def _empirical_4096():
    return empirical_mixing(np.random.default_rng(4096).standard_normal(4096), 1.0)


# prior builder and its number of floor crossings at RHO_4096: separated
# humps cross twice each, and at +-40 the density underflows to 0 between them
REFERENCE_PRIORS = {
    "empirical-4096": (_empirical_4096, 2),
    "sparse-12": (lambda: from_atoms([0.0, -12.0, 12.0], [0.9, 0.05, 0.05]), 2),
    "pair-5": (lambda: from_atoms([-5.0, 5.0], [0.5, 0.5]), 4),
    "point-mass": (lambda: from_atoms([0.0], [1.0]), 2),
    "pair-40": (lambda: from_atoms([-40.0, 40.0], [0.5, 0.5]), 4),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_PRIORS))
def test_one_pass_functionals_match_two_pass_arithmetic(name):
    build, crossings = REFERENCE_PRIORS[name]
    g = build()
    lo, hi = g.support_window()
    roots = mixture._floor_crossings(g, RHO_4096, lo, hi)
    expected = _scalar_floor_crossings(g, RHO_4096, lo, hi)
    assert len(roots) == len(expected) == crossings
    assert max(abs(a - b) for a, b in zip(roots, expected)) <= 1e-12
    assert abs(bayes_risk(g) - _two_pass_bayes_risk(g)) <= 1e-12
    assert abs(density_floor_loss(RHO_4096, g) - _two_pass_floor_loss(RHO_4096, g)) <= 1e-12
    for rule in (oracle_rule(g), HardThresholdRule(3.0), LinearShrinkRule(0.5)):
        assert abs(rule_risk(rule, g) - _two_pass_rule_risk(rule, g)) <= 1e-12


def _raw_rule_loss(rule, prior, x):
    """sum_i w_i phi(x - u_i) (t(x) - u_i)^2 from raw Gaussian terms, t = rule,
    and the rounding bound of forming each t(x) - u_i as (x - u_i) + (t(x) - x):
    eps sum_i w_i phi(x - u_i) |t - u_i| (|x - u_i| + |t - x| + |t - u_i|)."""
    t = np.asarray(rule(x), dtype=float)
    d = x[:, None] - prior.locations[None, :]
    err = t[:, None] - prior.locations[None, :]
    kern = PHI0 * np.exp(-0.5 * d * d)
    parts = np.abs(d) + np.abs(t - x)[:, None] + np.abs(err)
    bound = np.finfo(float).eps * ((np.abs(err) * parts * kern) @ prior.weights)
    return (err * err * kern) @ prior.weights, bound


def _drawn_rule(kind, level, seed):
    if kind == "hard":
        return HardThresholdRule(level)
    if kind == "linear":
        return LinearShrinkRule(level - 2.0)
    if kind == "identity":
        return IdentityRule()
    from gebshrink.kde import kde_fit

    rng = np.random.default_rng(seed)
    block = rng.standard_normal(int(rng.integers(3, 200))) * rng.uniform(0.5, 5.0)
    return GebRule(kde_fit(block), float(rng.uniform(0.05, 0.3)))


@settings(max_examples=200, deadline=None)
@given(
    atoms=st.lists(
        st.tuples(st.floats(-20.0, 20.0), st.floats(0.0, 1.0)), min_size=1, max_size=6
    ).filter(lambda a: sum(w for _, w in a) > 0),
    kind=st.sampled_from(["hard", "linear", "identity", "geb"]),
    level=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64),
)
def test_sweep_loss_with_a_rule_offset_matches_the_raw_sum(atoms, kind, level, seed, fractions):
    locations, weights = zip(*atoms)
    g = from_atoms(locations, np.array(weights) / sum(weights))
    rule = _drawn_rule(kind, level, seed)
    lo, hi = g.support_window()
    x = lo + (hi - lo) * np.array(fractions)
    offset = np.asarray(rule(x), dtype=float) - x
    loss = mixture._rule_loss(g, x, offset)
    raw, rounding = _raw_rule_loss(rule, g, x)
    normal = np.isfinite(raw) & (raw >= np.finfo(float).tiny)
    # where t(x) is near an atom far from x, (x - u) + (t - x) cancels: the
    # offset carries the rounding of x, which the raw t - u does not
    error = np.abs(loss - raw)[normal]
    assert np.all(error <= 1e-12 * raw[normal] + rounding[normal])


def _full_sweep_rule_risk(rule, prior):
    """rule_risk of a rule other than the prior's own oracle as it was priced
    on the whole oracle sweep: the re-centred exponentials, then the shift's
    pass and sum, which the loss never reads, then the loss of the offset."""
    lo, hi = prior.support_window()

    def integrand(x):
        offset = np.asarray(rule(x), dtype=float) - x
        risk = np.empty(x.size)
        for block, d, e, de in mixture._atom_blocks(prior, x, 3):
            np.multiply(d, d, out=e)
            e *= 0.5
            e_min = e.min(axis=1)
            e -= e_min[:, None]
            np.negative(e, out=e)
            np.exp(e, out=e)
            e *= prior.weights
            den = e.sum(axis=1)
            scale = PHI0 * np.exp(-e_min)
            np.multiply(d, e, out=de)
            _ = -de.sum(axis=1) / den
            d += offset[block][:, None]
            d *= d
            d *= e
            risk[block] = scale * d.sum(axis=1)
        return risk

    return integrate(integrand, lo, hi, tol=1e-8, breakpoints=rule.breakpoints())


@settings(max_examples=60, deadline=None)
@given(
    atoms=st.lists(
        st.tuples(st.floats(-20.0, 20.0), st.floats(0.0, 1.0)), min_size=1, max_size=6
    ).filter(lambda a: sum(w for _, w in a) > 0),
    kind=st.sampled_from(["hard", "linear", "identity", "geb"]),
    level=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_rule_loss_keeps_the_full_sweep_bits(atoms, kind, level, seed):
    locations, weights = zip(*atoms)
    g = from_atoms(locations, np.array(weights) / sum(weights))
    rule = _drawn_rule(kind, level, seed)
    assert rule_risk(rule, g) == _full_sweep_rule_risk(rule, g)


@pytest.mark.parametrize("kind", ["hard", "linear", "identity", "geb"])
def test_rule_loss_keeps_the_full_sweep_bits_on_many_atoms(kind):
    g = empirical_mixing(np.random.default_rng(1024).standard_normal(1024), 1.0)
    rule = _drawn_rule(kind, 3.0, 7)
    assert rule_risk(rule, g) == _full_sweep_rule_risk(rule, g)


def _density_sweep_oracle_risk(prior):
    """rule_risk of the prior's own oracle rule as the density sweep's loss
    mode priced it: the re-centred exponentials, their sum, the shift from
    the d e products in a third buffer, then the loss of that shift."""
    lo, hi = prior.support_window()

    def integrand(x):
        risk = np.empty(x.size)
        with np.errstate(over="ignore", invalid="ignore"):
            for block, d, e, de in mixture._atom_blocks(prior, x, 3):
                np.multiply(d, d, out=e)
                e *= 0.5
                e_min = e.min(axis=1)
                np.subtract(e_min[:, None], e, out=e)
                np.exp(e, out=e)
                e *= prior.weights
                den = e.sum(axis=1)
                scale = PHI0 * np.exp(-e_min)
                np.multiply(d, e, out=de)
                s = -de.sum(axis=1) / den
                d += s[:, None]
                d *= d
                d *= e
                risk[block] = scale * d.sum(axis=1)
        return risk

    return integrate(integrand, lo, hi, tol=1e-8)


def _risk_or_error(price):
    """The float's hex digits, or the error's type and message."""
    try:
        return price().hex()
    except (QuadratureError, ValueError) as err:
        return f"{type(err).__name__}: {err}"


@settings(max_examples=100, deadline=None)
@given(
    atoms=st.lists(
        st.tuples(st.floats(-20.0, 20.0), st.floats(0.0, 1.0)), min_size=1, max_size=6
    ).filter(lambda a: sum(w for _, w in a) > 0),
    scale=st.sampled_from([1.0, 1e153]),
)
def test_own_oracle_loss_keeps_the_density_sweeps_bits(atoms, scale):
    # scale 1e153 puts atoms up to 4e154 apart, where d^2 overflows
    locations, weights = zip(*atoms)
    g = from_atoms(scale * np.array(locations), np.array(weights) / sum(weights))
    got = _risk_or_error(lambda: rule_risk(oracle_rule(g), g))
    assert got == _risk_or_error(lambda: _density_sweep_oracle_risk(g))


@pytest.mark.parametrize("locations", [None, [-1e154, 1e154], [0.0, 1e154]])
def test_own_oracle_loss_keeps_the_density_sweeps_bits_on_pinned_priors(locations):
    # a 1024-atom empirical prior; far pairs that fail and that converge
    if locations is None:
        g = empirical_mixing(np.random.default_rng(1024).standard_normal(1024), 1.0)
    else:
        g = from_atoms(locations, [0.5, 0.5])
    got = _risk_or_error(lambda: rule_risk(oracle_rule(g), g))
    assert got == _risk_or_error(lambda: _density_sweep_oracle_risk(g))


def _scalar_soft_risk(mu, lam):
    """The soft-threshold risk as the scalar closed form computed it, with
    ``math.erfc`` and ``math.exp`` on one atom at a time."""
    if lam == 0.0:
        return 1.0

    def q(t):
        return 0.5 * math.erfc(t * math.sqrt(0.5))

    m = min(abs(float(mu)), lam + 40.0)
    lam2 = lam * lam
    densities = (lam - m) * normal_pdf(lam + m) + (lam + m) * normal_pdf(lam - m)
    if m <= lam:
        return m * m + (1.0 + lam2 - m * m) * (q(lam - m) + q(lam + m)) - densities
    return 1.0 + lam2 - (1.0 + lam2 - m * m) * (q(m - lam) - q(lam + m)) - densities


def _soft_risk_loop(prior, lam):
    """rule_risk of SoftThresholdRule(lam) as the per-atom loop: each atom's
    scalar risk, weighted and added one at a time in atom order."""
    total = 0.0
    for u, w in zip(prior.locations.tolist(), prior.weights.tolist()):
        total += w * _scalar_soft_risk(u, lam)
    return total


@settings(max_examples=200, deadline=None)
@given(
    atoms=st.lists(
        st.tuples(
            st.one_of(st.floats(-60.0, 60.0), st.floats(-1e6, 1e6)), st.floats(0.0, 1.0)
        ),
        min_size=1,
        max_size=40,
    ).filter(lambda a: sum(w for _, w in a) > 0),
    lam=st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
)
def test_soft_threshold_risk_keeps_the_per_atom_loops_bits(atoms, lam):
    # atoms past lam + 40 take the capped branch; lam = 0 is the identity
    locations, weights = zip(*atoms)
    g = from_atoms(locations, np.array(weights) / sum(weights))
    assert rule_risk(SoftThresholdRule(lam), g) == _soft_risk_loop(g, lam)
    from gebshrink.thresholds import soft_threshold_risk

    each = [_scalar_soft_risk(u, lam) for u in g.locations.tolist()]
    assert np.array_equal(soft_threshold_risk(g.locations, lam), each)
    assert soft_threshold_risk(float(g.locations[0]), lam) == each[0]


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0, 3.7, 45.0])
def test_soft_threshold_risk_keeps_the_per_atom_loops_bits_on_many_atoms(lam):
    g = _empirical_4096()
    assert rule_risk(SoftThresholdRule(lam), g) == _soft_risk_loop(g, lam)
    far = from_atoms([-1e6, 0.0, 1e6], [0.25, 0.5, 0.25])
    assert rule_risk(SoftThresholdRule(lam), far) == _soft_risk_loop(far, lam)


def test_floor_crossings_none_when_floor_is_never_reached():
    g = gaussian_grid_prior(1.0, 41, 6.0)
    lo, hi = g.support_window()
    assert mixture._floor_crossings(g, 1e-300, lo, hi) == ()
    assert mixture._floor_crossings(g, DENSITY_FLOOR_LIMIT * 0.999, lo, hi) == ()


def _dense_floor_crossings(prior, rho, lo, hi, scan=4096):
    """Every grid point evaluated, then 60 joint halvings: the reference
    the coarse-to-fine scan and its early stop must reproduce bit for bit."""
    grid = np.linspace(lo, hi, scan)
    below = mixture._density_values(prior, grid) - rho < 0
    flips = np.flatnonzero(below[:-1] != below[1:])
    if flips.size == 0:
        return ()
    a, b = grid[flips], grid[flips + 1]
    fa = mixture._density_values(prior, a) - rho
    for _ in range(60):
        m = 0.5 * (a + b)
        fm = mixture._density_values(prior, m) - rho
        same = (fa < 0) == (fm < 0)
        a, fa, b = np.where(same, m, a), np.where(same, fm, fa), np.where(same, b, m)
    return tuple((0.5 * (a + b)).tolist())


def test_a_grid_value_equal_to_the_floor_is_not_a_root():
    # np.sign gave 0 at grid[2300] and so two flips there, one converging to
    # -0.98266, where phi_G - rho = 9.4e-4
    g = from_atoms([0.0], [1.0])
    lo, hi = g.support_window()
    grid = np.linspace(lo, hi, 4096)
    rho = mixture._density_values(g, grid[2300:2301])[0]
    roots = mixture._floor_crossings(g, rho, lo, hi)
    assert len(roots) == 2
    assert roots[0] == -roots[1]
    value, _ = mixture_density(g, np.array(roots))
    assert np.all(np.abs(value - rho) <= 1e-15)


def _assert_scan_matches_dense(g, rho):
    lo, hi = g.support_window()
    assert mixture._floor_crossings(g, rho, lo, hi) == _dense_floor_crossings(g, rho, lo, hi)


def _density_at(g, x):
    return float(mixture._density_values(g, np.array([x]))[0])


@settings(max_examples=150, deadline=None)
@given(
    atoms=st.integers(1, 300),
    spread=st.floats(0.0, 80.0),
    seed=st.integers(0, 2**32 - 1),
    log_rho=st.floats(math.log(1e-300), math.log(0.999 * DENSITY_FLOOR_LIMIT)),
)
def test_floor_crossings_match_the_dense_scan(atoms, spread, seed, log_rho):
    rng = np.random.default_rng(seed)
    g = from_atoms(spread * rng.uniform(-0.5, 0.5, atoms), rng.dirichlet(np.ones(atoms)))
    _assert_scan_matches_dense(g, math.exp(log_rho))


@settings(max_examples=60, deadline=None)
@given(d=st.floats(2.0, 4.0), offset=st.sampled_from([-1e-6, -1e-9, 1e-9, 1e-6]))
def test_floor_crossings_match_the_dense_scan_near_a_dip(d, offset):
    # phi_G - rho stays within 1e-6 of zero across the coarse cells at the dip
    g = from_atoms([-d, d], [0.5, 0.5])
    _assert_scan_matches_dense(g, _density_at(g, 0.0) + offset)


@settings(max_examples=40, deadline=None)
@given(s=st.floats(-1.0, 1.0), offset=st.sampled_from([1e-4, 1e-6]))
def test_floor_crossings_match_the_dense_scan_near_a_peak(s, offset):
    # the atom at 70 widens the coarse cells to 0.34, so the hump's top can
    # poke above rho inside one cell whose ends both lie below it: only the
    # slope bound keeps that cell from being certified
    g = from_atoms([s, 70.0], [0.5, 0.5])
    _assert_scan_matches_dense(g, _density_at(g, s) - offset)


def test_floor_scan_evaluates_a_fraction_of_the_grid(monkeypatch):
    # the dense scan evaluated all 4096 grid points plus the bisection: 4,218
    g = _empirical_4096()
    lo, hi = g.support_window()
    density_values = mixture._density_values
    points = []

    def counted(prior, x):
        points.append(x.size)
        return density_values(prior, x)

    monkeypatch.setattr(mixture, "_density_values", counted)
    roots = mixture._floor_crossings(g, RHO_4096, lo, hi)
    assert len(roots) == 2
    assert sum(points) <= 1024


def test_oracle_rule_keeps_the_two_pass_shift_bit_for_bit():
    g = _empirical_4096()
    x = np.linspace(-90.0, 90.0, 1001)  # many blocks of the 4096-atom prior
    assert np.array_equal(oracle_rule(g)(x), x + _two_pass_shift(g, x))


@pytest.mark.parametrize("functional", ["density_floor_loss", "bayes_risk"])
def test_risk_functionals_run_in_bounded_memory(functional):
    g = _empirical_4096()
    run = {
        "density_floor_loss": lambda: density_floor_loss(RHO_4096, g),
        "bayes_risk": lambda: bayes_risk(g),
    }[functional]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_rule_risk_memory_does_not_grow_with_atom_count():
    # whole (points, atoms) temporaries took about 100 MB at 40,000 atoms
    g = empirical_mixing(np.random.default_rng(40_000).standard_normal(40_000), 1.0)
    assert g.atom_count == 40_000
    tracemalloc.start()
    try:
        rule_risk(oracle_rule(g), g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "atoms, count",
    [(1, 0), (1, 7), (3, 5), (5, 70_000), (4096, 1001), (40_000, 3)],
)
def test_atom_blocks_are_aligned_views_covering_every_point(atoms, count):
    g = from_atoms(np.linspace(-1.0, 1.0, atoms), np.full(atoms, 1.0 / atoms))
    x = np.linspace(-3.0, 3.0, count)
    covered = 0
    for block, d, e in mixture._atom_blocks(g, x, 2):
        assert d.ctypes.data % 64 == 0 and e.ctypes.data % 64 == 0
        assert not np.shares_memory(d, e)
        assert d.size <= max(mixture._BLOCK_PAIRS, atoms)
        assert np.array_equal(d, x[block, None] - g.locations[None, :])
        assert block.start == covered
        covered += d.shape[0]
    assert covered == count
    shift, value = mixture._shift_and_density(g, x)
    assert shift.shape == value.shape == mixture._density_values(g, x).shape == (count,)


@settings(max_examples=80, deadline=None)
@given(
    atoms=st.integers(1, 300),
    spread=st.floats(0.0, 60.0),
    seed=st.integers(0, 2**32 - 1),
    points=st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=256),
)
def test_shift_and_density_matches_two_pass(atoms, spread, seed, points):
    rng = np.random.default_rng(seed)
    g = from_atoms(spread * rng.uniform(-0.5, 0.5, atoms), rng.dirichlet(np.ones(atoms)))
    x = np.array(points)
    shift, value = mixture._shift_and_density(g, x)
    ref_value, _ = mixture_density(g, x)
    assert np.all(np.isfinite(shift))
    np.testing.assert_allclose(shift, _two_pass_shift(g, x), rtol=1e-12, atol=0.0)
    tiny = ref_value < np.finfo(float).tiny
    np.testing.assert_allclose(value[~tiny], ref_value[~tiny], rtol=1e-12, atol=0.0)
    assert np.all(np.abs(value[tiny] - ref_value[tiny]) <= 1e-300)


# ---------------------------------------------------------------- lockstep bayes risks


def _alone_bayes_risk(prior):
    """bayes_risk as a single integral of shift^2 * density, as it was
    written before batches."""
    if prior.atom_count == 1:
        return 0.0

    def integrand(x):
        shift, value = mixture._shift_and_density(prior, x)
        return shift * shift * value

    fisher = integrate(integrand, *prior.support_window(), tol=1e-8)
    return min(max(1.0 - fisher, 0.0), 1.0)


_BATCH_PRIOR = st.tuples(st.integers(1, 5), st.floats(0.0, 30.0), st.integers(0, 2**32 - 1))


def _prior_from(atoms, spread, seed):
    rng = np.random.default_rng(seed)
    return from_atoms(spread * rng.uniform(-0.5, 0.5, atoms), rng.dirichlet(np.ones(atoms)))


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(_BATCH_PRIOR, min_size=1, max_size=9), data=st.data())
def test_batched_bayes_risks_are_bit_identical_in_any_batch_and_order(specs, data):
    priors = [_prior_from(*spec) for spec in specs]
    alone = [bayes_risk(g) for g in priors]
    assert alone == [_alone_bayes_risk(g) for g in priors]
    assert mixture.bayes_risks(priors) == alone
    order = data.draw(st.permutations(range(len(priors))))
    assert mixture.bayes_risks([priors[k] for k in order]) == [alone[k] for k in order]


def test_a_batch_of_equal_count_priors_sweeps_once_per_round(monkeypatch):
    calls = []
    sweep = mixture._shift_and_density

    def counted(*args, **kwargs):
        calls.append(args[0])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(mixture, "_shift_and_density", counted)
    priors = [from_atoms([0.0, -s, s], [0.9, 0.05, 0.05]) for s in (1.0, 4.0, 12.0, 30.0)]
    rounds = []
    for g in priors:
        calls.clear()
        bayes_risk(g)
        rounds.append(len(calls))
    calls.clear()
    mixture.bayes_risks(priors)
    # one stacked table, swept once per round of the slowest prior
    assert len(calls) == max(rounds) < sum(rounds)
    assert all(isinstance(source, mixture._AtomTable) for source in calls)


@pytest.mark.parametrize("atoms, count", [(3, 70_000), (4096, 1001)])
def test_atom_table_sweeps_give_each_point_its_own_priors_bits(atoms, count):
    rng = np.random.default_rng(atoms)
    priors = [_prior_from(atoms, 10.0, seed) for seed in range(4)]
    table = mixture._AtomTable(
        np.array([g.locations for g in priors]), np.array([g.weights for g in priors])
    )
    x = np.linspace(-9.0, 9.0, count)
    rows = rng.integers(0, 4, count)
    covered = 0
    for block, d, e, w in mixture._atom_blocks(table, x, 3, rows):
        assert d.size <= max(mixture._BLOCK_PAIRS, atoms)
        assert np.array_equal(d, x[block, None] - table.locations[rows[block]])
        covered += d.shape[0]
    assert covered == count
    shift, value = mixture._shift_and_density(table, x, rows)
    for k, g in enumerate(priors):
        mine = rows == k
        alone_shift, alone_value = mixture._shift_and_density(g, x[mine])
        assert np.array_equal(shift[mine], alone_shift)
        assert np.array_equal(value[mine], alone_value)


def test_oracle_rule_risk_reuses_the_shift_exponentials(monkeypatch):
    g = from_atoms([0.0, -3.0, 2.0], [0.5, 0.25, 0.25])
    before = rule_risk(oracle_rule(g), g)

    def unused(self, x):
        raise AssertionError("the oracle rule's own risk evaluates no separate rule pass")

    monkeypatch.setattr(OracleRule, "__call__", unused)
    assert rule_risk(oracle_rule(g), g) == before
    assert before == pytest.approx(bayes_risk(g), abs=1e-8)
