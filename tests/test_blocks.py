"""Tuning schedules, the kappa statistic, hybrid fits, and James-Stein.

Monte Carlo assertions use fixed seeds; the derived constants were
checked against closed forms or a pilot run before freezing.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from gebshrink import blocks
from gebshrink.blocks import (
    BLOCK_ESTIMATORS,
    TuningConfig,
    branch_frontier,
    fit_block,
    geb_rule,
    hybrid_fit,
    james_stein,
    james_stein_factor,
    kappa_hat,
    tuning,
)
from gebshrink.errors import InvalidConfigError
from gebshrink.kde import kde_eval, kde_fit
from gebshrink.mixture import (
    HardThresholdRule,
    SoftThresholdRule,
    from_atoms,
    gaussian_grid_prior,
    mixture_summaries,
    oracle_rule,
)
from gebshrink.quadrature import integrate
from gebshrink.risklab import replicate_rng
from gebshrink.sequence import BlockedSequence, estimate_sequence
from gebshrink.thresholds import soft_threshold_risk, threshold
from gebshrink.wavelets import RandomDesignData, random_design_estimate


# ---------------------------------------------------------------- tuning


def test_tuning_formulas_at_2048():
    t = tuning(2048)
    log_n = math.log(2048.0)
    assert t.rho == pytest.approx(0.4 * math.sqrt(2.0 * log_n / 2048.0), rel=1e-15)
    assert t.b == pytest.approx(2.0 * log_n / math.sqrt(2048.0), rel=1e-15)
    assert t.lam == pytest.approx(math.sqrt(2.0 * log_n), rel=1e-15)


def test_tuning_threshold_inflation():
    t = tuning(512, TuningConfig(threshold_inflation=0.5))
    assert t.lam == pytest.approx(math.sqrt(2.0 * 1.5 * math.log(512.0)), rel=1e-15)


def test_tuning_floor_guard():
    with pytest.raises(InvalidConfigError):
        tuning(8, TuningConfig(rho0=2.0))



@pytest.mark.parametrize(
    "rho0, message",
    [
        (1e300, "density floor 3.60507e+299 at n=64 reaches the 1/sqrt(2 pi) limit"),
        (5e-324, "density floor 0 at n=64 is not positive"),
    ],
)
def test_tuning_floor_messages_stay_short(rho0, message):
    # a fixed-point format printed a huge floor with all 300 of its digits
    with pytest.raises(InvalidConfigError) as err:
        tuning(64, TuningConfig(rho0=rho0))
    assert str(err.value).startswith(message)
    assert len(str(err.value)) < 100

def test_tuning_rejects_tiny_blocks():
    with pytest.raises(ValueError):
        tuning(2)


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        TuningConfig(rho0=0.0)
    with pytest.raises(InvalidConfigError):
        TuningConfig(b0=-1.0)
    with pytest.raises(InvalidConfigError):
        TuningConfig(n_star=2)
    with pytest.raises(InvalidConfigError):
        TuningConfig(threshold_inflation=-0.1)
    with pytest.raises(InvalidConfigError):
        TuningConfig(small_block_policy="median")


def _scanned_frontier(kappa_tilde, cfg, stop):
    """The first n in [n_star, stop) with tuning(n).b < kappa_tilde, by scan."""
    return next((n for n in range(cfg.n_star, stop) if tuning(n, cfg).b < kappa_tilde), None)


@pytest.mark.parametrize(
    "prior, stop",
    [
        (from_atoms([3.0], [1.0]), 1000),
        (from_atoms([1.0], [1.0]), 10**4),
        # kappa_tilde = 1 - 1/sqrt(1.5): the N(0, 1) prior's frontier, 10099, lies between 2^13 and 2^14
        (gaussian_grid_prior(), 3 * 10**4),
        (gaussian_grid_prior(tau=3.0), 1000),
    ],
    ids=["atom-3", "atom-1", "gaussian-1", "gaussian-3"],
)
def test_branch_frontier_is_the_first_size_below_kappa_tilde(prior, stop):
    tilde = mixture_summaries(prior).kappa_tilde
    for cfg in (TuningConfig(), TuningConfig(b0=0.25, n_star=3)):
        want = _scanned_frontier(tilde, cfg, stop)
        assert want is not None
        assert branch_frontier(tilde, cfg) == want
    assert 2**13 < branch_frontier(mixture_summaries(gaussian_grid_prior()).kappa_tilde) <= 2**14


def test_branch_frontier_is_never_without_signal():
    assert branch_frontier(mixture_summaries(from_atoms([0.0], [1.0])).kappa_tilde) is None
    assert branch_frontier(-1e-17) is None
    # the schedule rises from n = 3 to e^2 before it falls: a frontier below 8
    cfg = TuningConfig(b0=1.0, n_star=3)
    tilde = tuning(3, cfg).b + 1e-3
    assert branch_frontier(tilde, cfg) == 3 == _scanned_frontier(tilde, cfg, 100)
    tilde = tuning(3, cfg).b - 1e-3
    assert branch_frontier(tilde, cfg) == _scanned_frontier(tilde, cfg, 100) > 8


# ---------------------------------------------------------------- kappa


def test_kappa_all_zeros():
    assert kappa_hat(np.zeros(10)) == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-15)


def test_kappa_zero_two_pair():
    expected = 1.0 - (math.sqrt(2.0) / 2.0) * (1.0 + math.exp(-2.0))
    assert kappa_hat([0.0, 2.0]) == pytest.approx(expected, rel=1e-15)


def test_kappa_is_permutation_invariant_bitwise():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(257)
    assert kappa_hat(x) == kappa_hat(x[::-1]) == kappa_hat(rng.permutation(x))


def test_kappa_unbiased_for_pure_noise():
    vals = [kappa_hat(replicate_rng(314, r).standard_normal(256)) for r in range(400)]
    vals = np.array(vals)
    se = float(vals.std(ddof=1)) / math.sqrt(len(vals))
    assert abs(float(vals.mean())) <= 4.0 * se


def test_kappa_concentration_tail():
    # tail frequency stays below the exponential cap plus sampling slack
    n, u, reps = 256, 0.1, 500
    kt = 1.0 - math.exp(-1.0)  # smooth signal mass of the all-twos prior
    hits = 0
    for r in range(reps):
        x = 2.0 + replicate_rng(2718, r).standard_normal(n)
        hits += abs(kappa_hat(x) - kt) > u
    cap = 2.0 * math.exp(-n * u * u) + 4.0 * math.sqrt(0.25 / reps)
    assert hits / reps <= cap


# ---------------------------------------------------------------- geb rule


def test_geb_rule_fixes_symmetry_point():
    x = np.array([1.0, 3.0, 0.5, 3.5, -1.0, 5.0])  # symmetric about 2
    rule = geb_rule(x, 0.1)
    assert rule(2.0) == pytest.approx(2.0, abs=1e-12)


def test_geb_rule_degenerate_zeros():
    rule = geb_rule(np.zeros(64), 0.1)
    assert rule(0.0) == 0.0


def test_geb_rule_floor_engages_far_out():
    x = np.random.default_rng(5).standard_normal(64)
    rho = 0.2
    rule = geb_rule(x, rho)
    k = kde_fit(x)
    at = 9.5
    v, d = kde_eval(k, at)
    assert v < rho
    assert rule(at) == pytest.approx(at + d / rho, rel=1e-12)


def test_geb_rule_validates_floor():
    with pytest.raises(ValueError):
        geb_rule(np.zeros(8), 0.0)
    with pytest.raises(ValueError):
        geb_rule(np.zeros(8), 0.5)  # above the density floor limit


def test_geb_rule_tracks_oracle_on_gaussian_compound_draw():
    # frozen pilot: mean squared deviation 0.0314 on this seed
    rng = np.random.default_rng(2026)
    theta = rng.standard_normal(4096)
    x = theta + rng.standard_normal(4096)
    rule = geb_rule(x, tuning(4096).rho)
    oracle = oracle_rule(gaussian_grid_prior(1.0, 801, 8.0))
    msd = float(np.mean((np.asarray(rule(x)) - np.asarray(oracle(x))) ** 2))
    assert msd < 0.05


# ---------------------------------------------------------------- thresholds


def test_threshold_examples():
    assert threshold(3.0, 2.0, "soft") == 1.0
    assert threshold(-3.0, 2.0, "soft") == -1.0
    assert threshold(1.0, 2.0, "soft") == 0.0
    assert threshold(3.0, 2.0, "hard") == 3.0
    assert threshold(1.0, 2.0, "hard") == 0.0


def test_threshold_zero_level_is_identity():
    x = np.linspace(-4, 4, 17)
    assert np.array_equal(threshold(x, 0.0, "soft"), x)
    out = threshold(x, 0.0, "hard")
    assert np.array_equal(out != 0.0, x != 0.0)


def test_threshold_validation():
    with pytest.raises(ValueError):
        threshold(1.0, -0.5, "soft")
    with pytest.raises(ValueError):
        threshold(1.0, 0.5, "clip")


# ---------------------------------------------------------------- hybrid


def test_hybrid_zero_block_takes_threshold_branch():
    fit = hybrid_fit(np.zeros(64))
    assert fit.branch == "threshold"
    assert np.array_equal(np.asarray(fit.rule(np.zeros(5))), np.zeros(5))
    assert fit.kappa_hat == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-15)


def test_hybrid_loud_block_takes_geb_branch():
    x = np.concatenate([np.full(64, 10.0), np.full(64, -10.0)])
    fit = hybrid_fit(x)
    assert fit.branch == "geb"
    assert fit.kappa_hat > fit.b


def test_hybrid_branch_is_deterministic():
    x = np.random.default_rng(9).standard_normal(128) * 1.4
    a = hybrid_fit(x)
    b = hybrid_fit(x.copy())
    assert a.branch == b.branch
    grid = np.linspace(-4, 4, 33)
    assert np.array_equal(np.asarray(a.rule(grid)), np.asarray(b.rule(grid)))


def test_hybrid_small_block_rejected():
    with pytest.raises(ValueError):
        hybrid_fit(np.zeros(63))


def test_hybrid_respects_custom_n_star():
    fit = hybrid_fit(np.zeros(32), TuningConfig(n_star=16))
    assert fit.n == 32


def test_hybrid_geb_branch_frequency_for_half_spike_prior():
    # smooth signal mass 0.499 sits far above the switch level 0.337
    hits = 0
    reps = 200
    for r in range(reps):
        g = replicate_rng(4242, r)
        th = g.choice([0.0, 5.0], size=2048, p=[0.5, 0.5])
        fit = hybrid_fit(th + g.standard_normal(2048))
        hits += fit.branch == "geb"
    assert hits / reps >= 0.99


def test_fitted_rule_diagnostics_consistent():
    x = np.random.default_rng(13).standard_normal(256)
    fit = hybrid_fit(x)
    t = tuning(256)
    assert fit.rho == t.rho and fit.b == t.b and fit.lam == t.lam
    assert fit.n == 256
    assert (fit.branch == "geb") == (fit.kappa_hat > fit.b)


# ---------------------------------------------------------------- fit_block


def _masked_design(x, size):
    """Random-design data whose only usable contrasts are ``x`` at one level.

    One design point and sigma = 1 give unit coefficient noise, so the
    level's block reaches the fit unscaled.  Unit cell counts give the
    reconstruction its children's weights.
    """
    level = int(math.log2(size))
    coefficients = {j: np.zeros(2 ** max(j, 0)) for j in range(-1, level + 1)}
    deltas = {j: np.zeros(2 ** max(j, 0), dtype=int) for j in range(-1, level + 1)}
    deltas[-1][0] = 1
    deltas[level][: x.size] = 1
    coefficients[level][: x.size] = x
    effective = {j: int(d.sum()) for j, d in deltas.items()}
    return level, RandomDesignData(
        counts={j: np.ones(2**j, dtype=int) for j in range(level + 2)},
        deltas=deltas, coefficients=coefficients, effective=effective, n_points=1,
    )


@pytest.mark.parametrize("policy", ["mle", "james_stein"])
@pytest.mark.parametrize("estimator", BLOCK_ESTIMATORS)
@pytest.mark.parametrize("below", [True, False])
def test_fit_block_policy_table(estimator, policy, below):
    # b0 = 0.25 puts b(64) = 0.13 below the kappa_hat of a loud block
    cfg = TuningConfig(b0=0.25, small_block_policy=policy)
    n = cfg.n_star - 1 if below else cfg.n_star
    x = np.random.default_rng(21).choice([-6.0, 6.0], size=n)
    x = x + np.random.default_rng(22).standard_normal(n)
    fit = fit_block(x, cfg, estimator)
    assert fit.n == n and fit.kappa_hat == kappa_hat(x)
    if estimator in ("james-stein", "mle"):
        want = estimator.replace("-", "_")
    elif below:
        want = policy
    elif estimator == "geb-hybrid":
        want = "geb"
    else:
        want = "threshold"
    assert fit.branch == want
    if want == "threshold":
        # a loud block is still thresholded: no branch schedule was evaluated
        schedule = tuning(n, cfg)
        assert fit.kappa_hat > schedule.b
        assert math.isnan(fit.b) and math.isnan(fit.rho) and fit.lam == schedule.lam
        rule_type = SoftThresholdRule if estimator == "soft-universal" else HardThresholdRule
        assert fit.rule == rule_type(schedule.lam)
    elif want in ("mle", "james_stein"):
        assert math.isnan(fit.b) and math.isnan(fit.rho) and math.isnan(fit.lam)
    if want == "james_stein":
        assert np.allclose(fit.rule(x), james_stein(x, 1.0), rtol=1e-15, atol=0.0)

    grid = np.linspace(-8.0, 8.0, 41)
    _, (seq_fit,) = estimate_sequence(BlockedSequence(1.0, ((0, x),)), cfg, estimator)
    assert seq_fit.branch == fit.branch and seq_fit.kappa_hat == fit.kappa_hat
    assert np.array_equal(seq_fit.rule(grid), fit.rule(grid))
    if estimator == "geb-hybrid":
        level, data = _masked_design(x, 64)
        _, report = random_design_estimate(data, cfg, sigma=1.0)
        design_fit = report.fits[report.levels.index(level)]
        assert design_fit.branch == fit.branch and design_fit.kappa_hat == fit.kappa_hat
        assert np.array_equal(design_fit.rule(grid), fit.rule(grid))


def test_fit_block_rejects_unknown_estimator():
    with pytest.raises(ValueError, match="oracle-truth"):
        fit_block(np.zeros(64), TuningConfig(), "oracle-truth")


@pytest.mark.parametrize("estimator", ["soft-universal", "hard-universal"])
def test_universal_thresholds_need_no_density_floor(estimator):
    # rho0 = 5 puts rho(64) past 1/sqrt(2 pi): tuning() fails, lam(64) does not
    cfg = TuningConfig(rho0=5.0)
    x = np.random.default_rng(23).standard_normal(64)
    fit = fit_block(x, cfg, estimator)
    assert fit.branch == "threshold" and fit.lam == tuning(64).lam
    assert math.isnan(fit.rho) and math.isnan(fit.b)
    with pytest.raises(InvalidConfigError, match=r"density floor 1\.\d+ at n=64 reaches"):
        fit_block(x, cfg, "geb-hybrid")


def _counted(monkeypatch, name):
    """Replace ``blocks.<name>`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(blocks, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(blocks, name, counting)
    return calls


@pytest.mark.parametrize("policy", ["mle", "james_stein"])
def test_fit_block_reaches_hybrid_fit_and_kappa_hat_through_the_module(monkeypatch, policy):
    # the benchmark tracer wraps module attributes: a fit that held the
    # functions bound at import would bypass its wrappers
    hybrid_calls = _counted(monkeypatch, "hybrid_fit")
    kappa_calls = _counted(monkeypatch, "kappa_hat")
    cfg = TuningConfig(b0=0.25, small_block_policy=policy)
    rng = np.random.default_rng(24)
    for n in (cfg.n_star - 1, cfg.n_star, 4 * cfg.n_star):
        for x in (rng.standard_normal(n), rng.choice([-6.0, 6.0], size=n) + rng.standard_normal(n)):
            for estimator in BLOCK_ESTIMATORS:
                hybrid_calls.clear()
                kappa_calls.clear()
                fit_block(x, cfg, estimator)
                assert len(hybrid_calls) == (estimator == "geb-hybrid" and n >= cfg.n_star)
                assert len(kappa_calls) == 1, (estimator, n)


_GRID = np.linspace(-9.0, 9.0, 37)


@settings(max_examples=100, deadline=None)
@given(
    n_star=st.integers(3, 80),
    b0=st.floats(0.1, 4.0),
    below=st.booleans(),
    size=st.integers(0, 200),
    loud_share=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_star=64, b0=0.25, below=False, size=0, loud_share=1.0, seed=0)  # a geb fit
@example(n_star=64, b0=0.25, below=False, size=0, loud_share=0.0, seed=0)  # a hybrid threshold fit
def test_fit_block_follows_its_table(n_star, b0, below, size, loud_share, seed):
    n = 1 + size % (n_star - 1) if below else n_star + size
    rng = np.random.default_rng(seed)
    # quiet (pure noise), loud (means at +-6) or mixed blocks
    x = np.where(rng.random(n) < loud_share, rng.choice([-6.0, 6.0], size=n), 0.0) + rng.standard_normal(n)
    permuted = rng.permutation(x)
    for estimator in BLOCK_ESTIMATORS:
        for policy in ("mle", "james_stein"):
            cfg = TuningConfig(b0=b0, n_star=n_star, small_block_policy=policy)
            fit = fit_block(x, cfg, estimator)
            assert fit.n == n and fit.kappa_hat == kappa_hat(x)
            if estimator in ("james-stein", "mle"):
                want = estimator.replace("-", "_")
            elif below:
                want = policy
            elif estimator == "geb-hybrid":
                want = "geb" if kappa_hat(x) > tuning(n, cfg).b else "threshold"
            else:
                want = "threshold"
            assert fit.branch == want
            # the NaN pattern FittedBlockRule documents
            if estimator == "geb-hybrid" and not below:
                assert (fit.rho, fit.b, fit.lam) == tuple(tuning(n, cfg))
            elif want == "threshold":
                assert math.isnan(fit.rho) and math.isnan(fit.b) and fit.lam == tuning(n, cfg).lam
            else:
                assert math.isnan(fit.rho) and math.isnan(fit.b) and math.isnan(fit.lam)
            # a permuted block gets the same fit, bit for bit
            again = fit_block(permuted, cfg, estimator)
            assert again.branch == fit.branch and again.kappa_hat == fit.kappa_hat
            assert np.array_equal(again.rule(_GRID), fit.rule(_GRID))


# ---------------------------------------------------------------- james-stein


def test_james_stein_tiny_vectors_pass_through():
    y = np.array([1.0, -2.0])
    assert np.array_equal(james_stein(y, 1.0), y)
    assert np.array_equal(james_stein(np.array([3.0]), 1.0), np.array([3.0]))


def test_james_stein_collapses_weak_signal():
    y = np.array([0.1, -0.1, 0.05, 0.02])
    # |y|^2 = 0.0229 <= (n-2) eps^2 = 2
    assert np.array_equal(james_stein(y, 1.0), np.zeros(4))


def test_james_stein_shrinks_by_the_stated_factor():
    y = np.array([3.0, -1.0, 2.0, 0.5])
    f = 1.0 - 2.0 * 1.0 / float(np.sum(y * y))
    assert np.allclose(james_stein(y, 1.0), f * y, rtol=1e-15)
    assert james_stein_factor(y, 1.0) == pytest.approx(f, rel=1e-15)


def test_james_stein_zero_vector():
    assert np.array_equal(james_stein(np.zeros(5), 1.0), np.zeros(5))


def test_james_stein_strong_signal_nearly_identity():
    y = np.array([1e8, -2e8, 3e8, 4e8])
    out = james_stein(y, 1.0)
    assert np.allclose(out, y, rtol=1e-15)


def test_squares_that_overflow_give_their_limits_without_a_warning():
    # x^2 = inf: exp(-inf) = 0 and a James-Stein factor of 1, the values
    # these took with the warning
    x = np.array([0.0, 1e200, -3e160, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kappa_hat(x) == 1.0 - math.sqrt(2.0) * (1.0 + math.exp(-2.0)) / 4
        assert james_stein_factor(x, 1.0) == james_stein_factor(x, 1e100) == 1.0


def test_james_stein_validates_epsilon():
    with pytest.raises(ValueError):
        james_stein(np.ones(4), 0.0)


# ----------------------------------------------------- soft-threshold risk


def test_soft_threshold_risk_reference_values():
    assert soft_threshold_risk(0.0, 0.0) == 1.0
    assert soft_threshold_risk(0.0, 3.0) == pytest.approx(
        0.00040687016097273876, rel=1e-10
    )
    assert soft_threshold_risk(100.0, 2.0) == pytest.approx(5.0, rel=1e-9)


def test_soft_threshold_risk_monotone_in_magnitude():
    mus = np.arange(0.0, 10.5, 0.5)
    for lam in (0.0, 1.0, 2.0, 3.0):
        risks = [soft_threshold_risk(m, lam) for m in mus]
        assert risks == sorted(risks)
        # symmetric in the sign of the mean
        assert soft_threshold_risk(-2.5, lam) == pytest.approx(
            soft_threshold_risk(2.5, lam), rel=1e-12
        )


def test_soft_threshold_risk_envelope_bound():
    def phi(u):
        return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)

    rng = np.random.default_rng(77)
    for _ in range(200):
        lam = float(rng.uniform(0.5, 4.0))
        mu = float(rng.uniform(-8.0, 8.0))
        cap = min(mu * mu + 4.0 * phi(lam) / lam**3, lam * lam + 1.0)
        assert soft_threshold_risk(mu, lam) <= cap + 1e-12
    # lam = 0 is the unbiased estimator: risk exactly 1 for every mean
    for mu in (0.0, 1.0, -4.0):
        assert soft_threshold_risk(mu, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_soft_threshold_risk_at_universal_level():
    lam = math.sqrt(2.0 * math.log(1024.0))
    got = soft_threshold_risk(0.0, lam)
    assert got == pytest.approx(2.1480090605097146e-05, rel=1e-9)
    phi = math.exp(-0.5 * lam * lam) / math.sqrt(2.0 * math.pi)
    assert got <= 4.0 * phi / lam**3


def _quadrature_soft_threshold_risk(mu, lam):
    """integral_0^lam P{|X| > u} d(u^2) + 2 P{|X| > lam} - 1, X ~ N(mu, 1)."""
    def two_sided_tail(u):
        return ndtr(mu - u) + ndtr(-u - mu)

    if lam == 0.0:
        return 1.0
    body = integrate(lambda u: 2.0 * u * two_sided_tail(u), 0.0, lam, tol=1e-10)
    return body + 2.0 * two_sided_tail(lam) - 1.0


def test_soft_threshold_risk_closed_form_matches_quadrature():
    worst = 0.0
    for lam in np.linspace(0.0, 5.0, 21):
        for mu in np.linspace(-12.0, 12.0, 49):
            got = soft_threshold_risk(mu, lam)
            worst = max(worst, abs(got - _quadrature_soft_threshold_risk(mu, lam)))
    assert worst <= 1e-12


def test_soft_threshold_risk_saturates_for_huge_means():
    lam = 1.5
    assert soft_threshold_risk(1e6, lam) == pytest.approx(
        lam * lam + 1.0, rel=1e-9
    )


def test_soft_threshold_risk_is_exactly_saturated_past_overflow():
    # mu^2 overflows here; the risk is 1 + lam^2, not nan
    for mu in (1e200, -math.inf):
        assert soft_threshold_risk(mu, 1.5) == 1.5 * 1.5 + 1.0
