"""Monte Carlo risk laboratory: norms, experiment specs, reports, rates."""

import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gebshrink import risklab
from gebshrink.blocks import TuningConfig
from gebshrink.errors import InvalidConfigError, NumericFailure
from gebshrink.mixture import from_atoms
from gebshrink.risklab import (
    ESTIMATORS,
    ExperimentSpec,
    TruthSource,
    besov_norm,
    monte_carlo_risk,
    rate_fit,
    replicate_rng,
    report_to_csv,
    report_to_dict,
    report_to_json,
)
from gebshrink.signals import SIGNAL_NAMES

# ---------------------------------------------------------------- besov norm


def test_besov_norm_coarse_only():
    assert besov_norm({-1: [3.5]}, 1.0, 2.0, 2.0) == pytest.approx(3.5, rel=1e-14)


def test_besov_norm_single_fine_coefficient():
    alpha, p = 1.5, 3.0
    levels = {-1: [0.0], 0: [0.0], 1: [0.0, 0.0], 2: [0.7, 0.0, 0.0, 0.0]}
    want = 2.0 ** (2 * (alpha + 0.5 - 1.0 / p)) * 0.7
    assert besov_norm(levels, alpha, p, 2.0) == pytest.approx(want, rel=1e-13)


def test_besov_norm_sup_over_levels():
    levels = {-1: [0.2], 0: [1.0], 1: [0.5, 0.5]}
    a = 2.0 ** (0 * 1.0) * 1.0
    b = 2.0 ** (1 * (0.5 + 0.5 - 0.5)) * math.sqrt(0.5)
    assert besov_norm(levels, 0.5, 2.0, math.inf) == pytest.approx(
        max(0.2, a, b), rel=1e-13
    )


def test_besov_norm_infinite_p_uses_level_max():
    levels = {-1: [0.0], 0: [2.0], 1: [1.0, -3.0]}
    want = (2.0**1 + (2.0 ** (1 * 1.0) * 3.0) ** 1) ** 1.0
    assert besov_norm(levels, 0.5, math.inf, 1.0) == pytest.approx(want, rel=1e-13)


def test_besov_norm_rejects_bad_exponents():
    with pytest.raises(ValueError):
        besov_norm({-1: [1.0]}, 1.0, 0.0, 2.0)


# ---------------------------------------------------------------- validation


def test_truth_source_validation():
    with pytest.raises(ValueError):
        TruthSource(kind="mystery")
    with pytest.raises(ValueError, match="needs at least one block"):
        TruthSource(kind="signal")
    with pytest.raises(ValueError):
        TruthSource.explicit([])
    with pytest.raises(ValueError):
        TruthSource.zero(-2)
    with pytest.raises(ValueError):
        TruthSource.besov_extremal(0.0, 10)
    with pytest.raises(ValueError):
        TruthSource.signal("blocks", 1000, 7.0)
    with pytest.raises(ValueError, match="unknown test signal"):
        TruthSource.signal("nosuch", 256, 7.0)
    with pytest.raises(ValueError):
        TruthSource.gaussian_prior(0.0, 16)
    with pytest.raises(ValueError):
        TruthSource.atom_prior(from_atoms([0.0], [1.0]), 0)


def test_experiment_spec_validation():
    zero = TruthSource.zero(3)
    with pytest.raises(ValueError):
        ExperimentSpec(estimator="ridge", truth=zero, epsilons=(1.0,))
    with pytest.raises(ValueError):
        ExperimentSpec(estimator="mle", truth=zero, epsilons=(1.0,), replicates=0)
    with pytest.raises(ValueError):
        ExperimentSpec(estimator="mle", truth=zero, epsilons=())
    with pytest.raises(ValueError):
        ExperimentSpec(estimator="mle", truth=zero, epsilons=(-0.1,))
    with pytest.raises(ValueError):
        ExperimentSpec(
            estimator="mle",
            truth=TruthSource.signal("bumps", 256, 7.0),
            epsilons=(1.0,),
        )
    with pytest.raises(ValueError):
        ExperimentSpec(estimator="mle", truth=zero, epsilons=(1.0,), kde_mode="fft")
    with pytest.raises(ValueError):
        ExperimentSpec(estimator="mle", truth=zero, epsilons=(1.0,), bound_p=0.0)


def test_monte_carlo_needs_exactly_one_epsilon():
    spec = ExperimentSpec(
        estimator="mle", truth=TruthSource.zero(3), epsilons=(0.5, 0.25)
    )
    with pytest.raises(ValueError):
        monte_carlo_risk(spec)


# ------------------------------------------------------------------- streams


def test_replicate_rng_reproducible_and_distinct():
    a = replicate_rng(123, 5).standard_normal(8)
    b = replicate_rng(123, 5).standard_normal(8)
    c = replicate_rng(123, 6).standard_normal(8)
    d = replicate_rng(124, 5).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ------------------------------------------------------------------ reports


def test_oracle_truth_estimator_has_zero_risk():
    spec = ExperimentSpec(
        estimator="oracle-truth",
        truth=TruthSource.explicit({2: [0.3, -1.0, 2.0, 0.0]}),
        epsilons=(0.5,),
        replicates=20,
        seed=9,
    )
    report = monte_carlo_risk(spec)
    assert report.total_mse == 0.0
    assert report.total_se == 0.0


def test_mle_risk_matches_coefficient_count():
    eps = 0.37
    spec = ExperimentSpec(
        estimator="mle",
        truth=TruthSource.zero(4),
        epsilons=(eps,),
        replicates=300,
        seed=11,
    )
    report = monte_carlo_risk(spec)
    m = 1 + 1 + 2 + 4 + 8 + 16
    want = m * eps * eps
    assert abs(report.total_mse - want) <= 4.0 * report.total_se
    assert report.replicates == 300
    assert report.epsilon == eps
    assert sum(row.size for row in report.per_block) == m
    assert all(row.branch == "mle" for row in report.per_block)
    # per-block decomposition adds up (enforced at construction, checked here)
    total = sum(row.empirical_mse for row in report.per_block)
    assert total == pytest.approx(report.total_mse, rel=1e-12)


def test_signal_truth_carries_its_own_epsilon():
    spec = ExperimentSpec(
        estimator="soft-universal",
        truth=TruthSource.signal("blocks", 1024, 7.0),
        replicates=3,
        seed=4,
    )
    report = monte_carlo_risk(spec)
    from gebshrink.signals import test_signal as make_signal

    _, sigma = make_signal("blocks", 1024, 7.0)
    assert report.epsilon == pytest.approx(sigma / math.sqrt(1024), rel=1e-12)
    assert sum(row.size for row in report.per_block) == 1024


# truth factory and noise grid; deterministic truths ship their built arrays to the workers
_PARALLEL_TRUTHS = {
    "gaussian-prior": (lambda: TruthSource.gaussian_prior(1.0, 256), (1.0,)),
    "signal": (lambda: TruthSource.signal("blocks", 1024, 7.0), ()),
    "explicit": (
        lambda: TruthSource.explicit({-1: [0.4], 0: [1.5], 6: np.linspace(-3.0, 3.0, 64)}),
        (0.5,),
    ),
}


@pytest.mark.parametrize("truth_kind", list(_PARALLEL_TRUTHS))
def test_parallel_execution_is_bit_identical(truth_kind):
    make_truth, epsilons = _PARALLEL_TRUTHS[truth_kind]
    spec = ExperimentSpec(
        estimator="geb-hybrid",
        truth=make_truth(),
        epsilons=epsilons,
        replicates=6,
        seed=21,
        kde_mode="fourier",
    )
    serial = monte_carlo_risk(spec, jobs=1)
    parallel = monte_carlo_risk(spec, jobs=3)
    assert report_to_json(serial) == report_to_json(parallel)


# truth factories over a total of n coefficients; draw picks their free parameters
_REPLICATE_TRUTHS = {
    "zero": lambda n, draw: TruthSource.zero(n.bit_length() - 2),
    "besov": lambda n, draw: TruthSource.besov_extremal(
        draw(st.sampled_from((0.5, 1.0, 2.0))), n.bit_length() - 2
    ),
    "signal": lambda n, draw: TruthSource.signal(draw(st.sampled_from(SIGNAL_NAMES)), n, 7.0),
    "explicit": lambda n, draw: TruthSource.explicit(
        {-1: [0.5], 0: [1.0], 5: np.linspace(-4.0, 4.0, n - 2)}
    ),
    "gaussian-prior": lambda n, draw: TruthSource.gaussian_prior(
        draw(st.sampled_from((0.5, 1.0, 3.0))), n
    ),
    "atom-prior": lambda n, draw: TruthSource.atom_prior(
        from_atoms([0.0, -3.0, 3.0], [0.8, 0.1, 0.1]), n
    ),
}


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(sorted(_REPLICATE_TRUTHS)),
    n=st.sampled_from((4, 16, 64, 256)),
    replicates=st.integers(2, 6),
    estimator=st.sampled_from(ESTIMATORS),
    seed=st.integers(0, 2**63 - 1),
    data=st.data(),
)
def test_reports_do_not_depend_on_jobs(kind, n, replicates, estimator, seed, data):
    truth = _REPLICATE_TRUTHS[kind](n, data.draw)
    spec = ExperimentSpec(
        estimator=estimator,
        truth=truth,
        epsilons=() if kind == "signal" else (0.5,),
        replicates=replicates,
        seed=seed,
        cfg=TuningConfig(b0=0.25),
    )
    serial = report_to_json(monte_carlo_risk(spec, jobs=1))
    for jobs in (2, 3):
        assert report_to_json(monte_carlo_risk(spec, jobs=jobs)) == serial


def test_signal_truth_is_built_once(monkeypatch):
    calls = {"test_signal": 0, "dwt": 0}
    for name in calls:
        original = getattr(sys.modules["gebshrink.risklab"], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # every binding site, so no module reaches the uncounted function
        for key, module in list(sys.modules.items()):
            if key.startswith("gebshrink") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    truth = TruthSource.signal("bumps", 256, 7.0)
    assert calls == {"test_signal": 1, "dwt": 1}
    for estimator in ("soft-universal", "oracle-truth"):
        spec = ExperimentSpec(estimator=estimator, truth=truth, replicates=5, seed=3)
        monte_carlo_risk(spec)
    assert calls == {"test_signal": 1, "dwt": 1}


def test_deterministic_truth_blocks_are_read_only():
    source = np.array([0.3, -1.0, 2.0, 0.0])
    truths = (
        TruthSource.zero(3),
        TruthSource.besov_extremal(1.0, 3),
        TruthSource.signal("doppler", 64, 7.0),
        TruthSource.explicit({2: source}),
    )
    for truth in truths:
        assert [j for j, _ in truth.blocks] == [j for j, _ in truth.block_ids_and_sizes()]
        drawn = truth.draw_blocks(0.5, replicate_rng(0, 0))
        for (_, beta), same in zip(truth.blocks, drawn):
            assert same is beta
            assert not beta.flags.writeable
            with pytest.raises(ValueError):
                beta[0] = 1.0
    # explicit truths copy: the caller's array stays writeable and unlinked
    source[0] = 9.0
    assert truths[-1].blocks[0][1][0] == 0.3
    assert truths[1].blocks[3][1][0] == 2.0 ** (-2 * 1.5)


def test_unpicklable_eta_fails_before_the_pool_starts(started_pools):
    spec = ExperimentSpec(
        estimator="geb-hybrid",
        truth=TruthSource.gaussian_prior(1.0, 64),
        epsilons=(1.0,),
        replicates=2,
        cfg=TuningConfig(eta=lambda n: 0.0),
    )
    with pytest.raises(InvalidConfigError, match="eta must be a module-level function"):
        monte_carlo_risk(spec, jobs=2)
    assert started_pools == []
    # a serial run never pickles, so the lambda is fine there
    serial = monte_carlo_risk(spec, jobs=1)
    assert serial.replicates == 2


# ----------------------------------------------------------- the worker pool

_TEST_PID = os.getpid()


def _exit_worker(n):
    """An eta that kills the pool worker evaluating it (never this process)."""
    if os.getpid() == _TEST_PID:
        raise RuntimeError("a worker-killing eta ran in the test process")
    os._exit(1)


@pytest.fixture
def started_pools(monkeypatch):
    """Pools started during the test, on a host that reports three usable CPUs.

    No pool is cached when the test starts, and the test's pools are shut
    down when it ends.
    """
    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.workers = max_workers
            self.closed = False
            started.append(self)

        def shutdown(self, *args, **kwargs):
            self.closed = True
            super().shutdown(*args, **kwargs)

    risklab._close_pool()
    monkeypatch.setattr(risklab, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    yield started
    risklab._close_pool()


def _small_spec(**changes):
    fields = dict(
        estimator="geb-hybrid",
        truth=TruthSource.gaussian_prior(1.0, 64),
        epsilons=(1.0,),
        replicates=4,
        seed=17,
    )
    fields.update(changes)
    return ExperimentSpec(**fields)


def test_one_pool_serves_every_call(started_pools):
    spec = ExperimentSpec(
        estimator="mle",
        truth=TruthSource.explicit({2: [0.3, -1.0, 2.0, 0.0]}),
        epsilons=(0.5, 0.25, 0.125, 0.0625),
        replicates=4,
        seed=1,
    )
    rate_fit(spec, jobs=2)
    for seed in (1, 2, 3):
        monte_carlo_risk(_small_spec(seed=seed), jobs=2)
    assert len(started_pools) == 1
    assert started_pools[0].workers == 2
    assert not started_pools[0].closed


def test_a_new_worker_count_replaces_the_pool(started_pools):
    spec = _small_spec()
    serial = report_to_json(monte_carlo_risk(spec, jobs=1))
    for jobs in (2, 3, 3):
        assert report_to_json(monte_carlo_risk(spec, jobs=jobs)) == serial
    assert [pool.workers for pool in started_pools] == [2, 3]
    assert [pool.closed for pool in started_pools] == [True, False]


def test_a_broken_pool_is_replaced(started_pools):
    spec = _small_spec()
    serial = report_to_json(monte_carlo_risk(spec, jobs=1))
    monte_carlo_risk(spec, jobs=2)
    with pytest.raises(BrokenProcessPool):
        started_pools[0].submit(os._exit, 1).result()
    # found broken before any work: replaced, and the call succeeds
    assert report_to_json(monte_carlo_risk(spec, jobs=2)) == serial
    assert len(started_pools) == 2 and started_pools[0].closed
    # broken during the run: the call fails and the next one starts afresh
    with pytest.raises(BrokenProcessPool):
        monte_carlo_risk(_small_spec(cfg=TuningConfig(eta=_exit_worker)), jobs=2)
    assert report_to_json(monte_carlo_risk(spec, jobs=2)) == serial
    assert len(started_pools) == 3 and started_pools[1].closed


def test_jobs_are_capped_at_the_usable_cpus(started_pools):
    ncpu = len(os.sched_getaffinity(0))
    spec = _small_spec()
    serial = report_to_json(monte_carlo_risk(spec, jobs=1))
    assert report_to_json(monte_carlo_risk(spec, jobs=ncpu + 1)) == serial
    assert [pool.workers for pool in started_pools] == [ncpu]


def test_gaussian_signal_compound_risk_near_oracle():
    # theta i.i.d. standard normal in a single block of 4096
    spec = ExperimentSpec(
        estimator="geb-hybrid",
        truth=TruthSource.gaussian_prior(1.0, 4096),
        epsilons=(1.0,),
        replicates=200,
        seed=7,
        cfg=TuningConfig(b0=0.25),
        compute_ideal=False,
        kde_mode="fourier",
    )
    report = monte_carlo_risk(spec, jobs=2)
    per_coordinate = report.total_mse / 4096.0
    assert 0.5 <= per_coordinate <= 0.6


def test_regret_nonnegative_in_expectation():
    rng = np.random.default_rng(515)
    estimators = ("geb-hybrid", "soft-universal", "hard-universal", "james-stein", "mle")
    for trial in range(20):
        estimator = estimators[int(rng.integers(len(estimators)))]
        sizes = [1, 1, int(rng.integers(2, 33))]
        blocks = {
            j - 1: rng.standard_normal(s) * float(rng.uniform(0.2, 3.0))
            for j, s in enumerate(sizes)
        }
        spec = ExperimentSpec(
            estimator=estimator,
            truth=TruthSource.explicit(blocks),
            epsilons=(float(rng.uniform(0.2, 1.5)),),
            replicates=500,
            seed=int(rng.integers(1, 10_000)),
        )
        report = monte_carlo_risk(spec)
        assert report.total_ideal is not None
        assert report.total_mse >= report.total_ideal - 4.0 * report.total_se


def test_bound_columns_are_finite_and_nonnegative():
    spec = ExperimentSpec(
        estimator="soft-universal",
        truth=TruthSource.explicit({3: [0.0, 2.0, -1.0, 0.0, 0.5, 0.0, 0.0, 3.0]}),
        epsilons=(0.5,),
        replicates=5,
        seed=2,
    )
    report = monte_carlo_risk(spec)
    row = report.per_block[0]
    assert row.bound_r_p is not None and math.isfinite(row.bound_r_p)
    assert row.bound_r0 is not None and math.isfinite(row.bound_r0)
    assert row.bound_r_p >= 0.0
    assert row.bound_r0 >= 0.0


# --------------------------------------------------------------------- rates


def test_mle_rate_slope_is_two():
    spec = ExperimentSpec(
        estimator="mle",
        truth=TruthSource.explicit({2: [0.3, -1.0, 2.0, 0.0]}),
        epsilons=(0.5, 0.25, 0.125, 0.0625),
        replicates=30,
        seed=1,
    )
    fit = rate_fit(spec)
    assert abs(fit.slope - 2.0) <= 0.02
    assert len(fit.points) == 4


def test_besov_extremal_rate_meets_floor():
    spec = ExperimentSpec(
        estimator="geb-hybrid",
        truth=TruthSource.besov_extremal(1.0, 10),
        epsilons=tuple(2.0**-k for k in range(4, 10)),
        replicates=100,
        seed=5,
        kde_mode="fourier",
    )
    fit = rate_fit(spec, jobs=2)
    assert fit.slope >= 2.0 / 1.5 - 0.15


def test_rate_fit_guards():
    truth = TruthSource.explicit({2: [1.0, 0.0, 0.0, 0.0]})
    with pytest.raises(ValueError):
        rate_fit(
            ExperimentSpec(
                estimator="mle", truth=truth, epsilons=(0.5, 0.25, 0.125), replicates=2
            )
        )
    with pytest.raises(NumericFailure):
        rate_fit(
            ExperimentSpec(
                estimator="oracle-truth",
                truth=truth,
                epsilons=(0.5, 0.25, 0.125, 0.0625),
                replicates=2,
            )
        )


# ------------------------------------------------------------- serialization


def test_report_serialization_round_trips():
    spec = ExperimentSpec(
        estimator="mle",
        truth=TruthSource.zero(2),
        epsilons=(0.5,),
        replicates=4,
        seed=3,
    )
    report = monte_carlo_risk(spec)
    as_dict = report_to_dict(report)
    assert json.loads(report_to_json(report)) == as_dict
    assert as_dict["estimator"] == "mle"
    assert as_dict["total_mse"] == report.total_mse
    assert len(as_dict["per_block"]) == len(report.per_block)

    lines = report_to_csv(report).strip().splitlines()
    assert lines[0].startswith("block_id,size,branch,empirical_mse")
    assert len(lines) == 2 + len(report.per_block)
    assert lines[-1].startswith("total,")
    # numeric columns re-read at full precision
    first = lines[1].split(",")
    assert float(first[3]) == report.per_block[0].empirical_mse


def test_estimator_catalog_is_stable():
    assert ESTIMATORS == (
        "geb-hybrid",
        "soft-universal",
        "hard-universal",
        "james-stein",
        "mle",
        "oracle-truth",
    )
