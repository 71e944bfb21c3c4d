"""Monte Carlo risk laboratory: experiment specs, reports, rates."""

import csv
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gebshrink import risklab
from gebshrink.blocks import TuningConfig
from gebshrink.errors import NumericFailure, QuadratureError, WorkerDied
from gebshrink.mixture import bayes_risk, empirical_mixing, from_atoms
from gebshrink.risklab import (
    ESTIMATORS,
    ExperimentSpec,
    TruthSource,
    monte_carlo_risk,
    rate_fit,
    replicate_rng,
    report_to_csv,
    report_to_dict,
    report_to_json,
)
from gebshrink.signals import SIGNAL_NAMES

# ---------------------------------------------------------------- validation


def test_truth_source_validation():
    with pytest.raises(ValueError):
        TruthSource(kind="mystery")
    with pytest.raises(ValueError, match="needs at least one block"):
        TruthSource(kind="signal")
    with pytest.raises(ValueError):
        TruthSource.explicit({})
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_deterministic_truth_is_rejected_when_built(value):
    # every replicate would otherwise fail as an observation overflow
    with pytest.raises(ValueError, match="truth level 0 holds a value that is not finite"):
        TruthSource.explicit({-1: [1.0], 0: [0.5, value]})


def test_deterministic_truth_blocks_are_read_only():
    source = np.array([0.3, -1.0, 2.0, 0.0])
    truths = (
        TruthSource.zero(3),
        TruthSource.besov_extremal(1.0, 3),
        TruthSource.signal("doppler", 64, 7.0),
        TruthSource.explicit({2: source}),
    )
    for truth in truths:
        assert truth.block_sizes() == {j: beta.size for j, beta in truth.blocks.items()}
        assert truth.draw_blocks(0.5, replicate_rng(0, 0)) is truth.blocks
        for beta in truth.blocks.values():
            assert not beta.flags.writeable
            with pytest.raises(ValueError):
                beta[0] = 1.0
    # explicit truths copy: the caller's array stays writeable and unlinked
    source[0] = 9.0
    assert truths[-1].blocks[2][0] == 0.3
    assert truths[1].blocks[2][0] == 2.0 ** (-2 * 1.5)


# ----------------------------------------------------------- the worker crew

_TEST_PID = os.getpid()
_REAL_ESTIMATE = risklab.estimate_sequence
_REAL_REPLICATE = risklab._run_replicate


def _exit_worker(*args, **kwargs):
    """Stands in for estimate_sequence: kills the crew worker calling it.

    The calling process runs share 0 itself, so there it runs the real
    estimate_sequence; it never kills this process.
    """
    if os.getpid() == _TEST_PID:
        return _REAL_ESTIMATE(*args, **kwargs)
    os._exit(1)


def _failing_replicate(spec, epsilon, r):
    """Stands in for _run_replicate: every replicate from number ``spec.seed`` on fails."""
    if r >= spec.seed:
        raise NumericFailure(f"replicate {r} failed")
    return _REAL_REPLICATE(spec, epsilon, r)


def _interrupted_replicate(spec, epsilon, r):
    """Stands in for _run_replicate: an interrupt in this process, the real replicate in a worker."""
    if os.getpid() == _TEST_PID:
        raise KeyboardInterrupt
    return _REAL_REPLICATE(spec, epsilon, r)


def _closed(crew):
    """Every pipe of the crew closed and every worker reaped."""
    return all(conn.closed and proc.exitcode is not None for proc, conn in crew)


@pytest.fixture
def started_crews(monkeypatch):
    """Crews started during the test, on a host that reports three usable CPUs.

    Each crew is its list of (process, caller end) members.  No crew is
    cached when the test starts, and the test's crews are stopped when it
    ends.
    """
    started = []
    start_or_reuse = risklab._worker_crew

    def recording(workers):
        crew = start_or_reuse(workers)
        if not any(crew is seen for seen in started):
            started.append(crew)
        return crew

    risklab._close_crew()
    monkeypatch.setattr(risklab, "_worker_crew", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    yield started
    risklab._close_crew()


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


def test_one_crew_serves_every_call(started_crews):
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
    # jobs counts the calling process: two jobs are one worker and the caller
    assert [len(crew) for crew in started_crews] == [1]
    assert not _closed(started_crews[0])


def test_a_new_worker_count_replaces_the_crew(started_crews):
    spec = _small_spec()
    serial = report_to_json(monte_carlo_risk(spec, jobs=1))
    for jobs in (2, 3, 3):
        assert report_to_json(monte_carlo_risk(spec, jobs=jobs)) == serial
    assert [len(crew) for crew in started_crews] == [1, 2]
    assert [_closed(crew) for crew in started_crews] == [True, False]


def test_a_dead_worker_is_replaced(started_crews, monkeypatch):
    spec = _small_spec()
    serial = report_to_json(monte_carlo_risk(spec, jobs=1))
    monte_carlo_risk(spec, jobs=2)
    (proc, _), = started_crews[0]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(10)
    assert proc.exitcode == -signal.SIGKILL
    # found dead before any work: replaced, and the call succeeds
    assert report_to_json(monte_carlo_risk(spec, jobs=2)) == serial
    assert len(started_crews) == 2 and _closed(started_crews[0])
    # dead during the run: the call fails and the next one starts afresh.
    # Workers fork when a crew starts, so only a crew started under the
    # patch runs the stand-in.
    with monkeypatch.context() as patch:
        risklab._close_crew()
        patch.setattr(risklab, "estimate_sequence", _exit_worker)
        with pytest.raises(WorkerDied, match="exit code 1"):
            monte_carlo_risk(spec, jobs=2)
    assert len(started_crews) == 3 and _closed(started_crews[1]) and _closed(started_crews[2])
    assert report_to_json(monte_carlo_risk(spec, jobs=2)) == serial
    assert len(started_crews) == 4 and not _closed(started_crews[3])


@pytest.mark.parametrize("first_failure", [1, 2])
def test_a_failing_replicate_raises_as_in_a_serial_run(started_crews, monkeypatch, first_failure):
    # four replicates at jobs = 2: the caller runs 0-1 and the worker 2-3,
    # so the first failure is in the caller's share or in the worker's only
    monkeypatch.setattr(risklab, "_run_replicate", _failing_replicate)
    spec = _small_spec(seed=first_failure)
    with pytest.raises(NumericFailure) as serial:
        monte_carlo_risk(spec, jobs=1)
    with pytest.raises(NumericFailure) as parallel:
        monte_carlo_risk(spec, jobs=2)
    assert type(parallel.value) is type(serial.value)
    assert parallel.value.args == serial.value.args == (f"replicate {first_failure} failed",)
    # every reply was read: the same crew serves the next call correctly
    good = _small_spec()
    assert report_to_json(monte_carlo_risk(good, jobs=2)) == report_to_json(monte_carlo_risk(good, jobs=1))
    assert len(started_crews) == 1 and not _closed(started_crews[0])


def test_an_explicit_truth_keeps_its_dict_order(started_crews):
    # levels out of order draw their noise and list their rows in the given order
    values = np.random.default_rng(5).choice([-3.0, 0.0, 3.0], size=80)
    blocks = {5: values, -1: [1.5], 2: [0.5, -2.0, 1.0, 0.0]}
    spec = _small_spec(truth=TruthSource.explicit(blocks), cfg=TuningConfig(b0=0.25, n_star=8))
    reports = {report_to_json(monte_carlo_risk(spec, jobs=jobs)) for jobs in (1, 2)}
    assert len(reports) == 1
    assert [row["block_id"] for row in json.loads(reports.pop())["per_block"]] == [5, -1, 2]


def _far_ideal_replicate(spec, epsilon, r):
    """Stands in for _run_replicate: replicate ``spec.seed`` hands on a block
    whose ideal risk fails in quadrature, and replicate ``spec.seed + 1``
    fails in its estimate."""
    if r == spec.seed + 1:
        raise NumericFailure(f"replicate {r} failed")
    sq, branches, beta_blocks = _REAL_REPLICATE(spec, epsilon, r)
    if r == spec.seed:
        beta_blocks = {0: np.array([0.0, 1e200])}  # atoms 1e200 apart: non-finite integrand
    return sq, branches, beta_blocks


@pytest.mark.parametrize("first_failure", [0, 1, 2])
def test_an_ideal_risk_failure_before_an_estimate_failure_wins(started_crews, monkeypatch, first_failure):
    # four replicates at jobs = 2: shares 0-1 and 2-3.  The ideal risk of
    # replicate first_failure fails, and the estimate of the next one: in a
    # serial run the ideal risk comes first, whether the two replicates
    # share a batch (0, 2) or not (1)
    monkeypatch.setattr(risklab, "_run_replicate", _far_ideal_replicate)
    spec = _small_spec(seed=first_failure, truth=TruthSource.atom_prior(from_atoms([0.0, 3.0], [0.5, 0.5]), 8))
    with pytest.raises(QuadratureError) as serial:
        monte_carlo_risk(spec, jobs=1)
    with pytest.raises(QuadratureError) as parallel:
        monte_carlo_risk(spec, jobs=2)
    assert parallel.value.args == serial.value.args
    assert serial.value.interval == (-8.0, 1e200 + 8.0)
    # without ideal risks, the estimate failure is the first
    with pytest.raises(NumericFailure, match=f"replicate {first_failure + 1} failed"):
        monte_carlo_risk(replace(spec, compute_ideal=False), jobs=2)


def _ideal_by_replicate(spec):
    """Each replicate's ideal risk, priced alone with bayes_risk."""
    epsilon = spec.epsilons[0]
    betas = [spec.truth.draw_blocks(epsilon, replicate_rng(spec.seed, r))[0] for r in range(spec.replicates)]
    priors = [empirical_mixing(beta, epsilon) for beta in betas]
    return [epsilon * epsilon * beta.size * bayes_risk(g) for beta, g in zip(betas, priors)], priors


@pytest.mark.parametrize(
    "truth",
    [
        TruthSource.atom_prior(from_atoms([0.0, -3.0, 3.0], [0.6, 0.2, 0.2]), 4),
        TruthSource.gaussian_prior(1.0, 48),
    ],
    ids=["atoms-n4", "gaussian-n48"],
)
def test_ideal_risks_priced_per_share_match_each_replicate_alone(started_crews, truth):
    spec = ExperimentSpec(
        estimator="geb-hybrid", truth=truth, epsilons=(0.5,), replicates=24, seed=5
    )
    alone, priors = _ideal_by_replicate(spec)
    if truth.kind == "atom-prior":
        # replicates draw 1, 2 or 3 distinct atoms: batches mix atom counts
        assert len({g.atom_count for g in priors}) == 3
    serial = monte_carlo_risk(spec, jobs=1)
    (row,) = serial.per_block
    assert row.ideal_risk == float(np.array(alone)[:, None].mean(axis=0)[0])
    for jobs in (2, 3):
        assert report_to_json(monte_carlo_risk(spec, jobs=jobs)) == report_to_json(serial)


def test_ideal_batches_cut_mid_share_change_no_bit(started_crews, monkeypatch):
    spec = ExperimentSpec(
        estimator="mle", truth=TruthSource.gaussian_prior(1.0, 40), epsilons=(0.5,), replicates=8, seed=8
    )
    whole = report_to_json(monte_carlo_risk(spec, jobs=1))
    batches = []
    price = risklab.block_ideal_risks

    def recorded(blocks, epsilon):
        batches.append(len(blocks))
        return price(blocks, epsilon)

    # replicates of 40 coefficients: a batch fills once it holds at least
    # _IDEAL_BATCH of them, and the count starts over after each batch
    monkeypatch.setattr(risklab, "block_ideal_risks", recorded)
    for size, cuts in ((120, [3, 3, 2]), (100, [3, 3, 2]), (50, [2, 2, 2, 2]), (1, [1] * 8)):
        monkeypatch.setattr(risklab, "_IDEAL_BATCH", size)
        batches.clear()
        assert report_to_json(monte_carlo_risk(spec, jobs=1)) == whole
        assert batches == cuts
    monkeypatch.setattr(risklab, "_IDEAL_BATCH", 120)
    risklab._close_crew()
    assert report_to_json(monte_carlo_risk(spec, jobs=2)) == whole


def test_an_interrupt_discards_the_crew(started_crews, monkeypatch):
    spec = _small_spec()
    serial = report_to_json(monte_carlo_risk(spec, jobs=1))
    with monkeypatch.context() as patch:
        patch.setattr(risklab, "_run_replicate", _interrupted_replicate)
        with pytest.raises(KeyboardInterrupt):
            monte_carlo_risk(spec, jobs=2)
    # the worker's share was left unread, so its crew is gone
    assert len(started_crews) == 1 and _closed(started_crews[0])
    assert report_to_json(monte_carlo_risk(spec, jobs=2)) == serial
    assert len(started_crews) == 2 and not _closed(started_crews[1])


def test_without_fork_every_replicate_runs_here(started_crews, monkeypatch):
    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    spec = _small_spec()
    serial = report_to_json(monte_carlo_risk(spec, jobs=1))
    assert report_to_json(monte_carlo_risk(spec, jobs=2)) == serial
    assert started_crews == [[]]


def test_jobs_are_capped_at_the_usable_cpus(started_crews):
    ncpu = len(os.sched_getaffinity(0))
    spec = _small_spec()
    serial = report_to_json(monte_carlo_risk(spec, jobs=1))
    assert report_to_json(monte_carlo_risk(spec, jobs=ncpu + 1)) == serial
    assert [len(crew) for crew in started_crews] == [ncpu - 1]


def _running(pid):
    """Whether pid is a live process (a zombie no longer runs)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


_CREW_SCRIPT = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1, 2}
from gebshrink import risklab
spec = risklab.ExperimentSpec(
    estimator="mle", truth=risklab.TruthSource.zero(3), epsilons=(0.5,), replicates=6
)
risklab.monte_carlo_risk(spec, jobs=3)
print(*[proc.pid for proc, _ in risklab._crew[1]], flush=True)
sys.stdin.readline()
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
@pytest.mark.parametrize("ending", ["exit", "sigkill"])
def test_no_worker_outlives_its_caller(ending):
    with subprocess.Popen(
        [sys.executable, "-c", _CREW_SCRIPT],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as caller:
        try:
            pids = [int(pid) for pid in caller.stdout.readline().split()]
            assert len(pids) == 2 and all(_running(pid) for pid in pids)
            if ending == "sigkill":
                caller.kill()
            else:
                caller.stdin.close()
            caller.wait(10)
        finally:
            caller.kill()
    deadline = time.monotonic() + 10.0
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    orphans = [pid for pid in pids if _running(pid)]
    for pid in orphans:  # leave no process behind, even when failing
        os.kill(pid, signal.SIGKILL)
    assert not orphans


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


@pytest.mark.parametrize("truth", [TruthSource.gaussian_prior(1.0, 64), TruthSource.besov_extremal(1.0, 5)])
def test_rate_fit_prices_no_ideal_risk(monkeypatch, truth):
    # a rate fit reads only the totals, so it runs no ideal-risk quadrature
    spec = ExperimentSpec(estimator="mle", truth=truth, epsilons=(1.0, 0.5, 0.25, 0.125), replicates=3, seed=2)
    want = rate_fit(spec)

    def no_pricing(*args, **kwargs):
        raise AssertionError("an ideal risk was priced")

    monkeypatch.setattr(risklab, "block_ideal_risks", no_pricing)
    assert rate_fit(spec) == want


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


def test_rate_fit_rejects_repeated_epsilons_before_any_replicate(monkeypatch):
    # equal epsilons made np.polyfit fail in LAPACK after every replicate ran
    def no_run(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(risklab, "monte_carlo_risk", no_run)
    spec = ExperimentSpec(
        estimator="mle", truth=TruthSource.zero(3), epsilons=(0.5, 0.25, 0.125, 0.25), replicates=2
    )
    with pytest.raises(ValueError, match=r"distinct epsilons, got 0\.25 more than once"):
        rate_fit(spec)


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

    columns = ["block_id", "size", "branch", "empirical_mse", "ideal_risk"]
    assert all(sorted(block) == sorted(columns) for block in as_dict["per_block"])

    lines = report_to_csv(report).strip().splitlines()
    assert lines[0] == ",".join(columns)
    assert len(lines) == 2 + len(report.per_block)
    assert lines[-1].startswith("total,")
    assert all(len(cells) == len(columns) for cells in csv.reader(lines))
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
