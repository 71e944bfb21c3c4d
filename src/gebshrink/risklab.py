"""Monte Carlo risk experiments over the blocked sequence model.

Replicate r of an experiment draws from a counter-based generator keyed
by (master seed, r), so results are bit-identical no matter how many
worker processes share the replicates, and two experiments that differ
only in the estimator see exactly the same truths and noise (paired
comparisons).  Per-replicate results are always reduced in replicate
order.  Parallel replicates run on one warm worker pool per process.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.random import Generator, Philox

from .blocks import BLOCK_ESTIMATORS, TuningConfig
from .errors import InvalidConfigError, NumericFailure
from .mixture import (
    MixingDistribution,
    empirical_mixing,
    mixture_summaries,
    signal_rate_bound,
    sparse_rate_bound,
)
from .sequence import BlockedSequence, block_ideal_risk, estimate_sequence
from .signals import test_signal
from .wavelets import dwt, wavelet_basis

ESTIMATORS = (*BLOCK_ESTIMATORS, "oracle-truth")

_TRUTH_KINDS = ("explicit", "zero", "besov", "signal", "gaussian-prior", "atom-prior")


# ---------------------------------------------------------------------------
# Besov norms


def besov_norm(levels, alpha, p, q) -> float:
    """Sequence-space Besov norm of dyadically organized coefficients.

    [| beta_{-1,1} |^q + sum_j (2^{j (alpha + 1/2 - 1/p)} ||beta_j||_p)^q]^(1/q)
    with the usual supremum modifications when p or q is infinite.
    """
    p = float(p)
    q = float(q)
    if not p > 0 or not q > 0:
        raise ValueError("p and q must be positive (possibly inf)")
    table = {int(j): np.asarray(v, dtype=float).ravel() for j, v in dict(levels).items()}
    terms = []
    for j in sorted(table):
        block = table[j]
        if j == -1:
            terms.append(abs(float(block[0])))
            continue
        if math.isinf(p):
            level_norm = float(np.abs(block).max()) if block.size else 0.0
        else:
            level_norm = float(np.sum(np.abs(block) ** p) ** (1.0 / p))
        terms.append(2.0 ** (j * (alpha + 0.5 - (0.0 if math.isinf(p) else 1.0 / p))) * level_norm)
    arr = np.array(terms)
    if math.isinf(q):
        return float(arr.max()) if arr.size else 0.0
    return float(np.sum(arr**q) ** (1.0 / q))


# ---------------------------------------------------------------------------
# truth sources


def _frozen_blocks(pairs):
    """((j, beta), ...) with each beta a read-only float copy."""
    out = tuple((int(j), np.array(v, dtype=float).ravel()) for j, v in pairs)
    for _, beta in out:
        beta.flags.writeable = False
    return out


def _zero_blocks(j_max):
    return [(j, np.zeros(2 ** max(j, 0))) for j in range(-1, j_max + 1)]


@dataclass(frozen=True, eq=False)
class TruthSource:
    """Where the true means come from.

    Deterministic kinds (explicit, zero, besov, signal) build beta once,
    as read-only ``((j, beta), ...)`` pairs in ``blocks``; a signal truth
    also carries its own noise scale sigma / sqrt(N) in ``epsilon``.
    Prior kinds (gaussian-prior, atom-prior) redraw theta i.i.d. from the
    prior on every replicate and set beta = epsilon * theta, which is the
    compound-estimation regime.
    """

    kind: str
    blocks: tuple = ()
    epsilon: float | None = None
    tau: float = math.nan
    size: int = 0
    prior: MixingDistribution | None = None

    def __post_init__(self):
        if self.kind not in _TRUTH_KINDS:
            raise ValueError(f"unknown truth kind {self.kind!r}")
        if not (self.is_random() or self.blocks):
            raise ValueError(f"{self.kind} truth needs at least one block")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def explicit(blocks) -> "TruthSource":
        pairs = blocks.items() if isinstance(blocks, dict) else blocks
        return TruthSource(kind="explicit", blocks=_frozen_blocks(pairs))

    @staticmethod
    def zero(j_max) -> "TruthSource":
        j_max = int(j_max)
        if j_max < -1:
            raise ValueError("j_max must be at least -1")
        return TruthSource(kind="zero", blocks=_frozen_blocks(_zero_blocks(j_max)))

    @staticmethod
    def besov_extremal(alpha, j_max) -> "TruthSource":
        """One coefficient per level: beta_{j,1} = 2^{-j (alpha + 1/2)}."""
        alpha = float(alpha)
        j_max = int(j_max)
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if j_max < 0:
            raise ValueError("j_max must be nonnegative")
        pairs = _zero_blocks(j_max)
        for j, beta in pairs[1:]:
            beta[0] = 2.0 ** (-j * (alpha + 0.5))
        return TruthSource(kind="besov", blocks=_frozen_blocks(pairs))

    @staticmethod
    def signal(name, n, snr) -> "TruthSource":
        """Periodic s8 wavelet coefficients of a test signal, with epsilon = sigma / sqrt(N)."""
        n = int(n)
        if n < 2 or n & (n - 1):
            raise ValueError(f"signal length must be a power of two, got {n}")
        samples, sigma = test_signal(name, n, float(snr))
        blocks = _frozen_blocks(dwt(samples, wavelet_basis("s8")).items())
        return TruthSource(kind="signal", blocks=blocks, epsilon=sigma / math.sqrt(n))

    @staticmethod
    def gaussian_prior(tau, size) -> "TruthSource":
        tau = float(tau)
        size = int(size)
        if not tau > 0:
            raise ValueError(f"tau must be positive, got {tau}")
        if size < 1:
            raise ValueError("size must be positive")
        return TruthSource(kind="gaussian-prior", tau=tau, size=size)

    @staticmethod
    def atom_prior(prior: MixingDistribution, size) -> "TruthSource":
        size = int(size)
        if size < 1:
            raise ValueError("size must be positive")
        return TruthSource(kind="atom-prior", prior=prior, size=size)

    # -- structure ---------------------------------------------------------

    def is_random(self) -> bool:
        return self.kind in ("gaussian-prior", "atom-prior")

    def block_ids_and_sizes(self):
        return tuple((j, beta.size) for j, beta in self.blocks) or ((0, self.size),)

    def draw_blocks(self, epsilon, rng):
        """Per-replicate beta arrays (prior kinds sample theta here)."""
        if self.kind == "gaussian-prior":
            theta = self.tau * rng.standard_normal(self.size)
        elif self.kind == "atom-prior":
            atoms = self.prior.locations
            theta = atoms[rng.choice(atoms.size, size=self.size, p=self.prior.weights)]
        else:
            return tuple(beta for _, beta in self.blocks)
        return (epsilon * theta,)


# ---------------------------------------------------------------------------
# experiment descriptions


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """A reproducible Monte Carlo risk experiment.

    epsilons is the noise grid (exactly one entry for monte_carlo_risk,
    at least four for rate_fit); signal truths carry their own epsilon
    and take an empty grid.  compute_ideal toggles the per-replicate
    posterior-mean benchmark for random truths (one quadrature each).
    kde_mode is validated but selects nothing: ``kde`` picks its route.
    """

    estimator: str
    truth: TruthSource
    epsilons: tuple = ()
    replicates: int = 1
    seed: int = 0
    cfg: TuningConfig = TuningConfig()
    bound_p: float = 2.0
    compute_ideal: bool = True
    kde_mode: str = "direct"

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}; choose from {ESTIMATORS}")
        if int(self.replicates) < 1:
            raise ValueError(f"replicates must be at least 1, got {self.replicates}")
        object.__setattr__(self, "replicates", int(self.replicates))
        object.__setattr__(self, "seed", int(self.seed))
        eps = tuple(float(e) for e in self.epsilons)
        if self.truth.epsilon is not None:
            if eps:
                raise ValueError("signal truths size their own noise; leave epsilons empty")
        else:
            if not eps:
                raise ValueError("need at least one epsilon")
            if not all(0.0 < e < math.inf for e in eps):
                raise ValueError(f"epsilons must be positive and finite, got {list(eps)}")
        object.__setattr__(self, "epsilons", eps)
        if not float(self.bound_p) > 0:
            raise ValueError("bound_p must be positive")
        if self.kde_mode not in ("direct", "fourier"):
            raise ValueError(f"unknown kde mode {self.kde_mode!r}")


def replicate_rng(seed, r) -> Generator:
    """Counter-based stream for replicate r of an experiment."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(r)], dtype=np.uint64)
    return Generator(Philox(key=key))


# ---------------------------------------------------------------------------
# risk reports


@dataclass(frozen=True)
class BlockReport:
    """Per-block row of a risk report; None marks unavailable columns."""

    block_id: int
    size: int
    branch: str
    empirical_mse: float | None
    ideal_risk: float | None
    bound_r_p: float | None
    bound_r0: float | None


# report column order: block_id, size, branch, then the four float columns
_BLOCK_COLUMNS = tuple(f.name for f in fields(BlockReport))


@dataclass(frozen=True)
class RiskReport:
    """Replicate-averaged risks, their decomposition, and metadata."""

    per_block: tuple
    total_mse: float
    total_ideal: float | None
    regret: float | None
    total_se: float
    replicates: int
    epsilon: float
    estimator: str
    seed: int

    def __post_init__(self):
        totals = (self.total_mse, self.total_ideal, self.regret, self.total_se)
        if not all(v is None or math.isfinite(v) for v in totals):
            raise NumericFailure(f"risk overflowed at epsilon {self.epsilon:g}: totals {totals}")
        blocks = tuple(self.per_block)
        object.__setattr__(self, "per_block", blocks)
        mse_sum = sum(row.empirical_mse for row in blocks if row.empirical_mse is not None)
        if blocks and abs(mse_sum - self.total_mse) > 1e-9 * max(1.0, abs(self.total_mse)):
            raise ValueError("total_mse must equal the sum of per-block entries")


# ---------------------------------------------------------------------------
# estimators


def _apply_estimator(spec: ExperimentSpec, epsilon, y_blocks, beta_blocks):
    """Run the chosen estimator; returns (estimate arrays, branch labels)."""
    if spec.estimator == "oracle-truth":
        return [beta.copy() for beta in beta_blocks], ["oracle"] * len(beta_blocks)
    seq = BlockedSequence(
        epsilon=epsilon,
        blocks=tuple((j, y) for (j, _), y in zip(spec.truth.block_ids_and_sizes(), y_blocks)),
    )
    estimates, fits = estimate_sequence(seq, spec.cfg, spec.estimator)
    return estimates, [fit.branch for fit in fits]


def _run_replicate(spec: ExperimentSpec, epsilon, r):
    """One replicate: returns (per-block sq errors, branches, per-block ideal)."""
    rng = replicate_rng(spec.seed, r)
    beta_blocks = spec.truth.draw_blocks(epsilon, rng)
    # overflow is reported once, as NumericFailure, not as numpy warnings
    with np.errstate(over="ignore"):
        y_blocks = [beta + epsilon * rng.standard_normal(beta.size) for beta in beta_blocks]
    if not all(np.all(np.isfinite(y)) for y in y_blocks):
        raise NumericFailure(f"observations overflow at epsilon {epsilon:g}")
    estimates, branches = _apply_estimator(spec, epsilon, y_blocks, beta_blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.array(
            [float(np.sum((est - beta) ** 2)) for est, beta in zip(estimates, beta_blocks)]
        )
    ideal = None
    if spec.truth.is_random() and spec.compute_ideal:
        ideal = np.array([block_ideal_risk(beta, epsilon) for beta in beta_blocks])
    return sq, branches, ideal


def _resolve_epsilon(spec: ExperimentSpec) -> float:
    if spec.truth.epsilon is not None:
        return spec.truth.epsilon
    if len(spec.epsilons) != 1:
        raise ValueError(
            f"monte_carlo_risk needs exactly one epsilon, got {len(spec.epsilons)}; "
            "use rate_fit for grids"
        )
    return spec.epsilons[0]


def _deterministic_ideal(spec, epsilon):
    if not spec.truth.blocks:
        return None
    return [block_ideal_risk(beta, epsilon) for _, beta in spec.truth.blocks]


def _check_picklable(spec):
    """Parallel replicates ship the spec to worker processes."""
    try:
        pickle.dumps(spec)
    except (pickle.PicklingError, AttributeError, TypeError) as err:
        raise InvalidConfigError(
            f"the experiment cannot be sent to worker processes ({err}); "
            "TuningConfig.eta must be a module-level function for parallel runs"
        ) from err


def _bounds_for_blocks(spec, epsilon, ids_sizes):
    """Per-block (r_p, r0) for deterministic or atom-prior truths."""
    if spec.truth.blocks:
        priors = [empirical_mixing(beta, epsilon) for _, beta in spec.truth.blocks]
    elif spec.truth.prior is not None:
        priors = [spec.truth.prior] * len(ids_sizes)
    else:
        return [(None, None) for _ in ids_sizes]
    p_eff = min(float(spec.bound_p), 2.0)
    out = []
    for prior, (_, size) in zip(priors, ids_sizes):
        if size < 3:
            out.append((None, None))
            continue
        magnitude = mixture_summaries(prior, p_eff, 1.0).mu_p
        out.append((sparse_rate_bound(size, magnitude, p_eff), signal_rate_bound(size, prior)))
    return out


# ---------------------------------------------------------------------------
# the worker pool


# ((pid, workers), executor) of the process's one live pool, or None
_pool = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _close_pool():
    """Shut the cached pool down and wait for it; a forked child only forgets it."""
    global _pool
    if _pool is not None and _pool[0][0] == os.getpid():
        _pool[1].shutdown(wait=True)
    _pool = None


def _worker_pool(workers) -> ProcessPoolExecutor:
    """The process's pool of ``workers`` workers, started on first use.

    Keyed by pid, so a forked child never reuses its parent's executor.
    A pool of another size is shut down before the new one forks its
    workers: forking while its manager thread runs can deadlock (cpython
    issue 90622).
    """
    global _pool
    key = (os.getpid(), workers)
    if _pool is None or _pool[0] != key:
        _close_pool()
        _pool = (key, ProcessPoolExecutor(max_workers=workers))
    return _pool[1]


def _pooled_replicates(workers, args, chunk):
    """_run_replicate over args on the warm pool, in replicate order.

    ``map`` submits every chunk before it returns, so a pool that broke
    before this call (a worker died) fails there, before any work, and is
    replaced once.  A pool that breaks during the run is dropped and the
    error raised; the next call starts a fresh one.
    """
    try:
        chunks = _worker_pool(workers).map(_run_replicate, *args, chunksize=chunk)
    except BrokenProcessPool:
        _close_pool()
        chunks = _worker_pool(workers).map(_run_replicate, *args, chunksize=chunk)
    try:
        return list(chunks)
    except BrokenProcessPool:
        _close_pool()
        raise


def monte_carlo_risk(spec: ExperimentSpec, jobs=1) -> RiskReport:
    """Replicate-averaged risk of the configured estimator.

    Deterministic function of (spec, nothing else): the worker count only
    changes wall time, never a bit of the report.  ``jobs`` is capped at
    the CPUs this process may use.  The first parallel call starts one
    pool of that many workers and later calls with the same count reuse
    it; workers are forked when the pool starts, so a monkeypatch applied
    after that does not reach them.
    """
    epsilon = _resolve_epsilon(spec)
    ids_sizes = spec.truth.block_ids_and_sizes()
    reps = spec.replicates
    jobs = max(1, int(jobs))

    args = ([spec] * reps, [epsilon] * reps, range(reps))
    if jobs > 1 and reps > 1:
        _check_picklable(spec)
        jobs = min(jobs, _usable_cpus())
    if jobs == 1 or reps == 1:
        results = list(map(_run_replicate, *args))
    else:
        results = _pooled_replicates(jobs, args, max(1, reps // (4 * jobs)))

    n_blocks = len(ids_sizes)
    sq_matrix = np.zeros((reps, n_blocks))
    ideal_matrix = np.zeros((reps, n_blocks))
    have_random_ideal = spec.truth.is_random() and spec.compute_ideal
    branch_counts = [dict() for _ in range(n_blocks)]
    for r, (sq, branches, ideal) in enumerate(results):
        sq_matrix[r] = sq
        if have_random_ideal:
            ideal_matrix[r] = ideal
        for b, label in enumerate(branches):
            branch_counts[b][label] = branch_counts[b].get(label, 0) + 1

    with np.errstate(over="ignore", invalid="ignore"):
        block_mse = sq_matrix.mean(axis=0)
        totals = sq_matrix.sum(axis=1)
        total_mse = float(block_mse.sum())
        total_se = float(totals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0

    if have_random_ideal:
        block_ideal = list(ideal_matrix.mean(axis=0))
    else:
        block_ideal = _deterministic_ideal(spec, epsilon)
    bounds = _bounds_for_blocks(spec, epsilon, ids_sizes)

    rows = []
    for b, (block_id, size) in enumerate(ids_sizes):
        modal = min(
            branch_counts[b].items(), key=lambda kv: (-kv[1], kv[0])
        )[0]
        rows.append(
            BlockReport(
                block_id=block_id,
                size=size,
                branch=modal,
                empirical_mse=float(block_mse[b]),
                ideal_risk=None if block_ideal is None else float(block_ideal[b]),
                bound_r_p=bounds[b][0],
                bound_r0=bounds[b][1],
            )
        )
    total_ideal = None if block_ideal is None else float(np.sum(block_ideal))
    regret = None if total_ideal is None else total_mse - total_ideal
    return RiskReport(
        per_block=tuple(rows),
        total_mse=total_mse,
        total_ideal=total_ideal,
        regret=regret,
        total_se=total_se,
        replicates=reps,
        epsilon=epsilon,
        estimator=spec.estimator,
        seed=spec.seed,
    )


# ---------------------------------------------------------------------------
# rate fits


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log risk against log epsilon."""

    slope: float
    intercept: float
    points: tuple  # (epsilon, total_mse, total_se) triples


def rate_fit(spec: ExperimentSpec, jobs=1) -> RateFit:
    """Fit the risk-versus-noise rate over spec.epsilons."""
    if len(spec.epsilons) < 4:
        raise ValueError(f"rate fits need at least 4 epsilons, got {len(spec.epsilons)}")
    points = []
    for eps in spec.epsilons:
        sub = replace(spec, epsilons=(eps,))
        report = monte_carlo_risk(sub, jobs=jobs)
        points.append((eps, report.total_mse, report.total_se))
    risks = np.array([p[1] for p in points])
    if np.any(risks <= 0) or not np.all(np.isfinite(risks)):
        raise NumericFailure(
            f"rate fit needs strictly positive finite risks, got {risks.tolist()}"
        )
    log_eps = np.log([p[0] for p in points])
    slope, intercept = np.polyfit(log_eps, np.log(risks), 1)
    return RateFit(slope=float(slope), intercept=float(intercept), points=tuple(points))


# ---------------------------------------------------------------------------
# serialization


def _clean(value):
    return None if value is None else float(value)


def _row_cells(row: BlockReport, fmt):
    """One per-block row in column order; fmt maps the float columns."""
    values = [getattr(row, name) for name in _BLOCK_COLUMNS]
    return values[:3] + [fmt(v) for v in values[3:]]


def report_to_dict(report: RiskReport) -> dict:
    return {
        "estimator": report.estimator,
        "epsilon": report.epsilon,
        "replicates": report.replicates,
        "seed": report.seed,
        "total_mse": _clean(report.total_mse),
        "total_ideal": _clean(report.total_ideal),
        "regret": _clean(report.regret),
        "total_se": _clean(report.total_se),
        "per_block": [
            dict(zip(_BLOCK_COLUMNS, _row_cells(row, _clean))) for row in report.per_block
        ],
    }


def report_to_json(report: RiskReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True, allow_nan=False)


def report_to_csv(report: RiskReport) -> str:
    buffer = _io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_BLOCK_COLUMNS)

    def fmt(v):
        return "" if v is None else f"{float(v):.17g}"

    for row in report.per_block:
        writer.writerow(_row_cells(row, fmt))
    writer.writerow(
        ["total", sum(r.size for r in report.per_block), "", fmt(report.total_mse), fmt(report.total_ideal), "", ""]
    )
    return buffer.getvalue()
