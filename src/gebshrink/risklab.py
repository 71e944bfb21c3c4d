"""Monte Carlo risk experiments over the blocked sequence model.

Replicate r of an experiment draws from a counter-based generator keyed
by (master seed, r), so results are bit-identical no matter how many
processes share the replicates, and two experiments that differ only in
the estimator see exactly the same truths and noise (paired
comparisons).  Per-replicate results are always reduced in replicate
order.  A parallel run cuts the replicates into one contiguous share per
process: the calling process runs the first share itself, and each other
share goes to one worker of a warm crew of forked workers, one pipe each.

The ideal risk of a random truth is priced per share, not per replicate:
the share's replicates are estimated first, and their blocks' Bayes risks
then go through one lockstep quadrature (``mixture.bayes_risks``) in
batches of up to ``_IDEAL_BATCH`` coefficients.  Each risk is bit-identical
to its own ``bayes_risk``, so the batching changes no report bit, and a
failing replicate raises the error a serial run would meet first.
"""

from __future__ import annotations

import atexit
import csv
import io as _io
import json
import math
import os
import signal
from dataclasses import dataclass, fields, replace

import numpy as np

from .blocks import ESTIMATORS, TuningConfig
from .errors import NumericFailure, WorkerDied
from .mixture import MixingDistribution
from .sequence import BlockedSequence, block_ideal_risks, estimate_sequence
from .signals import test_signal
from .wavelets import dwt, wavelet_basis

_TRUTH_KINDS = ("explicit", "zero", "besov", "signal", "gaussian-prior", "atom-prior")
# the one error for an epsilon grid or a rate fit on a truth with its own epsilon
_FIXED_EPSILON = (
    "a signal truth fixes its own epsilon, sigma / sqrt(N), so it takes no "
    "epsilon grid and no rate fit, which varies epsilon"
)
# coefficients whose ideal risks a share prices in one lockstep batch: a
# bound on the batch's memory, far above the small blocks that gain from it
_IDEAL_BATCH = 1 << 16


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
        if not 0 < alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
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
        if not 0 < tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {tau}")
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
    at least four distinct ones for rate_fit); signal truths carry their
    own epsilon and take an empty grid.  compute_ideal toggles the ideal
    risk for every truth: the posterior-mean benchmark of each block's
    empirical distribution for a deterministic truth, and of each
    replicate's draw for a random one (one Bayes risk each, priced per
    share in lockstep).  Without it total_ideal and regret are None.
    kde_mode is validated but selects nothing: ``kde`` picks its route.
    No command sets it; it stays only for callers that still pass it.
    """

    estimator: str
    truth: TruthSource
    epsilons: tuple = ()
    replicates: int = 1
    seed: int = 0
    cfg: TuningConfig = TuningConfig()
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
                raise ValueError(_FIXED_EPSILON)
        else:
            if not eps:
                raise ValueError("need at least one epsilon")
            if not all(0.0 < e < math.inf for e in eps):
                raise ValueError(f"epsilons must be positive and finite, got {list(eps)}")
        object.__setattr__(self, "epsilons", eps)
        if self.kde_mode not in ("direct", "fourier"):
            raise ValueError(f"unknown kde mode {self.kde_mode!r}")


def replicate_rng(seed, r) -> np.random.Generator:
    """Counter-based stream for replicate r of an experiment.

    The attribute access loads ``numpy.random`` (lazily, on numpy 2), so a
    process that draws nothing never imports it.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(r)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


# report column order: block_id, size, branch, then the two float columns
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
    """One replicate up to its ideal risk: returns (per-block sq errors,
    branches, beta blocks)."""
    rng = replicate_rng(spec.seed, r)
    # overflow, of epsilon * theta or of the observations, is reported once,
    # as NumericFailure, not as numpy warnings
    with np.errstate(over="ignore"):
        beta_blocks = spec.truth.draw_blocks(epsilon, rng)
        y_blocks = [beta + epsilon * rng.standard_normal(beta.size) for beta in beta_blocks]
    if not all(np.all(np.isfinite(y)) for y in y_blocks):
        raise NumericFailure(f"observations overflow at epsilon {epsilon:g}")
    estimates, branches = _apply_estimator(spec, epsilon, y_blocks, beta_blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.array(
            [float(np.sum((est - beta) ** 2)) for est, beta in zip(estimates, beta_blocks)]
        )
    return sq, branches, beta_blocks


def _resolve_epsilon(spec: ExperimentSpec) -> float:
    if spec.truth.epsilon is not None:
        return spec.truth.epsilon
    if len(spec.epsilons) != 1:
        raise ValueError(
            f"monte_carlo_risk needs exactly one epsilon, got {len(spec.epsilons)}; "
            "use rate_fit for grids"
        )
    return spec.epsilons[0]


# ---------------------------------------------------------------------------
# the worker crew


# (pid, [(process, caller end), ...]) of the process's one live crew, or None
_crew = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_share(spec, epsilon, share):
    """Per-replicate ``(sq errors, branches, ideal)`` over ``share`` in
    order, or the first exception a serial run would raise.

    The ideal risks (random truths with compute_ideal; each replicate draws
    one block) are priced in lockstep batches of up to ``_IDEAL_BATCH``
    coefficients.  A replicate that fails has the ideal risks of the
    replicates before it priced first, since a serial run prices those
    earlier: a failure there wins.
    """
    pricing = spec.truth.is_random() and spec.compute_ideal
    runs, ideals, waiting = [], [], []
    waiting_size = 0

    def price():
        if waiting:
            ideals.extend(block_ideal_risks(waiting, epsilon))
            waiting.clear()

    try:
        for r in share:
            try:
                sq, branches, beta_blocks = _run_replicate(spec, epsilon, r)
            except Exception:
                price()
                raise
            runs.append((sq, branches))
            if pricing:
                waiting.extend(beta_blocks)
                waiting_size += sum(beta.size for beta in beta_blocks)
                if waiting_size >= _IDEAL_BATCH:
                    price()
                    waiting_size = 0
        price()
    except Exception as err:
        return err
    if not pricing:
        return [(sq, branches, None) for sq, branches in runs]
    return [(sq, branches, np.array([ideal])) for (sq, branches), ideal in zip(runs, ideals)]


def _serve(conn, inherited):
    """A worker: answer each ``(spec, epsilon, share)`` with ``_run_share``,
    until it receives None or the caller's end closes.

    ``inherited`` holds the caller ends this fork copied, its own and those
    of the workers forked before it.  Closing them leaves the caller the
    only holder, so every worker sees EOF once the caller is gone.  SIGINT
    is ignored: the caller handles an interrupt and kills its crew.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in inherited:
        end.close()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        try:
            conn.send(_run_share(*task))
        except OSError:
            return


def _close_crew(kill=False):
    """Stop the cached crew and reap it; a forked child only forgets it.

    Idle workers are sent None.  ``kill`` is for a crew that may be mid-share
    (a dead worker or an interrupt during a run): its workers are killed, so
    no stale reply is ever read.
    """
    global _crew
    crew, _crew = _crew, None
    if crew is None or crew[0] != os.getpid():
        return
    for proc, conn in crew[1]:
        if kill:
            proc.kill()
        else:
            try:
                conn.send(None)
            except OSError:  # that worker is already gone
                pass
        conn.close()
    for proc, _ in crew[1]:
        proc.join()


def _worker_crew(workers):
    """The process's crew of ``workers`` forked workers, each on its own pipe,
    started on first use; [] where fork is unavailable.

    Keyed by pid, so a forked child never reuses its parent's crew.  A crew
    of another size, or one with a worker that died while idle, is replaced
    before any work.  ``multiprocessing`` is imported here, so that a serial
    process never loads it.
    """
    import multiprocessing

    global _crew
    if _crew is not None and _crew[0] == os.getpid() and len(_crew[1]) == workers:
        if all(proc.is_alive() for proc, _ in _crew[1]):
            return _crew[1]
    _close_crew()
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return []
    # cached before the first fork, so a fork that fails leaves a short crew
    # that the next call replaces
    members = []
    _crew = (os.getpid(), members)
    # multiprocessing's own exit hook joins its children; registered after
    # it, this one runs first and lets the workers exit on None
    atexit.unregister(_close_crew)
    atexit.register(_close_crew)
    for _ in range(workers):
        caller_end, worker_end = context.Pipe()
        inherited = [end for _, end in members] + [caller_end]
        proc = context.Process(target=_serve, args=(worker_end, inherited), daemon=True)
        proc.start()
        worker_end.close()
        members.append((proc, caller_end))
    return members


def _replicates(crew, spec, epsilon, reps):
    """_run_replicate over range(reps), in replicate order.

    The replicates are cut into up to len(crew) + 1 contiguous shares.  Each
    worker gets one share; the caller runs share 0 itself, then reads every
    worker's reply.  A replicate that raises raises here as it would in a
    serial loop: the first failing replicate, in replicate order, wins.
    """
    shares = min(len(crew) + 1, reps)
    cuts = [k * reps // shares for k in range(shares + 1)]
    ranges = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    busy = crew[: shares - 1]
    try:
        for member, share in zip(busy, ranges[1:]):
            member[1].send((spec, epsilon, share))
        replies = [_run_share(spec, epsilon, ranges[0])]
        for member in busy:
            replies.append(member[1].recv())
    except (EOFError, OSError) as err:
        _close_crew(kill=True)
        proc = member[0]
        raise WorkerDied(f"pid {proc.pid}, exit code {proc.exitcode}") from err
    except BaseException:
        if busy:
            _close_crew(kill=True)
        raise
    results = []
    for reply in replies:
        if isinstance(reply, Exception):
            raise reply
        results += reply
    return results


def monte_carlo_risk(spec: ExperimentSpec, jobs=1) -> RiskReport:
    """Replicate-averaged risk of the configured estimator.

    Deterministic function of (spec, nothing else): ``jobs`` only changes
    wall time, never a bit of the report.  ``jobs`` counts the processes
    that run replicates, this one included, and is capped at the CPUs this
    process may use.  The first parallel call forks a crew of jobs - 1
    workers and later calls with the same count reuse it; workers are
    forked when the crew starts, so a monkeypatch applied after that does
    not reach them.  A worker that dies during the call raises
    ``WorkerDied``, and the next call starts a fresh crew.  Where fork is
    unavailable every replicate runs in this process.
    """
    epsilon = _resolve_epsilon(spec)
    ids_sizes = spec.truth.block_ids_and_sizes()
    reps = spec.replicates
    jobs = max(1, int(jobs))
    if jobs > 1 and reps > 1:
        jobs = min(jobs, _usable_cpus())
    crew = _worker_crew(jobs - 1) if jobs > 1 and reps > 1 else []
    results = _replicates(crew, spec, epsilon, reps)

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

    if not spec.compute_ideal:
        block_ideal = None
    elif have_random_ideal:
        block_ideal = list(ideal_matrix.mean(axis=0))
    else:
        block_ideal = block_ideal_risks([beta for _, beta in spec.truth.blocks], epsilon)

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
    if spec.truth.epsilon is not None:
        raise ValueError(_FIXED_EPSILON)
    if len(spec.epsilons) < 4:
        raise ValueError(f"rate fits need at least 4 epsilons, got {len(spec.epsilons)}")
    repeated = [eps for i, eps in enumerate(spec.epsilons) if eps in spec.epsilons[:i]]
    if repeated:
        # equal abscissae leave the least-squares line undetermined
        raise ValueError(f"rate fits need distinct epsilons, got {repeated[0]!r} more than once")
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
    total = {
        "block_id": "total",
        "size": sum(r.size for r in report.per_block),
        "empirical_mse": fmt(report.total_mse),
        "ideal_risk": fmt(report.total_ideal),
    }
    writer.writerow([total.get(name, "") for name in _BLOCK_COLUMNS])
    return buffer.getvalue()
