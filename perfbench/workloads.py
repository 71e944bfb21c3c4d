"""The four benchmark workloads and their correctness checks.

Every workload drives gebshrink through its public API or its CLI only,
and builds its inputs from the workload seed alone.  Each class offers:

  build(seed, workdir)    make the inputs (timed, in fresh interpreters, as setup_s)
  load(seed, workdir)     the same inputs in the benchmark process, untimed
  reference(inputs)       one untraced serial pass; also the warm-up
  op(inputs, i, ...)      one timed op; returns its output
  check(inputs, out, ref, recorded)
                          problems with an op's output (empty when correct)
  perturb(ref, workdir)   a deliberately wrong copy of ``ref``, which
                          ``check`` must reject
  summary(out)            the values kept in reference.json for the default seed
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np

# public names are looked up on the package at call time, so the traced
# run's wrappers see every call the benchmark makes
import gebshrink as gs
from gebshrink import io as gio

DEFAULT_SEED = 1
# the documented agreement between the two KDE routes
ROUTE_TOLERANCE = 1e-8
# |rule_risk(oracle_rule(g), g) - bayes_risk(g)|: two quadratures at tol 1e-8
ORACLE_TOLERANCE = 1e-7

SPARSE_ATOMS = ((0.0, 0.9), (-12.0, 0.05), (12.0, 0.05))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _close(a, b) -> bool:
    return abs(a - b) <= ROUTE_TOLERANCE * max(1.0, abs(b))


def compare_recorded(found: dict, recorded: dict, label: str) -> list:
    """Problems where ``found`` leaves the recorded values (floats within 1e-8)."""
    problems = []
    for key, want in recorded.items():
        got = found.get(key)
        if isinstance(want, float):
            ok = isinstance(got, float) and _close(got, want)
        else:
            ok = got == want
        if not ok:
            problems.append(f"{label}: {key} = {got!r}, recorded {want!r}")
    return problems


# ---------------------------------------------------------------------------
# Monte Carlo sweeps: compound and sparse


class MonteCarloSweep:
    """``monte_carlo_risk`` of ``geb-hybrid`` over a range of block sizes.

    One op is one sweep over every size at ``jobs = nproc``.  Its reports
    must equal, byte for byte, those of the serial reference pass at the
    same seed: the jobs-invariance guarantee.
    """

    pooled = True

    def __init__(self, name, truth, powers, replicates, compute_ideal):
        self.name = name
        self.truth = truth
        self.sizes = tuple(2**p for p in powers)
        self.replicates = replicates
        self.compute_ideal = compute_ideal

    def build(self, seed, workdir):
        cfg = gs.TuningConfig(b0=0.25)
        return [
            gs.ExperimentSpec(
                estimator="geb-hybrid",
                truth=self.truth(n),
                epsilons=(1.0,),
                replicates=self.replicates,
                seed=seed,
                cfg=cfg,
                compute_ideal=self.compute_ideal,
                kde_mode="fourier",
            )
            for n in self.sizes
        ]

    load = build

    def coefficients(self, inputs) -> int:
        return sum(n * self.replicates for n in self.sizes)

    def op(self, inputs, i, jobs):
        return [gs.report_to_json(gs.monte_carlo_risk(spec, jobs=jobs)) for spec in inputs]

    def reference(self, inputs):
        return self.op(inputs, 0, 1)

    def check(self, inputs, out, ref, recorded):
        problems = [
            f"n={n}: report differs from the serial pass"
            for n, got, want in zip(self.sizes, out, ref)
            if got != want
        ]
        if recorded is not None:
            problems += compare_recorded(self.summary(out), recorded, self.name)
        return problems

    def perturb(self, ref, workdir):
        return [ref[0].replace('"total_mse": ', '"total_mse": 1', 1), *ref[1:]]

    def summary(self, out):
        found = {}
        for n, text in zip(self.sizes, out):
            report = json.loads(text)
            found[f"n{n}.total_mse"] = report["total_mse"]
            if report["total_ideal"] is not None:
                found[f"n{n}.total_ideal"] = report["total_ideal"]
            found[f"n{n}.branches"] = ",".join(row["branch"] for row in report["per_block"])
        return found


def _sparse_prior():
    return gs.from_atoms([u for u, _ in SPARSE_ATOMS], [w for _, w in SPARSE_ATOMS])


COMPOUND = MonteCarloSweep(
    "compound",
    truth=lambda n: gs.TruthSource.gaussian_prior(1.0, n),
    powers=range(8, 14),
    replicates=4,
    compute_ideal=False,
)

SPARSE = MonteCarloSweep(
    "sparse",
    truth=lambda n: gs.TruthSource.atom_prior(_sparse_prior(), n),
    powers=range(8, 11),
    replicates=16,
    compute_ideal=True,
)


# ---------------------------------------------------------------------------
# exact-risk tables


class OracleTable:
    """Exact risks of seeded empirical priors and the sparse prior.

    One op is one full table: for each prior g, ``bayes_risk(g)``,
    ``rule_risk(oracle_rule(g), g)``, ``rule_risk(SoftThresholdRule(lam_n), g)``
    and ``density_floor_loss(rho_n, g)``, with lam_n and rho_n from the
    default tuning schedules at the prior's block size n.
    """

    name = "oracle"
    pooled = False
    sizes = (256, 1024, 4096)
    sparse_n = 1024
    columns = ("bayes", "oracle", "soft", "floor")

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        priors = [
            (f"gaussian{n}", n, gs.empirical_mixing(rng.standard_normal(n), 1.0))
            for n in self.sizes
        ]
        priors.append(("sparse", self.sparse_n, _sparse_prior()))
        return priors

    load = build

    def coefficients(self, inputs) -> int:
        # each prior is the empirical law of a block of that many coefficients
        return sum(prior.atom_count for _, _, prior in inputs)

    def risks(self, inputs) -> int:
        return len(self.columns) * len(inputs)

    def op(self, inputs, i, jobs=1):
        table = {}
        for label, n, prior in inputs:
            schedule = gs.tuning(n)
            table[label] = (
                gs.bayes_risk(prior),
                gs.rule_risk(gs.oracle_rule(prior), prior),
                gs.rule_risk(gs.SoftThresholdRule(schedule.lam), prior),
                gs.density_floor_loss(schedule.rho, prior),
            )
        return table

    def reference(self, inputs):
        return self.op(inputs, 0)

    def check(self, inputs, out, ref, recorded):
        problems = []
        for label, (bayes, oracle, soft, floor) in out.items():
            if not abs(oracle - bayes) <= ORACLE_TOLERANCE:
                problems.append(f"{label}: oracle rule risk {oracle!r} != bayes risk {bayes!r}")
            if not 0.0 <= bayes <= soft:
                problems.append(f"{label}: bayes risk {bayes!r} outside [0, soft {soft!r}]")
            if not (math.isfinite(floor) and floor >= 0.0):
                problems.append(f"{label}: density floor loss {floor!r}")
        if out != ref:
            problems.append("table differs from the reference pass")
        if recorded is not None:
            problems += compare_recorded(self.summary(out), recorded, self.name)
        return problems

    def perturb(self, ref, workdir):
        out = dict(ref)
        label = next(iter(out))
        bayes, oracle, soft, floor = out[label]
        out[label] = (bayes, oracle + 1e-6, soft, floor)
        return out

    def summary(self, out):
        return {
            f"{label}.{column}": value
            for label, row in out.items()
            for column, value in zip(self.columns, row)
        }


ORACLE = OracleTable()


# ---------------------------------------------------------------------------
# cold CLI denoising


def read_signal_columns(path):
    """The columns of a signal CSV as float arrays, parsed without gebshrink."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if body.shape[1] != len(header):
        raise ValueError(f"{len(header)} column names, {body.shape[1]} columns")
    return {name: body[:, k] for k, name in enumerate(header)}


def write_columns(path, columns):
    names = list(columns)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in zip(*(columns[name] for name in names)):
            writer.writerow([f"{v:.17g}" for v in row])


class CliDenoise:
    """``gebshrink denoise`` in a fresh process, default tuning.

    One op is one process on one of the four benchmark signals at
    N = 2^16 and SNR 7, taken in turn.  The noisy CSVs are written at
    set-up.
    """

    name = "denoise"
    pooled = False
    length = 2**16
    snr = 7.0

    def build(self, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        rng = np.random.default_rng(seed)
        inputs = []
        for signal in gs.SIGNAL_NAMES:
            samples, sigma = gs.test_signal(signal, self.length, self.snr)
            noisy = samples + sigma * rng.standard_normal(self.length)
            path = os.path.join(workdir, f"{signal}.csv")
            gio.write_signal_csv(path, noisy, truth=samples)
            inputs.append((signal, path))
        return inputs

    def load(self, seed, workdir):
        inputs = [(signal, os.path.join(workdir, f"{signal}.csv")) for signal in gs.SIGNAL_NAMES]
        for _, path in inputs:
            if not os.path.isfile(path):
                raise FileNotFoundError(f"set-up did not write {path}")
        return inputs

    def coefficients(self, inputs) -> int:
        return self.length

    def op(self, inputs, i, jobs=1, launcher=("-m", "gebshrink.cli")):
        signal, path = inputs[i % len(inputs)]
        output = path[: -len(".csv")] + ".out.csv"
        if os.path.exists(output):
            os.remove(output)
        done = subprocess.run(
            [sys.executable, *launcher, "denoise", "--input", path, "--output", output],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        return {"signal": signal, "returncode": done.returncode, "stderr": done.stderr, "output": output}

    def reference(self, inputs):
        return self.op(inputs, 0)

    def check(self, inputs, out, ref, recorded):
        label = out["signal"]
        if out["returncode"] != 0:
            return [f"{label}: exit {out['returncode']}: {out['stderr'].strip()[-300:]}"]
        try:
            columns = read_signal_columns(out["output"])
        except (OSError, ValueError, IndexError) as err:
            return [f"{label}: unreadable output: {err}"]
        estimate = columns.get("estimate")
        if estimate is None or estimate.size != self.length:
            return [f"{label}: output has no estimate column of length {self.length}"]
        if not np.all(np.isfinite(estimate)):
            return [f"{label}: estimate is not finite"]
        truth, noisy = columns["truth"], columns["value"]
        err_estimate = float(np.mean((estimate - truth) ** 2))
        err_noisy = float(np.mean((noisy - truth) ** 2))
        problems = []
        if not err_estimate < err_noisy:
            problems.append(f"{label}: estimate error {err_estimate:.6g} >= noisy error {err_noisy:.6g}")
        if recorded is not None:
            problems += compare_recorded(
                {"mse": err_estimate}, recorded.get(label, {}), f"{self.name}/{label}"
            )
        return problems

    def perturb(self, ref, workdir):
        columns = read_signal_columns(ref["output"])
        # doubles the noise instead of removing it
        columns["estimate"] = 2.0 * columns["value"] - columns["truth"]
        path = os.path.join(workdir, "perturbed.out.csv")
        write_columns(path, columns)
        return {**ref, "output": path}

    def summary(self, out):
        columns = read_signal_columns(out["output"])
        mse = float(np.mean((columns["estimate"] - columns["truth"]) ** 2))
        return {out["signal"]: {"mse": mse}}


DENOISE = CliDenoise()

WORKLOADS = {w.name: w for w in (COMPOUND, SPARSE, ORACLE, DENOISE)}


def setup_main(argv):
    """Entry point of a set-up interpreter: ``<workload> <seed> <workdir>``."""
    name, seed, workdir = argv
    WORKLOADS[name].build(int(seed), workdir)
