"""gebshrink benchmark: four workloads, end-to-end metrics, and a traced run.

Run from the root of a gebshrink checkout:

    python3 perfbench/run.py --workload compound --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, op latency,
throughput, peak RSS); ``--trace 1`` runs the same workload with every
public gebshrink function wrapped in a span and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads, ops and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE_FILE = os.path.join(HERE, "reference.json")

SETUP_REPEATS = 5
MIN_OPS = 3
SERIAL_PASSES = 3
IMPORTTIME_REPEATS = 3
# BLAS thread pools are pinned to one thread in the benchmark and in every
# process it starts: with threaded BLAS, jobs = nproc pool workers run
# nproc x nproc threads on nproc cores, and the timings then measure the
# scheduler rather than gebshrink.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FOUND_ENV = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import workloads; workloads.setup_main(sys.argv[2:])"
)

# layers that must show calls in the traced run of each workload
EXPECTED_LAYERS = {
    "compound": ("risklab", "sequence", "blocks", "kde", "mixture"),
    "sparse": ("risklab", "sequence", "blocks", "kde", "mixture", "quadrature"),
    "oracle": ("mixture", "quadrature", "thresholds"),
    "denoise": ("cli", "io", "wavelets", "sequence", "blocks", "thresholds", "mixture"),
}
# workloads predicted never to reach the KDE
KDE_BYPASS = ("oracle", "denoise")

SPAN_SELF = (
    "cli.main",
    "io.read_signal_csv",
    "io.write_signal_csv",
    "wavelets.dwt",
    "wavelets.idwt",
    "wavelets.mad_sigma",
    "wavelets.denoise_equispaced",
    "sequence.estimate_sequence",
    "blocks.hybrid_fit",
    "blocks.kappa_hat",
    "kde.kde_fit",
    "kde.kde_eval",
    "kde.spectrum",
    "mixture.rule_apply",
    "mixture.bayes_risk",
    "mixture.rule_risk",
    "mixture.density_floor_loss",
    "mixture.integrand",
    "quadrature.integrate",
    "thresholds.soft_threshold_risk",
    "thresholds.threshold",
    "thresholds.integrand",
    "risklab.monte_carlo_risk",
    "risklab.draw_blocks",
)
SPAN_CALLS = (
    "sequence.estimate_sequence",
    "blocks.hybrid_fit",
    "kde.kde_fit",
    "kde.kde_eval",
    "mixture.bayes_risk",
    "mixture.rule_risk",
    "quadrature.integrate",
    "thresholds.soft_threshold_risk",
)
# computed from array and file sizes, per op
COMPUTED = {
    "io.bytes": "B/op",
    "kde.eval_points": "count/op",
    "kde.spectrum_ops": "count/op",
    "kde.eval_ops": "count/op",
    "quadrature.integrand_points": "count/op",
    "risklab.replicates": "count/op",
}


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in output order."""
    units = {f"import.{pkg}_s": "s" for pkg in ("numpy", "scipy", "gebshrink")}
    for name in SPAN_SELF:
        units[f"{name}.self_s"] = "s/op"
    for name in SPAN_CALLS:
        units[f"{name}.calls"] = "calls/op"
    units.update(COMPUTED)
    units.update(
        {
            "blocks.geb_share": "ratio",
            "kde.nodes_per_sample": "ratio",
            "risklab.serial_wall_s": "s",
            "risklab.pool_efficiency": "ratio",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "coef_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# bookkeeping


class Tally:
    """Ops attempted and failed; an op fails if it raises or fails its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, jobs) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_found": FOUND_ENV,
        "blas_threads_used": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_revision": git_revision(),
    }


def peak_rss_mb() -> float:
    """Max RSS of this process and of its largest waited-for child (a max, not a sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def load_recorded(workload):
    if not os.path.isfile(REFERENCE_FILE):
        return None
    with open(REFERENCE_FILE) as fh:
        return json.load(fh).get(workload)


# ---------------------------------------------------------------------------
# phases


def time_setup(name, seed, target) -> float:
    """Wall time of one set-up in a fresh interpreter, writing into ``target``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, HERE, name, str(seed), target], check=True)
    return time.perf_counter() - start


def self_test(workload, inputs, ref, workdir, recorded) -> bool:
    """A perturbed copy of the reference output must be counted as failed."""
    tally = Tally()
    tally.record(workload.check(inputs, workload.perturb(ref, workdir), ref, recorded))
    print(
        f"self-test: perturbed {workload.name} output counted as failed "
        f"(failed_ratio {tally.failed}/{tally.attempted})"
        if tally.failed == 1
        else f"self-test: perturbed {workload.name} output passed its check"
    )
    return tally.failed == 1


def op_loop(seconds, run_op, check, tally, first=0, min_ops=MIN_OPS):
    """Closed loop: the next op starts when the previous one is checked."""
    walls = []
    deadline = time.perf_counter() + seconds
    i = first
    while len(walls) < min_ops or time.perf_counter() < deadline:
        start = time.perf_counter()
        try:
            out = run_op(i)
        except Exception as err:  # an op that raises is a failed op, not a crash
            walls.append(time.perf_counter() - start)
            tally.record([f"op {i} raised {err!r}"])
        else:
            walls.append(time.perf_counter() - start)
            tally.record(check(i, out))
        i += 1
    return walls


def timed_run(workload, args, jobs, workdir, recorded):
    tally = Tally()
    setup_walls, walls = [], []
    looped = 0.0
    # the set-ups are spread over the run, between slices of the op loop, so
    # that a slow spell of the shared host weighs on one of them, not on all;
    # a slice that overruns shortens the next, so the loop lasts --seconds
    for k in range(SETUP_REPEATS):
        target = os.path.join(workdir, f"setup{k}")
        setup_walls.append(time_setup(workload.name, args.seed, target))
        if k == 0:
            inputs = workload.load(args.seed, target)
            ref = workload.reference(inputs)  # warm-up, excluded from timing
            problems = workload.check(inputs, ref, ref, recorded)
            ok = self_test(workload, inputs, ref, workdir, recorded)
        else:
            shutil.rmtree(target, ignore_errors=True)
        start = time.perf_counter()
        walls += op_loop(
            (k + 1) * args.seconds / SETUP_REPEATS - looped,
            lambda i: workload.op(inputs, i, jobs),
            lambda i, out: workload.check(inputs, out, ref, recorded),
            tally,
            first=len(walls),
            min_ops=1,
        )
        looped += time.perf_counter() - start
    op_p50 = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "op_p50_s": op_p50,
        # every op of a workload estimates the same number of coefficients
        "coef_per_s": workload.coefficients(inputs) / op_p50,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"ops: {len(walls)}, op wall min {min(walls):.4g} s, max {max(walls):.4g} s",
        f"failed_ratio: {tally.failed_ratio:g} ({tally.failed}/{tally.attempted})",
    ]
    if len(walls) >= 100:
        notes.append(f"op_p90_s: {statistics.quantiles(walls, n=10)[-1]:.6g} s")
    else:
        notes.append(f"op_p90_s: not reported ({len(walls)} ops < 100)")
    if workload.name == "oracle":
        notes.append(f"risks_per_s: {workload.risks(inputs) / op_p50:.6g} 1/s")
    return ok and not problems, tally, problems, metrics, notes


def importtime_s() -> dict:
    """Cumulative import times of numpy, scipy and gebshrink under ``import gebshrink.cli``."""
    samples = {pkg: [] for pkg in ("numpy", "scipy", "gebshrink")}
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gebshrink.cli"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            check=True,
        )
        for pkg, value in outermost_cumulative(done.stderr).items():
            samples[pkg].append(value)
    return {pkg: statistics.median(values) for pkg, values in samples.items()}


_LIBRARIES = frozenset({"numpy", "scipy"})
_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def outermost_cumulative(report) -> dict:
    """Sum of cumulative times (s) of each package's outermost imports.

    ``-X importtime`` prints a module after its own imports, indented two
    spaces per level of nesting.  A module whose ancestors include another
    module of the same package is already inside that ancestor's time, and
    modules that numpy and scipy import (scipy.special pulls in numpy.f2py
    and numpy.testing) count toward the library that imported them.
    """
    totals = {"numpy": 0.0, "scipy": 0.0, "gebshrink": 0.0}
    pending = {}  # depth -> [(package, cumulative_us, child_entries)]
    for line in report.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        depth = len(match.group(3)) // 2
        name = match.group(4)
        children = pending.pop(depth + 1, [])
        pending.setdefault(depth, []).append((name.split(".")[0], int(match.group(2)), children))

    def walk(entries, inside):
        for package, cumulative, children in entries:
            if package in totals and package not in inside and not inside & _LIBRARIES:
                totals[package] += cumulative / 1e6
            walk(children, inside | {package})

    for depth in sorted(pending):
        walk(pending[depth], frozenset())
    return totals


def traced_run(workload, args, jobs, workdir, recorded):
    from tracing import Tracer, install

    inputs = workload.build(args.seed, os.path.join(workdir, "inputs"))
    problems = []
    denoise = workload.name == "denoise"

    # untraced passes: reference outputs, serial wall, pooled wall
    if denoise:
        refs, walls = [], []
        for i in range(len(inputs)):
            start = time.perf_counter()
            out = workload.op(inputs, i)
            walls.append(time.perf_counter() - start)
            problems += workload.check(inputs, out, out, recorded)
            with open(out["output"], "rb") as fh:
                refs.append((out, fh.read()))
        ref = refs[0][0]
        serial_wall = statistics.median(walls)
        pooled_wall = serial_wall
    else:
        ref = workload.reference(inputs)  # warm-up
        walls = []
        for _ in range(SERIAL_PASSES):
            start = time.perf_counter()
            serial = workload.op(inputs, 0, 1)
            walls.append(time.perf_counter() - start)
            problems += workload.check(inputs, serial, ref, recorded)
        serial_wall = statistics.median(walls)
        pooled_wall = serial_wall
        if workload.pooled:
            start = time.perf_counter()
            pooled = workload.op(inputs, 0, jobs)
            pooled_wall = time.perf_counter() - start
            problems += workload.check(inputs, pooled, ref, recorded)
    ok = self_test(workload, inputs, ref, workdir, recorded)

    tracer = Tracer()
    if denoise:
        launcher = os.path.join(HERE, "traced_cli.py")

        def run_op(i):
            dump = os.path.join(workdir, f"trace{i}.json")
            out = workload.op(inputs, i, launcher=(launcher, dump))
            with open(dump) as fh:
                tracer.merge(json.load(fh))
            return out

        def check(i, out):
            found = workload.check(inputs, out, ref, recorded)
            with open(out["output"], "rb") as fh:
                if fh.read() != refs[i % len(refs)][1]:
                    found.append(f"{out['signal']}: traced output differs from the untraced output")
            return found

    else:
        install(tracer)

        def run_op(i):
            tracer.op = i
            tracer.keep_spans = i == 0
            return workload.op(inputs, i, 1)

        def check(i, out):
            return workload.check(inputs, out, ref, recorded)

    tally = Tally()
    traced_walls = op_loop(args.seconds, run_op, check, tally)
    ops = len(traced_walls)

    for layer in EXPECTED_LAYERS[workload.name]:
        if tracer.layer_calls(layer) == 0:
            problems.append(f"trace: no calls into {layer} on {workload.name}")
    if workload.name in KDE_BYPASS and tracer.layer_calls("kde"):
        problems.append(f"trace: {tracer.layer_calls('kde')} kde calls on {workload.name}")

    counters = tracer.counters
    metrics = {f"import.{pkg}_s": value for pkg, value in importtime_s().items()}
    for name in SPAN_SELF:
        metrics[f"{name}.self_s"] = tracer.self_s(name) / ops
    for name in SPAN_CALLS:
        metrics[f"{name}.calls"] = tracer.calls(name) / ops
    for name in COMPUTED:
        metrics[name] = counters[name] / ops
    fits = tracer.calls("blocks.hybrid_fit")
    metrics["blocks.geb_share"] = counters["blocks.geb_fits"] / fits if fits else 0.0
    samples = counters["kde.spectrum_samples"]
    metrics["kde.nodes_per_sample"] = counters["kde.spectrum_nodes"] / samples if samples else 0.0
    metrics["risklab.serial_wall_s"] = serial_wall
    metrics["risklab.pool_efficiency"] = serial_wall / (jobs * pooled_wall)
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / serial_wall

    os.makedirs(STATE_DIR, exist_ok=True)
    trace_path = os.path.join(STATE_DIR, f"trace-{workload.name}-seed{args.seed}.json")
    tracer.write(trace_path, {"environment": environment(args, jobs), "metrics": metrics, "ops": ops})
    notes = [f"traced ops: {ops}", f"spans written to {os.path.relpath(trace_path, ROOT)}"]
    return ok and not problems, tally, problems, metrics, notes


def record_reference(workload, seed, workdir):
    """Store the default-seed output values that later runs compare against."""
    inputs = workload.build(seed, os.path.join(workdir, "inputs"))
    found = {}
    for i in range(len(inputs) if workload.name == "denoise" else 1):
        found.update(workload.summary(workload.op(inputs, i, 1)))
    table = {}
    if os.path.isfile(REFERENCE_FILE):
        with open(REFERENCE_FILE) as fh:
            table = json.load(fh)
    table[workload.name] = found
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(found)} values for {workload.name} in {REFERENCE_FILE}")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("compound", "sparse", "oracle", "denoise"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store the default-seed reference values in perfbench/reference.json",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gebshrink", "__init__.py")):
        print(f"error: no gebshrink sources under {SRC}; run from a checkout's root", file=sys.stderr)
        return 2
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    workload = workloads.WORKLOADS[args.workload]
    jobs = workloads.nproc() if workload.pooled else 1
    import gebshrink

    if not gebshrink.__file__.startswith(SRC + os.sep):
        print("error: imported gebshrink from outside this checkout", file=sys.stderr)
        return 2

    os.makedirs(STATE_DIR, exist_ok=True)
    workdir = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.record:
            record_reference(workload, workloads.DEFAULT_SEED, workdir)
            return 0
        recorded = load_recorded(args.workload) if args.seed == workloads.DEFAULT_SEED else None
        phase = traced_run if args.trace else timed_run
        ok, tally, problems, metrics, notes = phase(workload, args, jobs, workdir, recorded)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print("env: " + json.dumps(environment(args, jobs), sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for problem in (problems + tally.problems)[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": bool(ok and tally.failed == 0),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
