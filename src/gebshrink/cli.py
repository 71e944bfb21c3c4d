"""Command-line interface.

Four commands:

  denoise    shrink a noisy equispaced signal read from CSV
  simulate   run a Monte Carlo risk experiment described by a spec file
  oracle     print posterior-mean risk, signal-mass summaries and the
             branch frontier of a prior
  risk       quick risk run / rate fit configured entirely by flags

Exit codes: 0 success, 1 numeric failure, a worker process that died or
a run out of memory (one ``error:`` line), 2 invalid arguments or config.
Flags override spec/config files; GEB_SHRINK_THREADS supplies --jobs (the
processes that run replicates, this one included) when the flag is absent.
--seed pins every stochastic output bit for bit.  The ``risklab`` commands
import it when they run, so a ``denoise`` never loads it.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io as gio
from .blocks import _POLICIES, ESTIMATORS, TuningConfig, branch_frontier
from .errors import InvalidConfigError, NumericFailure, WorkerDied
from .mixture import bayes_risk, from_atoms, mixture_summaries
from .wavelets import denoise_equispaced, wavelet_basis

# flag or config key -> (TuningConfig field, parser)
_TUNING_FIELDS = {
    "rho0": ("rho0", float),
    "b0": ("b0", float),
    "nstar": ("n_star", int),
    "a0": ("threshold_inflation", float),
    "small_block": ("small_block_policy", str),
}
_CONFIG_KEYS = frozenset(_TUNING_FIELDS) | {"seed", "jobs", "format"}
_JOBS_HELP = (
    "processes that run replicates, this one included, capped at the usable CPUs; "
    "reports do not depend on it"
)
_DENOISE_KEYS = frozenset(_TUNING_FIELDS) | {"wavelet"}
_SPEC_KEYS = _CONFIG_KEYS | {
    "estimator",
    "truth",
    "epsilon",
    "replicates",
    "compute_ideal",
}


def _add_tuning_flags(parser):
    defaults = TuningConfig()
    parser.add_argument("--rho0", type=float, default=None, help=f"density-floor coefficient (default {defaults.rho0:g})")
    parser.add_argument("--b0", type=float, default=None, help=f"branch-schedule coefficient (default {defaults.b0:g})")
    parser.add_argument("--nstar", type=int, default=None, help=f"smallest hybrid block size (default {defaults.n_star})")
    parser.add_argument("--a0", type=float, default=None, help=f"threshold inflation (default {defaults.threshold_inflation:g})")
    parser.add_argument(
        "--small-block",
        choices=tuple(_POLICIES),
        help=f"policy below nstar (default {defaults.small_block_policy})",
    )
    parser.add_argument("--config", default=None, help="flat key=value file; flags override it")


def _read_config(path, allowed):
    table = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            table[key.strip()] = value.strip()
    unknown = sorted(set(table) - allowed)
    if unknown:
        raise ValueError(f"{path}: unknown keys: {', '.join(unknown)}")
    return table


_EXPECTED = {int: "an integer", float: "a number"}


def _parse(key, text, kind):
    """``kind(text)``; a malformed value raises ValueError naming ``key``."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{key}: expected {_EXPECTED[kind]}, got {text!r}") from None


def _merged(args, config, key, fallback, kind=str):
    """The flag's value, else the config entry read as ``kind``, else ``fallback``."""
    cli = getattr(args, key, None)
    if cli is not None:
        return cli
    if config and key in config:
        return _parse(key, config[key], kind)
    return fallback


def _tuning_from(args, config):
    """The values set by a flag or config key; TuningConfig supplies the rest."""
    values = {}
    for key, (name, kind) in _TUNING_FIELDS.items():
        value = _merged(args, config, key, None, kind)
        if value is not None:
            values[name] = value
    return TuningConfig(**values)


def _jobs_from(args, config):
    source = "jobs"
    jobs = _merged(args, config, source, None, int)
    if jobs is None:
        source = "GEB_SHRINK_THREADS"
        jobs = _parse(source, os.environ.get(source, "1"), int)
    if jobs < 1:
        raise ValueError(f"{source} must be at least 1, got {jobs}")
    return jobs


def _parse_truth(text):
    from .risklab import TruthSource

    parts = str(text).split(":")
    kind = parts[0]
    try:
        if kind == "zero":
            (j_max,) = parts[1:]
            return TruthSource.zero(int(j_max))
        if kind == "besov":
            alpha, j_max = parts[1:]
            return TruthSource.besov_extremal(float(alpha), int(j_max))
        if kind == "signal":
            name, n, snr = parts[1:]
            return TruthSource.signal(name, int(n), float(snr))
        if kind == "gaussian":
            tau, size = parts[1:]
            return TruthSource.gaussian_prior(float(tau), int(size))
        if kind == "atoms":
            spec, size = parts[1:]
            prior = _parse_atoms(spec)
            return TruthSource.atom_prior(prior, int(size))
        if kind == "csv":
            path = ":".join(parts[1:])
            levels, _ = gio.read_coefficients_csv(path)
            return TruthSource.explicit(sorted(levels.items()))
    except ValueError as err:
        raise ValueError(f"bad --truth {text!r}: {err}") from err
    raise ValueError(
        f"bad --truth {text!r}: expected zero:J | besov:alpha:J | signal:name:N:snr | "
        "gaussian:tau:n | atoms:u=w,...:n | csv:path"
    )


def _parse_atoms(text):
    locations = []
    weights = []
    for piece in str(text).split(","):
        if "=" not in piece:
            raise ValueError(f"atom {piece!r} must look like location=weight")
        u, w = piece.split("=", 1)
        locations.append(_parse("atom location", u, float))
        weights.append(_parse("atom weight", w, float))
    return from_atoms(locations, weights)


def _parse_bool(key, text):
    value = str(text).strip().lower()
    if value not in ("true", "false"):
        raise ValueError(f"{key} must be true or false, got {text!r}")
    return value == "true"


def _parse_epsilons(text):
    if text is None or str(text).strip() in ("", "auto"):
        return ()
    return tuple(_parse("epsilon", x, float) for x in str(text).split(","))


# ---------------------------------------------------------------------------
# commands


def _cmd_denoise(args):
    config = _read_config(args.config, _DENOISE_KEYS) if args.config else {}
    cfg = _tuning_from(args, config)
    values, truth, _ = gio.read_signal_csv(args.input)
    basis = wavelet_basis(_merged(args, config, "wavelet", "s8"))
    estimate, report = denoise_equispaced(values, basis, cfg, sigma=args.sigma)
    gio.write_signal_csv(args.output, values, truth=truth, estimate=estimate)
    print(f"sigma_hat = {gio.format_float(report.sigma_hat)}")
    print(f"epsilon   = {gio.format_float(report.epsilon)}")
    if report.fits:
        size = max(4, len(str(max(fit.n for fit in report.fits))))
        print(f"level  {'size':>{size}s}  {'branch':<10s}  {'kappa_hat':<13s}  {'b':<13s}  lambda")
        for j, fit in zip(report.levels, report.fits):
            print(
                f"{j:5d}  {fit.n:{size}d}  {fit.branch:<10s}  "
                f"{fit.kappa_hat:<13.6g}  {fit.b:<13.6g}  {fit.lam:<13.6g}"
            )
    else:
        print("degenerate noise scale: estimates equal observations")
    return 0


def _write_report(spec, args, config):
    """Run spec, then write the report in --format to --output or print it."""
    from .risklab import monte_carlo_risk, report_to_csv, report_to_json

    fmt = _merged(args, config, "format", "json")
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    report = monte_carlo_risk(spec, jobs=_jobs_from(args, config))
    payload = report_to_json(report) if fmt == "json" else report_to_csv(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
        print(f"wrote {args.output}")
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")
    return report


def _cmd_simulate(args):
    from .risklab import ExperimentSpec

    config = _read_config(args.spec, _SPEC_KEYS)
    if args.config:
        # spec entries win over --config entries; flags win over both
        config = {**_read_config(args.config, _CONFIG_KEYS), **config}
    cfg = _tuning_from(args, config)
    if "estimator" not in config:
        raise ValueError(f"{args.spec}: missing 'estimator'")
    if "truth" not in config:
        raise ValueError(f"{args.spec}: missing 'truth'")
    spec = ExperimentSpec(
        estimator=config["estimator"],
        truth=_parse_truth(config["truth"]),
        epsilons=_parse_epsilons(config.get("epsilon")),
        replicates=_merged(args, config, "replicates", 1, int),
        seed=_merged(args, config, "seed", 0, int),
        cfg=cfg,
        compute_ideal=_parse_bool("compute_ideal", config.get("compute_ideal", "true")),
    )
    report = _write_report(spec, args, config)
    # a printed payload keeps stdout machine-readable, so the summary goes to stderr
    print(
        f"total_mse = {gio.format_float(report.total_mse)}  "
        f"(se {gio.format_float(report.total_se)}, replicates {report.replicates})",
        file=sys.stdout if args.output else sys.stderr,
    )
    return 0


def _cmd_oracle(args):
    prior = _parse_atoms(args.atoms)
    summary = mixture_summaries(prior)
    print(f"bayes_risk  = {gio.format_float(bayes_risk(prior))}")
    print(f"kappa       = {gio.format_float(summary.kappa)}")
    print(f"kappa_tilde = {gio.format_float(summary.kappa_tilde)}")
    frontier = branch_frontier(summary.kappa_tilde)
    print(f"frontier_n  = {'never' if frontier is None else frontier}")
    return 0


def _cmd_risk(args):
    from .risklab import ExperimentSpec, rate_fit

    config = _read_config(args.config, _CONFIG_KEYS) if args.config else {}
    cfg = _tuning_from(args, config)
    spec = ExperimentSpec(
        estimator=args.estimator,
        truth=_parse_truth(args.truth),
        epsilons=_parse_epsilons(args.epsilon),
        replicates=args.replicates,
        seed=_merged(args, config, "seed", 0, int),
        cfg=cfg,
        compute_ideal=not args.no_ideal,
    )
    if args.rate:
        fit = rate_fit(spec, jobs=_jobs_from(args, config))
        print(f"slope     = {gio.format_float(fit.slope)}")
        print(f"intercept = {gio.format_float(fit.intercept)}")
        for eps, risk, se in fit.points:
            print(
                f"epsilon {gio.format_float(eps)}: total_mse {gio.format_float(risk)} "
                f"(se {gio.format_float(se)})"
            )
        return 0
    _write_report(spec, args, config)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gebshrink",
        description="Blockwise general empirical Bayes shrinkage for Gaussian sequence data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_den = sub.add_parser("denoise", help="shrink a noisy equispaced signal from CSV")
    p_den.add_argument("--input", required=True, help="CSV with columns index,value[,truth]")
    p_den.add_argument("--output", required=True, help="writes index,value[,truth],estimate, the index 1..N; other input columns are not copied")
    p_den.add_argument("--wavelet", choices=("haar", "d4", "s8"), default=None)
    p_den.add_argument("--sigma", type=float, default=None, help="known noise scale (default: MAD estimate)")
    _add_tuning_flags(p_den)
    p_den.set_defaults(func=_cmd_denoise)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment from a spec file")
    p_sim.add_argument("--spec", required=True, help="flat key=value experiment description")
    p_sim.add_argument("--output", default=None, help="report destination (prints when omitted)")
    p_sim.add_argument("--format", choices=("csv", "json"), default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--jobs", type=int, default=None, help=_JOBS_HELP)
    _add_tuning_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_orc = sub.add_parser("oracle", help="posterior-mean risk, signal mass and branch frontier of an atomic prior")
    p_orc.add_argument("--atoms", required=True, help="comma-separated location=weight atoms")
    p_orc.set_defaults(func=_cmd_oracle)

    p_rsk = sub.add_parser("risk", help="risk run or rate fit configured by flags")
    p_rsk.add_argument("--estimator", choices=ESTIMATORS, required=True)
    p_rsk.add_argument("--truth", required=True, help="zero:J | besov:a:J | signal:name:N:snr | gaussian:tau:n | atoms:u=w,..:n | csv:path")
    p_rsk.add_argument("--epsilon", default=None, help="comma-separated noise grid (or 'auto' for signal truths)")
    p_rsk.add_argument("--replicates", type=int, default=100)
    p_rsk.add_argument("--seed", type=int, default=None)
    p_rsk.add_argument("--jobs", type=int, default=None, help=_JOBS_HELP)
    p_rsk.add_argument("--rate", action="store_true", help="fit log-risk slope over the epsilon grid")
    p_rsk.add_argument("--no-ideal", action="store_true", help="skip the ideal risk, so total_ideal and regret are null")
    p_rsk.add_argument("--format", choices=("csv", "json"), default=None)
    p_rsk.add_argument("--output", default=None)
    _add_tuning_flags(p_rsk)
    p_rsk.set_defaults(func=_cmd_risk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, InvalidConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericFailure as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 1
    except WorkerDied as err:
        print(f"error: worker process died: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
