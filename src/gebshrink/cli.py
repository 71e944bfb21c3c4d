"""Command-line interface.

Four commands:

  denoise    shrink a noisy equispaced signal read from CSV
  simulate   run a Monte Carlo risk experiment described by a spec file
  oracle     print posterior-mean risk and signal-mass summaries of a prior
  risk       quick risk run / rate fit configured entirely by flags

Exit codes: 0 success, 1 numeric failure, 2 invalid arguments or config.
Flags override spec/config files; GEB_SHRINK_THREADS supplies the worker
count when --jobs is absent.  --seed pins every stochastic output bit for
bit.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io as gio
from .blocks import TuningConfig
from .errors import InvalidConfigError, NumericFailure
from .mixture import bayes_risk, from_atoms, mixture_summaries
from .risklab import (
    ESTIMATORS,
    ExperimentSpec,
    TruthSource,
    monte_carlo_risk,
    rate_fit,
    report_to_csv,
    report_to_json,
)
from .wavelets import denoise_equispaced, wavelet_basis

_TUNING_FLAGS = ("rho0", "b0", "nstar", "a0", "small_block")
_CONFIG_KEYS = frozenset(_TUNING_FLAGS) | {"seed", "jobs", "format"}
_JOBS_HELP = "worker processes, capped at the usable CPUs; reports do not depend on it"
_DENOISE_KEYS = frozenset(_TUNING_FLAGS) | {"wavelet"}
_SPEC_KEYS = _CONFIG_KEYS | {
    "estimator",
    "truth",
    "epsilon",
    "replicates",
    "bound_p",
    "compute_ideal",
    "kde_mode",
}


def _add_tuning_flags(parser):
    parser.add_argument("--rho0", type=float, default=None, help="density-floor coefficient (default 0.4)")
    parser.add_argument("--b0", type=float, default=None, help="branch-schedule coefficient (default 2)")
    parser.add_argument("--nstar", type=int, default=None, help="smallest hybrid block size (default 64)")
    parser.add_argument("--a0", type=float, default=None, help="threshold inflation (default 0)")
    parser.add_argument(
        "--small-block",
        dest="small_block",
        choices=("mle", "james_stein"),
        default=None,
        help="policy below nstar (default mle)",
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


def _merged(args, config, key, fallback):
    cli = getattr(args, key, None)
    if cli is not None:
        return cli
    if config and key in config:
        return config[key]
    return fallback


def _tuning_from(args, config):
    return TuningConfig(
        rho0=float(_merged(args, config, "rho0", 0.4)),
        b0=float(_merged(args, config, "b0", 2.0)),
        n_star=int(_merged(args, config, "nstar", 64)),
        threshold_inflation=float(_merged(args, config, "a0", 0.0)),
        small_block_policy=str(_merged(args, config, "small_block", "mle")),
    )


def _jobs_from(args, config):
    value = getattr(args, "jobs", None)
    if value is None and config:
        value = config.get("jobs")
    if value is None:
        value = os.environ.get("GEB_SHRINK_THREADS")
    jobs = int(value) if value is not None else 1
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    return jobs


def _parse_truth(text):
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
        locations.append(float(u))
        weights.append(float(w))
    return from_atoms(locations, weights)


def _parse_epsilons(text):
    if text is None or str(text).strip() in ("", "auto"):
        return ()
    return tuple(float(x) for x in str(text).split(","))


# ---------------------------------------------------------------------------
# commands


def _cmd_denoise(args):
    config = _read_config(args.config, _DENOISE_KEYS) if args.config else {}
    cfg = _tuning_from(args, config)
    values, truth, _ = gio.read_signal_csv(args.input)
    basis = wavelet_basis(str(_merged(args, config, "wavelet", "s8")))
    sigma = args.sigma if args.sigma is not None else None
    estimate, report = denoise_equispaced(values, basis, cfg, sigma=sigma)
    gio.write_signal_csv(args.output, values, truth=truth, estimate=estimate)
    print(f"sigma_hat = {gio.format_float(report.sigma_hat)}")
    print(f"epsilon   = {gio.format_float(report.epsilon)}")
    if report.fits:
        print("level  size  branch      kappa_hat       b               lambda")
        for j, fit in zip(report.levels, report.fits):
            print(
                f"{j:5d}  {fit.n:4d}  {fit.branch:<10s}  "
                f"{fit.kappa_hat:<13.6g}  {fit.b:<13.6g}  {fit.lam:<13.6g}"
            )
    else:
        print("degenerate noise scale: estimates equal observations")
    return 0


def _write_report(spec, args, config):
    """Run spec, then write the report in --format to --output or print it."""
    report = monte_carlo_risk(spec, jobs=_jobs_from(args, config))
    fmt = _merged(args, config, "format", "json")
    payload = report_to_json(report) if fmt == "json" else report_to_csv(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
        print(f"wrote {args.output}")
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")
    return report


def _cmd_simulate(args):
    config = _read_config(args.spec, _SPEC_KEYS)
    if args.config:
        # spec entries win over --config entries; flags win over both
        config = {**_read_config(args.config, _CONFIG_KEYS), **config}
    cfg = _tuning_from(args, config)
    if "estimator" not in config:
        raise ValueError(f"{args.spec}: missing 'estimator'")
    if "truth" not in config:
        raise ValueError(f"{args.spec}: missing 'truth'")
    seed = int(_merged(args, config, "seed", 0))
    spec = ExperimentSpec(
        estimator=config["estimator"],
        truth=_parse_truth(config["truth"]),
        epsilons=_parse_epsilons(config.get("epsilon")),
        replicates=int(config.get("replicates", 1)),
        seed=seed,
        cfg=cfg,
        bound_p=float(config.get("bound_p", 2.0)),
        compute_ideal=str(config.get("compute_ideal", "true")).lower() != "false",
        kde_mode=config.get("kde_mode", "direct"),
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
    summary = mixture_summaries(prior, p=2.0, x=1.0)
    print(f"bayes_risk  = {gio.format_float(bayes_risk(prior))}")
    print(f"kappa       = {gio.format_float(summary.kappa)}")
    print(f"kappa_tilde = {gio.format_float(summary.kappa_tilde)}")
    return 0


def _cmd_risk(args):
    config = _read_config(args.config, _CONFIG_KEYS) if args.config else {}
    cfg = _tuning_from(args, config)
    spec = ExperimentSpec(
        estimator=args.estimator,
        truth=_parse_truth(args.truth),
        epsilons=_parse_epsilons(args.epsilon),
        replicates=args.replicates,
        seed=int(_merged(args, config, "seed", 0)),
        cfg=cfg,
        compute_ideal=not args.no_ideal,
        kde_mode=args.kde_mode,
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
    p_den.add_argument("--output", required=True, help="destination CSV (adds an estimate column)")
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

    p_orc = sub.add_parser("oracle", help="posterior-mean risk and signal mass of an atomic prior")
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
    p_rsk.add_argument("--no-ideal", action="store_true", help="skip the posterior-mean benchmark")
    p_rsk.add_argument("--kde-mode", choices=("direct", "fourier"), default="direct", help="accepted for compatibility; ignored")
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


if __name__ == "__main__":
    sys.exit(main())
