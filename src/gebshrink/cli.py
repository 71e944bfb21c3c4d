"""Command-line interface.

Three commands:

  denoise    shrink a noisy equispaced signal read from CSV
  oracle     print posterior-mean risk, signal-mass summaries and the
             branch frontier of a prior
  risk       run a Monte Carlo risk experiment, or fit its rate

Exit codes: 0 success, 1 numeric failure, a worker process that died or
a run out of memory (one ``error:`` line), 2 invalid arguments or config.
A setting comes from its flag, else its key in the ``--config`` file, else
its default: ``denoise`` and ``risk`` take every flag's setting as a key,
but the files (--input, --output, --config) and --rate.  A ``risk`` run
needs an estimator and a truth and runs 100 replicates by default.
GEB_SHRINK_THREADS supplies --jobs (the processes that run replicates, this
one included) when neither gives it.  --seed pins every stochastic output
bit for bit.  ``risk`` imports ``risklab`` when it runs, so a ``denoise``
never loads it.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io as gio
from .blocks import ESTIMATORS, TuningConfig, branch_frontier
from .errors import NumericFailure, WorkerDied
from .mixture import bayes_risk, from_atoms, mixture_summaries
from .wavelets import denoise_equispaced, wavelet_basis

# flag or config key -> (TuningConfig field, kind, help)
_TUNING_FIELDS = {
    "rho0": ("rho0", float, "density-floor coefficient"),
    "b0": ("b0", float, "branch-schedule coefficient"),
    "nstar": ("n_star", int, "smallest hybrid block size"),
    "a0": ("threshold_inflation", float, "threshold inflation"),
    "small_block": ("small_block_policy", str, "policy below nstar"),
}
# the settings with a default of their own; the tuning settings take
# TuningConfig's, jobs GEB_SHRINK_THREADS's and sigma the MAD estimate
_DEFAULTS = {
    "wavelet": "s8",
    "epsilon": "auto",
    "replicates": "100",
    "seed": "0",
    "compute_ideal": "true",
    "format": "json",
}
# parsed arguments that no config file may set: the files, the rate-fit switch
# and argparse's own entries
_NOT_CONFIG = frozenset({"input", "output", "config", "rate", "command", "func"})


def _add_tuning_flags(parser):
    defaults = TuningConfig()
    for key, (name, _, text) in _TUNING_FIELDS.items():
        parser.add_argument(f"--{key.replace('_', '-')}", help=f"{text} (default {getattr(defaults, name)})")
    parser.add_argument("--config", help="flat key = value file of any other flag's setting; flags override it")


def _read_config(path, allowed):
    table = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, value = map(str.strip, line.split("=", 1))
            if key in table:
                raise ValueError(f"{path}:{lineno}: {key} is set twice")
            table[key] = value
    unknown = sorted(set(table) - allowed)
    if unknown:
        raise ValueError(f"{path}: unknown keys: {', '.join(unknown)}")
    return table


def _config_keys(args):
    """The keys a command's --config file may set: its flags' settings."""
    return frozenset(vars(args)) - _NOT_CONFIG


def _apply_config(args):
    """Give each setting that no flag set its --config entry, if any."""
    if getattr(args, "config", None) is None:
        return
    for key, text in _read_config(args.config, _config_keys(args)).items():
        if getattr(args, key) is None:
            setattr(args, key, text)


def _read(key, text, kind):
    """``text`` as ``kind``: a float or int by io's number rule, naming ``key``
    when it is malformed; any other ``kind`` is called on the text."""
    return gio.parse_number(key, text, kind) if kind in (float, int) else kind(text)


def _setting(args, key, kind=str):
    """The setting's flag or config text, else its default, read as ``kind``;
    None when it has neither."""
    text = getattr(args, key)
    if text is None:
        text = _DEFAULTS.get(key)
    return None if text is None else _read(key, text, kind)


def _tuning_from(args):
    """The values set by a flag or config key; TuningConfig supplies the rest."""
    values = {name: _setting(args, key, kind) for key, (name, kind, _) in _TUNING_FIELDS.items()}
    return TuningConfig(**{name: value for name, value in values.items() if value is not None})


def _jobs_from(args):
    source = "jobs"
    jobs = _setting(args, source, int)
    if jobs is None:
        source = "GEB_SHRINK_THREADS"
        jobs = gio.parse_number(source, os.environ.get(source, "1"), int)
    if jobs < 1:
        raise ValueError(f"{source} must be at least 1, got {jobs}")
    return jobs


def _parse_atoms(text):
    atoms = []
    for piece in text.split(","):
        u, equals, w = piece.partition("=")
        if not equals:
            raise ValueError(f"atom {piece!r} must look like location=weight")
        atoms.append((gio.parse_number("atom location", u), gio.parse_number("atom weight", w)))
    return from_atoms(*zip(*atoms))


# --truth kind -> (TruthSource constructor, its fields as (name, kind or parser))
_TRUTHS = {
    "zero": ("zero", (("J", int),)),
    "besov": ("besov_extremal", (("alpha", float), ("J", int))),
    "signal": ("signal", (("name", str), ("N", int), ("snr", float))),
    "gaussian": ("gaussian_prior", (("tau", float), ("n", int))),
    "atoms": ("atom_prior", (("u=w,...", _parse_atoms), ("n", int))),
}
_TRUTH_FORMS = " | ".join(
    [":".join([kind, *(name for name, _ in fields)]) for kind, (_, fields) in _TRUTHS.items()] + ["csv:path"]
)


def _parse_truth(text):
    from .risklab import TruthSource

    kind, *values = text.split(":")
    try:
        if kind == "csv":
            return TruthSource.explicit(gio.read_coefficients_csv(":".join(values)))
        if kind in _TRUTHS and len(values) == len(_TRUTHS[kind][1]):
            build, fields = _TRUTHS[kind]
            parsed = [_read(name, value, parse) for (name, parse), value in zip(fields, values)]
            return getattr(TruthSource, build)(*parsed)
    except ValueError as err:
        raise ValueError(f"bad --truth {text!r}: {err}") from err
    raise ValueError(f"bad --truth {text!r}: expected {_TRUTH_FORMS}")


def _parse_epsilons(text):
    if text.strip() in ("", "auto"):
        return ()
    return tuple(gio.parse_number("epsilon", x) for x in text.split(","))


def _experiment(args):
    """The ExperimentSpec of ``risk``."""
    from .risklab import ExperimentSpec

    cfg = _tuning_from(args)
    for key in ("estimator", "truth"):
        if getattr(args, key) is None:
            raise ValueError(f"missing {key!r}: give --{key} or set {key} in --config")
    ideal = _setting(args, "compute_ideal")
    if ideal.lower() not in ("true", "false"):
        raise ValueError(f"compute_ideal must be true or false, got {ideal!r}")
    return ExperimentSpec(
        estimator=_setting(args, "estimator"),
        truth=_setting(args, "truth", _parse_truth),
        epsilons=_setting(args, "epsilon", _parse_epsilons),
        replicates=_setting(args, "replicates", int),
        seed=_setting(args, "seed", int),
        cfg=cfg,
        compute_ideal=ideal.lower() == "true",
    )


# ---------------------------------------------------------------------------
# commands


def _cmd_denoise(args):
    cfg = _tuning_from(args)
    sigma = _setting(args, "sigma", float)
    basis = wavelet_basis(_setting(args, "wavelet"))
    values, truth, _ = gio.read_signal_csv(args.input)
    estimate, report = denoise_equispaced(values, basis, cfg, sigma=sigma)
    gio.write_signal_csv(args.output, values, truth=truth, estimate=estimate)
    print(f"sigma_hat = {gio.format_float(report.sigma_hat)}")
    print(f"epsilon   = {gio.format_float(report.epsilon)}")
    if report.fits:
        size = max(4, len(str(max(fit.n for fit in report.fits.values()))))
        print(f"level  {'size':>{size}s}  {'branch':<10s}  {'kappa_hat':<13s}  {'b':<13s}  lambda")
        for j, fit in report.fits.items():
            print(
                f"{j:5d}  {fit.n:{size}d}  {fit.branch:<10s}  "
                f"{fit.kappa_hat:<13.6g}  {fit.b:<13.6g}  {fit.lam:<13.6g}"
            )
    else:
        print("degenerate noise scale: estimates equal observations")
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
    from .risklab import monte_carlo_risk, rate_fit, report_to_csv, report_to_json

    if args.rate and (args.output is not None or args.format is not None):
        raise ValueError("--rate prints its fit and writes no report: drop --output and format")
    spec = _experiment(args)
    if args.rate:
        fit = rate_fit(spec, jobs=_jobs_from(args))
        print(f"slope     = {gio.format_float(fit.slope)}")
        print(f"intercept = {gio.format_float(fit.intercept)}")
        for eps, risk, se in fit.points:
            print(
                f"epsilon {gio.format_float(eps)}: total_mse {gio.format_float(risk)} "
                f"(se {gio.format_float(se)})"
            )
        return 0
    fmt = _setting(args, "format")
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    report = monte_carlo_risk(spec, jobs=_jobs_from(args))
    payload = report_to_json(report) if fmt == "json" else report_to_csv(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
        print(f"wrote {args.output}")
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")
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
    p_den.add_argument("--wavelet", help=f"wavelet basis (default {_DEFAULTS['wavelet']})")
    p_den.add_argument("--sigma", help="known noise scale (default: MAD estimate)")
    _add_tuning_flags(p_den)
    p_den.set_defaults(func=_cmd_denoise)

    p_orc = sub.add_parser("oracle", help="posterior-mean risk, signal mass and branch frontier of an atomic prior")
    p_orc.add_argument("--atoms", required=True, help="comma-separated location=weight atoms")
    p_orc.set_defaults(func=_cmd_oracle)

    p_rsk = sub.add_parser("risk", help="Monte Carlo risk run or rate fit")
    p_rsk.add_argument("--estimator", help=f"{' | '.join(ESTIMATORS)} (required, as a flag or config key)")
    p_rsk.add_argument("--truth", help=f"{_TRUTH_FORMS} (required, as a flag or config key)")
    p_rsk.add_argument("--epsilon", help="comma-separated noise grid (or 'auto' for signal truths)")
    p_rsk.add_argument("--replicates", help=f"replicates per epsilon (default {_DEFAULTS['replicates']})")
    p_rsk.add_argument("--seed", help=f"seed of every draw (default {_DEFAULTS['seed']})")
    p_rsk.add_argument(
        "--jobs",
        help="processes that run replicates, this one included, capped at the usable CPUs; "
        "reports do not depend on it (default GEB_SHRINK_THREADS, else 1)",
    )
    p_rsk.add_argument(
        "--rate", action="store_true", help="print the log-risk slope over the epsilon grid, not a report"
    )
    p_rsk.add_argument(
        "--no-ideal",
        dest="compute_ideal",
        action="store_const",
        const="false",
        help="skip the ideal risk, so total_ideal and regret are null (compute_ideal = false)",
    )
    p_rsk.add_argument("--format", help=f"csv or json (default {_DEFAULTS['format']})")
    p_rsk.add_argument("--output", help="report destination (prints when omitted)")
    _add_tuning_flags(p_rsk)
    p_rsk.set_defaults(func=_cmd_risk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except (ValueError, OSError) as err:
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
