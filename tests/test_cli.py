"""End-to-end command-line checks, via subprocess and in-process."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gebshrink import cli, risklab, signals
from gebshrink.blocks import TuningConfig
from gebshrink.errors import WorkerDied
from gebshrink.io import read_signal_csv, write_signal_csv
from gebshrink.mixture import bayes_risk, from_atoms
from gebshrink.wavelets import denoise_equispaced, wavelet_basis

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("GEB_SHRINK_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gebshrink.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )


# ------------------------------------------------------------------ denoise


def test_denoise_constant_noiseless(tmp_path):
    src = tmp_path / "flat.csv"
    dst = tmp_path / "flat_out.csv"
    write_signal_csv(src, np.full(128, 4.5))
    proc = run_cli("denoise", "--input", src, "--output", dst, "--wavelet", "haar")
    assert proc.returncode == 0, proc.stderr
    assert "sigma_hat = 0" in proc.stdout
    values, _, estimate = read_signal_csv(dst)
    assert np.array_equal(estimate, values)
    assert np.array_equal(estimate, np.full(128, 4.5))


def test_denoise_output_round_trips_in_memory_result(tmp_path):
    noisy, _, _ = read_signal_csv(DATA / "bumps_noisy_2048.csv")
    dst = tmp_path / "out.csv"
    proc = run_cli(
        "denoise", "--input", DATA / "bumps_noisy_2048.csv", "--output", dst
    )
    assert proc.returncode == 0, proc.stderr
    _, truth, estimate = read_signal_csv(dst)
    want, _ = denoise_equispaced(noisy, wavelet_basis("s8"), TuningConfig())
    # 17 significant digits reproduce the doubles exactly
    assert np.array_equal(estimate, want)
    assert truth is not None  # input truth column is carried through


def test_denoise_reproduction_flags_on_bundled_fixture(tmp_path):
    dst = tmp_path / "bumps_hat.csv"
    proc = run_cli(
        "denoise",
        "--input", DATA / "bumps_noisy_2048.csv",
        "--output", dst,
        "--wavelet", "s8",
        "--rho0", "0.4",
        "--b0", "2",
        "--nstar", "64",
    )
    assert proc.returncode == 0, proc.stderr
    assert "sigma_hat = " in proc.stdout
    assert "branch" in proc.stdout  # per-level table
    values, truth, estimate = read_signal_csv(dst)
    assert estimate is not None and estimate.shape == (2048,)
    # shrinkage beats the raw observations against the bundled truth
    assert np.mean((estimate - truth) ** 2) < np.mean((values - truth) ** 2)


def test_denoise_non_dyadic_input_names_the_requirement(tmp_path):
    src = tmp_path / "bad.csv"
    write_signal_csv(src, np.zeros(1000))
    proc = run_cli("denoise", "--input", src, "--output", tmp_path / "o.csv")
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert "power of two" in proc.stderr


def test_denoise_rejects_invalid_tuning(tmp_path):
    src = tmp_path / "flat.csv"
    write_signal_csv(src, np.zeros(64))
    proc = run_cli(
        "denoise", "--input", src, "--output", tmp_path / "o.csv", "--rho0", "0"
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1


_SIGMAS = ("inf", "-inf", "nan", "0", "-1", "5e-324", "1e-320", "1e308")


@settings(max_examples=40, deadline=None)
@given(sigma=st.sampled_from(_SIGMAS), name=st.sampled_from(["bumps_noisy_2048.csv", "doppler_2048.csv"]))
def test_denoise_extreme_sigma_is_one_line_or_finite(sigma, name):
    with tempfile.TemporaryDirectory() as tmp:
        dst = os.path.join(tmp, "o.csv")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["denoise", "--input", str(DATA / name), "--output", dst, f"--sigma={sigma}"])
        assert [str(w.message) for w in caught] == [], sigma
        assert "Warning" not in err.getvalue() and "Traceback" not in err.getvalue()
        if code == 0:
            assert err.getvalue() == ""
            _, _, estimate = read_signal_csv(dst)
            assert np.all(np.isfinite(estimate)), sigma
        else:
            assert code in (1, 2), (sigma, code)
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith(("error:", "numeric failure:")), err.getvalue()
            assert out.getvalue() == ""


def test_denoise_short_row_is_one_error_line(tmp_path):
    src = tmp_path / "short.csv"
    src.write_text("index,value\n1,0.5\n2\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["denoise", "--input", str(src), "--output", str(tmp_path / "o.csv")])
    assert code == 2
    assert err.getvalue().splitlines() == [f"error: {src}:3: row has 1 of the header's 2 cells"]
    assert out.getvalue() == ""


def test_denoise_empty_input_is_one_error_line(tmp_path):
    src = tmp_path / "empty.csv"
    cases = [
        ("", f"{src}: empty file, expected a header"),
        ("index,value\n", "signal length must be a power of two of at least 2, got 0"),
        ("index,value\r\n", "signal length must be a power of two of at least 2, got 0"),
        ("index,value\n1,0.5\n2,x\n", f"{src}:3: value cell 'x' is not a number"),
    ]
    for text, message in cases:
        src.write_bytes(text.encode())
        out, err = io.StringIO(), io.StringIO()
        # a warning would print a line of its own: fail on one instead
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["denoise", "--input", str(src), "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert err.getvalue().splitlines() == [f"error: {message}"]
        assert out.getvalue() == ""


def test_denoise_imports_only_what_it_runs(tmp_path):
    # a cold denoise process loads neither the risk laboratory, its worker
    # processes, numpy.random, numpy.ma (np.median's NaN check), statistics
    # nor numpy.polynomial (the Gauss-Legendre rules, which thresholding never uses)
    unused = [
        "gebshrink.risklab",
        "concurrent.futures",
        "multiprocessing",
        "numpy.random",
        "numpy.ma",
        "statistics",
        "numpy.polynomial",
    ]
    script = (
        "import sys\n"
        "from gebshrink import cli\n"
        f"code = cli.main(['denoise', '--input', {str(DATA / 'doppler_2048.csv')!r}, "
        f"'--output', {str(tmp_path / 'o.csv')!r}])\n"
        f"print(code, [name for name in {unused!r} if name in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_denoise_level_table_columns_line_up(tmp_path):
    # N = 2^15 has levels of 8192 and 16384 coefficients, wider than "size"
    samples, sigma = signals.test_signal("bumps", 2**15, 7.0)
    noise = sigma * np.random.default_rng(3).standard_normal(samples.size)
    src = tmp_path / "bumps.csv"
    write_signal_csv(src, samples + noise, truth=samples)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["denoise", "--input", str(src), "--output", str(tmp_path / "o.csv")]) == 0
    lines = out.getvalue().splitlines()
    table = lines[lines.index(next(line for line in lines if line.startswith("level"))) :]
    assert table[-1].split()[:2] == ["14", "16384"]
    spans = [[m.span() for m in re.finditer(r"\S+", line)] for line in table]
    header = spans[0]
    for row in spans[1:]:
        assert len(row) == len(header) == 6
        # level and size are right-aligned under their labels, the rest left-aligned
        assert [end for _, end in row[:2]] == [end for _, end in header[:2]]
        assert [start for start, _ in row[2:]] == [start for start, _ in header[2:]]


def test_denoise_missing_input_file(tmp_path):
    proc = run_cli(
        "denoise", "--input", tmp_path / "nope.csv", "--output", tmp_path / "o.csv"
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


# ------------------------------------------------------------------- oracle


def _oracle_table(stdout):
    """The printed summaries, numbers as floats; frontier_n as printed."""
    table = {}
    for line in stdout.strip().splitlines():
        key, value = (part.strip() for part in line.split("="))
        table[key] = value if key == "frontier_n" else float(value)
    return table


def test_oracle_point_mass_at_zero():
    proc = run_cli("oracle", "--atoms", "0=1")
    assert proc.returncode == 0, proc.stderr
    table = _oracle_table(proc.stdout)
    assert table["bayes_risk"] == 0.0
    assert table["kappa"] == 0.0
    # kappa_tilde = 0: no block size takes the geb branch
    assert table["frontier_n"] == "never"


def test_oracle_two_point_prior_stable_and_correct():
    a = run_cli("oracle", "--atoms=-3=0.5,3=0.5")
    b = run_cli("oracle", "--atoms=-3=0.5,3=0.5")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    printed = _oracle_table(a.stdout)
    want = bayes_risk(from_atoms([-3.0, 3.0], [0.5, 0.5]))
    assert printed["bayes_risk"] == pytest.approx(want, rel=1e-12)
    assert list(printed) == ["bayes_risk", "kappa", "kappa_tilde", "frontier_n"]
    # kappa_tilde = 1 - exp(-9/4) = 0.89460; b(110) = 0.89635, b(111) = 0.89402
    assert printed["frontier_n"] == "111"


def test_oracle_malformed_atoms():
    proc = run_cli("oracle", "--atoms", "0.5")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    proc = run_cli("oracle", "--atoms", "x=1")
    assert proc.returncode == 2
    assert proc.stderr == "error: atom location: expected a number, got 'x'\n"


def test_oracle_weight_sum_error_prints_plain_number():
    proc = run_cli("oracle", "--atoms", "0=0.2,1=0.2")
    assert proc.returncode == 2
    assert "weights sum to 0.4" in proc.stderr


def test_oracle_drops_a_zero_weight_atom(capsys):
    # a point mass at 1e6: Bayes risk 0, where the kept atom at 0 made the
    # posterior shift 0/0 (exit 1)
    assert cli.main(["oracle", "--atoms=0=0,1e6=1"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[0] == "bayes_risk  = 0"
    assert cli.main(["oracle", "--atoms=1e6=1"]) == 0
    assert capsys.readouterr().out == out


def test_oracle_far_apart_atoms_fail_in_one_line(capsys, recwarn):
    # (1e200)^2 overflows: the quadrature's one failure line, no numpy warnings
    assert cli.main(["oracle", "--atoms=1e200=0.5,-1e200=0.5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure:"), err
    assert [str(w.message) for w in recwarn] == []


# ------------------------------------------------- simulation from a config
# a Monte Carlo experiment given as a --config file of risk's settings; the
# tests keep the names they had when the file went to a `simulate` command


def write_spec(path, **kv):
    with open(path, "w") as fh:
        for key, value in kv.items():
            fh.write(f"{key} = {value}\n")


def test_simulate_zero_replicates_rejected(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(spec, estimator="mle", truth="zero:3", epsilon="0.5", replicates=0)
    proc = run_cli("risk", "--config", spec)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_simulate_seed_fixes_output_bitwise(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(
        spec,
        estimator="geb-hybrid",
        truth="gaussian:1.0:128",
        epsilon="1.0",
        replicates=8,
    )
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        proc = run_cli("risk", "--config", spec, "--seed", 42, "--output", out)
        assert proc.returncode == 0, proc.stderr
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["seed"] == 42
    assert payload["estimator"] == "geb-hybrid"


def test_simulate_csv_format(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(spec, estimator="mle", truth="zero:2", epsilon="0.5", replicates=4, seed=3)
    out = tmp_path / "r.csv"
    proc = run_cli("risk", "--config", spec, "--format", "csv", "--output", out)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("block_id,")
    assert lines[-1].startswith("total,")


def test_simulate_rejects_unknown_spec_key(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(spec, estimator="mle", truth="zero:3", epsilon="0.5", replicats=9)
    proc = run_cli("risk", "--config", spec)
    assert proc.returncode == 2
    assert "unknown keys: replicats" in proc.stderr


def test_simulate_config_file_supplies_tuning_and_flags_win(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(
        spec,
        estimator="geb-hybrid",
        truth="gaussian:1.0:512",
        epsilon="1.0",
        replicates=4,
        b0=0.25,
    )
    out_cfg = tmp_path / "cfg.json"
    out_flag = tmp_path / "flag.json"
    proc = run_cli("risk", "--config", spec, "--seed", 4, "--output", out_cfg)
    assert proc.returncode == 0, proc.stderr
    # the lowered branch coefficient moves the big block onto the kernel rule
    assert json.loads(out_cfg.read_text())["per_block"][0]["branch"] == "geb"
    proc = run_cli("risk", "--config", spec, "--b0", 2, "--seed", 4, "--output", out_flag)
    assert proc.returncode == 0, proc.stderr
    # an explicit flag wins over the config file
    assert json.loads(out_flag.read_text())["per_block"][0]["branch"] == "threshold"


def test_unset_tuning_flags_leave_the_tuning_defaults(tmp_path):
    parser = cli.build_parser()
    for argv in (
        ["denoise", "--input", "in.csv", "--output", "out.csv"],
        ["risk", "--estimator", "mle", "--truth", "zero:3"],
    ):
        assert cli._tuning_from(parser.parse_args(argv)) == TuningConfig()
    write_spec(tmp_path / "tuning.cfg", rho0=0.5, a0=1, small_block="james_stein", b0=3)
    set_all = parser.parse_args(
        ["risk", "--estimator", "mle", "--truth", "zero:3", "--b0", "0.25", "--nstar", "8",
         "--config", str(tmp_path / "tuning.cfg")]
    )
    cli._apply_config(set_all)
    assert cli._tuning_from(set_all) == TuningConfig(
        rho0=0.5, b0=0.25, n_star=8, threshold_inflation=1.0, small_block_policy="james_stein"
    )


def test_simulate_bare_stdout_is_pure_json(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(spec, estimator="mle", truth="zero:3", epsilon="0.5", replicates=3, seed=9)
    proc = run_cli("risk", "--config", spec)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["replicates"] == 3
    assert proc.stderr == ""


def test_a_config_file_without_replicates_runs_the_default_100(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(spec, estimator="mle", truth="zero:1", epsilon="0.5", compute_ideal="false")
    code, out, err = _main(["risk", "--config", str(spec)])
    assert code == 0, err
    assert json.loads(out)["replicates"] == 100


@pytest.mark.parametrize("missing", ["estimator", "truth"])
def test_a_risk_run_without_an_estimator_or_a_truth_is_one_error_line(missing, tmp_path):
    given = {"estimator": "mle", "truth": "zero:3"}
    del given[missing]
    write_spec(tmp_path / "exp.cfg", epsilon="0.5", **given)
    for argv in (
        ["risk", "--config", str(tmp_path / "exp.cfg")],
        ["risk", "--epsilon", "0.5", *(f"--{key}={value}" for key, value in given.items())],
    ):
        code, out, err = _main(argv)
        assert (code, out) == (2, ""), err
        assert err.splitlines() == [f"error: missing {missing!r}: give --{missing} or set {missing} in --config"]


def test_a_config_key_set_twice_is_one_error_line(tmp_path):
    # the last value would otherwise win silently
    spec = tmp_path / "exp.cfg"
    spec.write_text("estimator = mle\ntruth = zero:3\nreplicates = 2\n# a comment\nreplicates = 3\n")
    code, out, err = _main(["risk", "--config", str(spec), "--epsilon", "0.5"])
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {spec}:5: replicates is set twice"]


def test_denoise_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "tuning.cfg"
    write_spec(cfg, wavelet="haar", bananas=1)
    src = tmp_path / "flat.csv"
    write_signal_csv(src, np.full(64, 1.0))
    proc = run_cli(
        "denoise", "--input", src, "--output", tmp_path / "o.csv", "--config", cfg
    )
    assert proc.returncode == 2
    assert "unknown keys: bananas" in proc.stderr


def _flag_dests(command):
    """The settings of ``command``'s flags, less the files and --rate."""
    parser = cli.build_parser()
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    skip = {"-h", "--input", "--output", "--config", "--rate"}
    return {action.dest for action in sub.choices[command]._actions if not skip & set(action.option_strings)}


@pytest.mark.parametrize(
    "argv", [["denoise", "--input", "in.csv", "--output", "out.csv"], ["risk"]], ids=["denoise", "risk"]
)
def test_a_commands_config_keys_are_its_flags_settings(argv, tmp_path):
    keys = _flag_dests(argv[0])
    assert cli._config_keys(cli.build_parser().parse_args(argv)) == keys
    # each key reads from a config file, and a file or --rate is no key
    write_spec(tmp_path / "all.cfg", **{key: "1" for key in keys})
    args = cli.build_parser().parse_args([*argv, "--config", str(tmp_path / "all.cfg")])
    cli._apply_config(args)
    assert {key: getattr(args, key) for key in keys} == {key: "1" for key in keys}
    for key in ("input", "output", "config", "rate"):
        write_spec(tmp_path / "one.cfg", **{key: "1"})
        with pytest.raises(ValueError, match=f"unknown keys: {key}$"):
            cli._apply_config(cli.build_parser().parse_args([*argv, "--config", str(tmp_path / "one.cfg")]))


def test_simulate_jobs_do_not_change_results(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(
        spec,
        estimator="geb-hybrid",
        truth="gaussian:1.0:256",
        epsilon="1.0",
        replicates=6,
        seed=21,
    )
    outs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.json"
        proc = run_cli("risk", "--config", spec, "--jobs", jobs, "--output", out)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_threads_env_var_is_jobs_fallback(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(
        spec,
        estimator="geb-hybrid",
        truth="gaussian:1.0:256",
        epsilon="1.0",
        replicates=6,
        seed=21,
    )
    out_flag = tmp_path / "flag.json"
    proc = run_cli("risk", "--config", spec, "--jobs", 2, "--output", out_flag)
    assert proc.returncode == 0, proc.stderr
    out_env = tmp_path / "env.json"
    proc = run_cli(
        "risk", "--config", spec, "--output", out_env,
        env_extra={"GEB_SHRINK_THREADS": "2"},
    )
    assert proc.returncode == 0, proc.stderr
    assert out_flag.read_bytes() == out_env.read_bytes()


def test_bad_env_thread_count(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(spec, estimator="mle", truth="zero:2", epsilon="0.5", replicates=2)
    for value in ("0", "abc"):
        proc = run_cli(
            "risk", "--config", spec, env_extra={"GEB_SHRINK_THREADS": value}
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: GEB_SHRINK_THREADS"), proc.stderr


# --------------------------------------------------------------------- risk


def test_huge_finite_values_print_no_warning(tmp_path):
    # one value at 1e200 overflows x^2 in kappa_hat and ||y||^2 in the
    # James-Stein factor, each to its limit
    values = np.random.default_rng(0).standard_normal(256)
    values[17] = 1e200
    write_signal_csv(tmp_path / "huge.csv", values)
    denoise = ("denoise", "--input", tmp_path / "huge.csv", "--output", tmp_path / "out.csv")
    risk = ("risk", "--estimator", "james-stein", "--truth", "atoms:0=0.5,1e200=0.5:100",
            "--epsilon", 1, "--replicates", 2, "--no-ideal")
    for argv in (denoise, (*denoise, "--sigma", 1), risk):
        proc = run_cli(*argv)
        quiet = run_cli(*argv, env_extra={"PYTHONWARNINGS": "ignore"})
        assert proc.returncode == quiet.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr, proc.stderr
        assert proc.stdout == quiet.stdout and proc.stdout


def test_risk_rate_smoke():
    proc = run_cli(
        "risk",
        "--estimator", "mle",
        "--truth", "zero:3",
        "--epsilon", "0.5,0.25,0.125,0.0625",
        "--replicates", 5,
        "--seed", 1,
        "--rate",
    )
    assert proc.returncode == 0, proc.stderr
    first = proc.stdout.splitlines()[0]
    assert first.startswith("slope")
    slope = float(first.split("=")[1])
    assert abs(slope - 2.0) < 0.02


def test_risk_rate_with_repeated_epsilons_is_one_error_line():
    proc = run_cli(
        "risk",
        "--estimator", "soft-universal",
        "--truth", "zero:6",
        "--epsilon", "1,1,1,1",
        "--rate",
        "--replicates", 2,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: rate fits need distinct epsilons, got 1.0 more than once"]
    assert proc.stdout == ""

@pytest.mark.parametrize("given", ["--output", "--format", "config format"])
def test_risk_rate_with_an_output_or_a_format_is_one_error_line(given, tmp_path):
    # a rate fit prints its slope table and writes no report, so a report
    # destination or format would be dropped in silence
    argv = ["risk", "--estimator", "mle", "--truth", "zero:3", "--epsilon", "1,0.5,0.25,0.125", "--rate"]
    extra = {
        "--output": ["--output", str(tmp_path / "rate.json")],
        "--format": ["--format", "csv"],
        "config format": ["--config", str(tmp_path / "json.cfg")],
    }[given]
    write_spec(tmp_path / "json.cfg", format="json")
    code, out, err = _main([*argv, *extra])
    assert (code, out) == (2, ""), err
    assert err.splitlines() == ["error: --rate prints its fit and writes no report: drop --output and format"]
    assert not (tmp_path / "rate.json").exists()


@pytest.mark.parametrize("epsilon", [None, "0.1,0.05,0.025,0.0125"])
def test_risk_rate_on_a_signal_truth_is_one_error_line(epsilon):
    # a rate fit varies epsilon and a signal truth fixes it, with or without a grid
    argv = ["risk", "--estimator", "mle", "--truth", "signal:doppler:256:7", "--rate", "--replicates", "2"]
    if epsilon is not None:
        argv += ["--epsilon", epsilon]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 2
    assert err.getvalue().splitlines() == [f"error: {risklab._FIXED_EPSILON}"]
    assert out.getvalue() == ""


def test_risk_no_ideal_skips_the_ideal_risk_of_a_deterministic_truth():
    argv = ["risk", "--estimator", "mle", "--truth", "besov:1:6", "--epsilon", "0.1", "--replicates", "2"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--no-ideal"])
    assert code == 0, err.getvalue()
    report = json.loads(out.getvalue())
    assert report["total_ideal"] is None and report["regret"] is None
    assert all(block["ideal_risk"] is None for block in report["per_block"])


def test_risk_oracle_truth_rate_is_numeric_failure():
    proc = run_cli(
        "risk",
        "--estimator", "oracle-truth",
        "--truth", "zero:3",
        "--epsilon", "0.5,0.25,0.125,0.0625",
        "--replicates", 2,
        "--rate",
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("numeric failure:")


def test_risk_bad_truth_spec():
    proc = run_cli(
        "risk", "--estimator", "mle", "--truth", "bogus:1", "--epsilon", "0.5"
    )
    assert proc.returncode == 2
    assert "bad --truth" in proc.stderr


def test_risk_empty_csv_truth_is_one_error_line(tmp_path):
    src = tmp_path / "empty.csv"
    src.write_text("")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["risk", "--estimator", "mle", "--truth", f"csv:{src}", "--epsilon", "0.5"])
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].endswith(f"{src}: empty file, expected a header"), lines
    assert out.getvalue() == ""


def test_risk_csv_truth_with_a_bad_level_cell_is_one_error_line(tmp_path):
    src = tmp_path / "coef.csv"
    src.write_text("j,k,value,delta\n-1,1,0.5,1\nx,1,0.25,1\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["risk", "--estimator", "mle", "--truth", f"csv:{src}", "--epsilon", "0.5"])
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].endswith(f"{src}:3: j cell 'x' is not an integer"), lines
    assert out.getvalue() == ""


@pytest.mark.parametrize("cell", ["inf", "nan"])
def test_risk_csv_truth_with_a_non_finite_value_is_one_error_line(tmp_path, cell):
    # the cell is a number, but no replicate can run on it
    src = tmp_path / "coef.csv"
    src.write_text(f"j,k,value,delta\n-1,1,0.5,1\n0,1,{cell},1\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["risk", "--estimator", "mle", "--truth", f"csv:{src}", "--epsilon", "1", "--no-ideal"])
    assert code == 2
    assert err.getvalue().splitlines() == [
        f"error: bad --truth 'csv:{src}': truth level 0 holds a value that is not finite"
    ]
    assert out.getvalue() == ""


@pytest.mark.parametrize("estimator", ["soft-universal", "hard-universal"])
def test_risk_universal_thresholds_ignore_the_density_floor(estimator):
    # rho0 = 5 puts the floor past 1/sqrt(2 pi); only geb-hybrid uses it
    argv = ["risk", "--estimator", estimator, "--truth", "gaussian:1:256", "--epsilon", "0.1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--rho0", "5", "--no-ideal", "--replicates", "2"])
    assert code == 0, err.getvalue()
    assert [block["branch"] for block in json.loads(out.getvalue())["per_block"]] == ["threshold"]


def test_risk_unknown_signal_fails_when_the_truth_is_parsed():
    proc = run_cli("risk", "--estimator", "mle", "--truth", "signal:nosuch:256:7")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: bad --truth 'signal:nosuch:256:7'")


def test_risk_report_to_stdout():
    proc = run_cli(
        "risk",
        "--estimator", "james-stein",
        "--truth", "atoms:-2=0.5,2=0.5:64",
        "--epsilon", "1.0",
        "--replicates", 4,
        "--seed", 8,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["estimator"] == "james-stein"
    assert payload["total_mse"] > 0.0


def test_simulate_spec_rejects_unknown_kde_mode(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(spec, estimator="geb-hybrid", truth="gaussian:1.0:256", epsilon="1.0", kde_mode="fft")
    proc = run_cli("risk", "--config", spec)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "unknown keys: kde_mode" in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("epsilon", ["1e200", "1e308"])
def test_risk_overflow_is_numeric_failure(epsilon):
    # 1e200 overflows the squared errors, 1e308 the observations themselves
    proc = run_cli(
        "risk",
        "--estimator", "mle",
        "--truth", "zero:3",
        "--epsilon", epsilon,
        "--no-ideal",
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith("numeric failure:")


@pytest.mark.parametrize("epsilon", ["1e200", "1e308"])
def test_risk_overflow_reports_only_the_numeric_failure(epsilon):
    proc = run_cli(
        "risk",
        "--estimator", "mle",
        "--truth", "zero:3",
        "--epsilon", epsilon,
        "--no-ideal",
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("numeric failure:")


# extreme but valid inputs, each with its exit code and its stderr lines; the
# suite turns a RuntimeWarning into an error, so a numpy warning fails the case
_EXTREME_CASES = {
    "oracle-atoms-past-the-float-range": (
        ["oracle", "--atoms=1e308=0.5,-1e308=0.5"],
        1,
        ["numeric failure: integrand returned non-finite values; interval=(-1e+308, 1e+308) panels=1"],
    ),
    "risk-draw-overflows": (
        ["risk", "--estimator", "geb-hybrid", "--truth", "gaussian:1e300:256", "--epsilon", "1e10",
         "--replicates", "2"],
        1,
        ["numeric failure: observations overflow at epsilon 1e+10"],
    ),
    "risk-kde-at-far-atoms": (
        ["risk", "--estimator", "geb-hybrid", "--truth", "atoms:1e300=0.5,-1e300=0.5:256",
         "--epsilon", "1", "--replicates", "2"],
        1,
        ["numeric failure: integrand returned non-finite values; interval=(-1e+300, 1e+300) panels=1"],
    ),
    "denoise-tiny-sigma-with-a-spike": (
        ["denoise", "--input", "{csv}", "--output", "{out}", "--sigma", "1e-300"],
        0,
        [],
    ),
}


@pytest.mark.parametrize("case", list(_EXTREME_CASES))
def test_extreme_inputs_raise_no_numpy_warning(case, tmp_path, monkeypatch):
    argv, code, lines = _EXTREME_CASES[case]
    monkeypatch.delenv("GEB_SHRINK_THREADS", raising=False)
    values = np.sin(np.arange(1, 1025) / 40.0)
    values[499] = 1e6
    write_signal_csv(tmp_path / "spike.csv", values)
    paths = {"{csv}": str(tmp_path / "spike.csv"), "{out}": str(tmp_path / "out.csv")}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = cli.main([paths.get(arg, arg) for arg in argv])
    assert (got, err.getvalue().splitlines()) == (code, lines)


def test_dead_worker_is_one_error_line(monkeypatch, capsys):
    def dead_worker(spec, jobs=1):
        raise WorkerDied("pid 4321, exit code -9")

    # the risk command imports monte_carlo_risk from risklab when it runs
    monkeypatch.setattr(risklab, "monte_carlo_risk", dead_worker)
    argv = ["risk", "--estimator", "mle", "--truth", "zero:3", "--epsilon", "0.5", "--jobs", "2", "--no-ideal"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: worker process died"), err


def test_out_of_memory_is_one_error_line(monkeypatch, capsys):
    def oversized(j_max):
        raise MemoryError("Unable to allocate 8.00 GiB for an array with shape (1073741824,)")

    # the truth is built when the risk command parses it; no real allocation is made
    monkeypatch.setattr(risklab.TruthSource, "zero", staticmethod(oversized))
    argv = ["risk", "--estimator", "mle", "--truth", "zero:40", "--epsilon", "1", "--replicates", "1"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines == ["error: out of memory: Unable to allocate 8.00 GiB for an array with shape (1073741824,)"], err


# ------------------------------------------------------------ spec fuzzing

_VALID_SPEC = {"estimator": "mle", "truth": "zero:3", "epsilon": "0.5", "replicates": "2"}
_TRUTH_FIELDS = {"zero": 1, "besov": 2, "signal": 3, "gaussian": 2, "atoms": 2}
_CHOICES = ("true", "false", "csv", "json", "mle", "james_stein", *cli.ESTIMATORS)


def _parses_as_finite(text):
    try:
        return all(abs(float(piece)) < float("inf") for piece in text.split(","))
    except ValueError:
        return False


_NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999"])
_NON_NUMERIC = st.text(alphabet="abcdefghijklmnopqrstuvwxyz.,-+ ", min_size=1, max_size=8).filter(
    lambda t: t.strip() not in ("", "auto") and not _parses_as_finite(t)
)
_BAD_NUMBER = st.one_of(_NON_FINITE, _NON_NUMERIC)
_BAD_INT = st.one_of(_BAD_NUMBER, st.sampled_from(["2.5", "1e3", "0x10", "8.0"]))


def _spec_with(keys, values):
    """``(key, spec)``: the valid spec with one key (from ``keys``) set to a
    value from ``values``."""
    return st.builds(
        lambda key, value: (key, {**_VALID_SPEC, key: value}), st.sampled_from(keys), values
    )


_BAD_TRUTHS = st.one_of(
    # no kind separator
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789.,=- ", max_size=16),
    # a known kind with the wrong number of fields
    st.builds(
        lambda kind, fields: ":".join([kind, *fields]),
        st.sampled_from(sorted(_TRUTH_FIELDS)),
        st.lists(st.sampled_from(["1", "64", "0.5", "bumps"]), max_size=4),
    ).filter(lambda t: t.count(":") != _TRUTH_FIELDS[t.split(":")[0]]),
    # a known kind with one field non-numeric or non-finite
    st.builds("zero:{}".format, _BAD_INT),
    st.builds("besov:{}:3".format, _BAD_NUMBER),
    st.builds("besov:1.0:{}".format, _BAD_INT),
    st.builds("signal:bumps:{}:7".format, _BAD_INT),
    st.builds("signal:bumps:64:{}".format, _BAD_NUMBER),
    st.builds("gaussian:{}:64".format, _BAD_NUMBER),
    st.builds("gaussian:1.0:{}".format, _BAD_INT),
    st.builds("atoms:0={}:64".format, _BAD_NUMBER),
    st.builds("atoms:{}=1:64".format, _BAD_NUMBER),
    st.builds("atoms:0=1:{}".format, _BAD_INT),
)

_RISK_KEYS = cli._config_keys(cli.build_parser().parse_args(["risk"]))
_MALFORMED_SPECS = st.one_of(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)
    .filter(lambda key: key not in _RISK_KEYS)
    .map(lambda key: (key, {**_VALID_SPEC, key: "1"})),
    _spec_with(("epsilon", "rho0", "b0", "a0"), _BAD_NUMBER),
    _spec_with(("replicates", "seed", "nstar", "jobs"), _BAD_INT),
    _spec_with(
        ("compute_ideal", "format", "estimator", "small_block"),
        st.one_of(_BAD_NUMBER, st.sampled_from(["1", "0", "yes", "JSON"])).filter(
            lambda v: v.strip() not in _CHOICES
        ),
    ),
    _spec_with(("truth",), _BAD_TRUTHS),
)


@settings(max_examples=200, deadline=None)
@given(case=_MALFORMED_SPECS)
# bound_p is no spec key: it fails like any unknown key
@example(case=("bound_p", {**_VALID_SPEC, "bound_p": "2"}))
def test_malformed_spec_is_one_error_line(case):
    key, spec = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.cfg")
        write_spec(path, **spec)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["risk", "--config", path])
    lines = err.getvalue().splitlines()
    assert code == 2, (spec, err.getvalue())
    assert len(lines) == 1 and lines[0].startswith("error:"), (spec, err.getvalue())
    assert key in lines[0], (spec, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert out.getvalue() == ""


# ------------------------------------------------------- the number rule

# numeric setting -> kind; each is read from its flag or its config key, and
# jobs from GEB_SHRINK_THREADS as well
_NUMERIC_SETTINGS = {
    "rho0": float,
    "b0": float,
    "a0": float,
    "nstar": int,
    "seed": int,
    "jobs": int,
    "replicates": int,
    "epsilon": float,
    "sigma": float,
}
_RISK_FLAGS = {"estimator": "mle", "truth": "zero:3", "epsilon": "1", "replicates": "2"}
_NON_ASCII_DIGIT = st.characters(categories=["Nd"]).filter(lambda c: not c.isascii())
# text that int() or float() reads but the number rule does not, or that no rule reads
_MALFORMED_NUMBER = st.one_of(
    st.sampled_from(["1_0", "\u0661", "x", ""]),
    st.builds("{}_{}".format, st.integers(1, 999), st.integers(0, 999)),
    st.builds("1{}".format, _NON_ASCII_DIGIT),
)
_MALFORMED_INTEGER = st.one_of(_MALFORMED_NUMBER, st.sampled_from(["2.5", "1e3", "0x10"]))


def _sources(key):
    return ("flag", "config", "GEB_SHRINK_THREADS") if key == "jobs" else ("flag", "config")


def _main(argv, threads=None):
    """``cli.main(argv)`` in-process, with GEB_SHRINK_THREADS set to ``threads``
    (unset for None): (exit code, stdout, stderr); a SystemExit is its code."""
    out, err = io.StringIO(), io.StringIO()
    env = {} if threads is None else {"GEB_SHRINK_THREADS": threads}
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if threads is None:
            os.environ.pop("GEB_SHRINK_THREADS", None)
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def _run_with_setting(source, key, text, tmp, base=_RISK_FLAGS):
    """Run the command that reads ``key`` from ``source``, set to ``text``:
    ``denoise`` for sigma and wavelet, else ``risk`` with the ``base`` flags.
    A config file holds the key alone, and its flag is then left out."""
    if key in ("sigma", "wavelet"):
        write_signal_csv(os.path.join(tmp, "in.csv"), np.sin(np.arange(64.0)))
        command = ["denoise", "--input", os.path.join(tmp, "in.csv"), "--output", os.path.join(tmp, "out.csv")]
        flags = {}
    else:
        command, flags = ["risk"], {k: v for k, v in base.items() if k != key}
    if source == "flag":
        flags[key] = text
    argv = [*command, *(f"--{k.replace('_', '-')}={v}" for k, v in flags.items())]
    if source == "config":
        write_spec(os.path.join(tmp, "setting.cfg"), **{key: text})
        argv += ["--config", os.path.join(tmp, "setting.cfg")]
    return _main(argv, threads=text if source == "GEB_SHRINK_THREADS" else None)


@st.composite
def _malformed_settings(draw):
    key = draw(st.sampled_from(sorted(_NUMERIC_SETTINGS)))
    kind = _NUMERIC_SETTINGS[key]
    # an empty epsilon is the empty grid, which is valid
    text = draw((_MALFORMED_INTEGER if kind is int else _MALFORMED_NUMBER).filter(lambda t: key != "epsilon" or t))
    return key, text


@settings(max_examples=60, deadline=None)
@given(case=_malformed_settings())
@example(case=("b0", "1_0"))
@example(case=("epsilon", "\u0661"))
@example(case=("replicates", "2.5"))
@example(case=("sigma", "x"))
@example(case=("jobs", "1_0"))
def test_a_malformed_number_is_one_error_line_from_every_source(case):
    # flags, config entries and GEB_SHRINK_THREADS share one number rule and
    # one error line, which names the setting that holds the text
    key, text = case
    expected = "an integer" if _NUMERIC_SETTINGS[key] is int else "a number"
    with tempfile.TemporaryDirectory() as tmp:
        for source in _sources(key):
            code, out, err = _run_with_setting(source, key, text, tmp)
            name = key if source in ("flag", "config") else source
            assert (code, out) == (2, ""), (source, err)
            assert err.splitlines() == [f"error: {name}: expected {expected}, got {text!r}"], (source, err)


# each setting of risk and denoise -> a value other than the base run's
_CHANGED = {
    "estimator": "james-stein",
    "truth": "zero:3",
    "epsilon": "0.05",
    "replicates": "3",
    "seed": "4",
    "jobs": "2",
    "compute_ideal": "false",
    "format": "csv",
    "rho0": "0.05",
    "b0": "2",
    "a0": "0.5",
    "nstar": "16",
    "small_block": "james_stein",
    "sigma": "0.5",
    "wavelet": "haar",
}


def test_a_setting_given_as_a_flag_or_in_a_config_file_gives_the_same_report(tmp_path):
    # risk's base run has three blocks: 16 coefficients below n_star, 128 zeros
    # that take the threshold branch and 512 that take the geb branch at b0 = 0.25,
    # so every setting reaches the report
    truth = tmp_path / "truth.csv"
    blocks = {0: 2.0 * np.cos(np.arange(16.0)), 1: np.zeros(128), 2: 1.5 * np.sin(np.arange(512.0))}
    truth.write_text("j,k,value,delta\n" + "".join(
        f"{j},{k},{float(x)!r},1\n" for j, values in blocks.items() for k, x in enumerate(values, 1)
    ))
    base = {"estimator": "geb-hybrid", "truth": f"csv:{truth}", "epsilon": "1", "replicates": "2", "b0": "0.25"}
    tmp = str(tmp_path)
    risk_default = _run_with_setting("flag", "seed", "0", tmp, base=base)
    assert risk_default[0] == 0, risk_default[2]
    assert [block["branch"] for block in json.loads(risk_default[1])["per_block"]] == ["mle", "threshold", "geb"]
    for key, value in _CHANGED.items():
        if key == "compute_ideal":  # its flag is --no-ideal
            write_spec(tmp_path / "ideal.cfg", compute_ideal=value)
            argv = ["risk", *(f"--{k}={v}" for k, v in base.items())]
            from_flag, from_config = _main([*argv, "--no-ideal"]), _main([*argv, "--config", str(tmp_path / "ideal.cfg")])
        else:
            from_flag = _run_with_setting("flag", key, value, tmp, base=base)
            from_config = _run_with_setting("config", key, value, tmp, base=base)
        assert from_flag[0] == 0, (key, from_flag[2])
        assert from_flag == from_config, key
        default = risk_default
        if key in ("sigma", "wavelet"):
            default = _main(["denoise", "--input", str(tmp_path / "in.csv"), "--output", str(tmp_path / "out.csv")])
        # the setting took effect, save jobs, which no report depends on
        assert (from_flag == default) == (key == "jobs"), key


# choice setting; each is read from its flag or its config key
_CHOICE_SETTINGS = ("estimator", "format", "small_block", "wavelet")


@pytest.mark.parametrize("key", _CHOICE_SETTINGS)
def test_a_bad_choice_is_one_error_line_from_every_source(key, tmp_path):
    # the library checks each choice and argparse none, so a flag fails
    # with the line a config entry gives, not with a usage block
    errors = set()
    for source in _sources(key):
        code, out, err = _run_with_setting(source, key, "db97", str(tmp_path))
        assert (code, out) == (2, ""), (source, err)
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "'db97'" in err, (source, err)
        errors.add(err)
    assert len(errors) == 1, errors


@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_risk_rejects_non_finite_epsilon(epsilon):
    proc = run_cli(
        "risk", "--estimator", "mle", "--truth", "zero:3", "--epsilon", epsilon
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: epsilons must be positive and finite")
    assert proc.stderr.count("\n") == 1


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, gebshrink.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
