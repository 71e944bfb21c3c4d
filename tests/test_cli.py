"""End-to-end command-line checks, via subprocess and in-process."""

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


def test_oracle_far_apart_atoms_fail_in_one_line(capsys, recwarn):
    # (1e200)^2 overflows: the quadrature's one failure line, no numpy warnings
    assert cli.main(["oracle", "--atoms=1e200=0.5,-1e200=0.5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure:"), err
    assert [str(w.message) for w in recwarn] == []


# ----------------------------------------------------------------- simulate


def write_spec(path, **kv):
    with open(path, "w") as fh:
        for key, value in kv.items():
            fh.write(f"{key} = {value}\n")


def test_simulate_zero_replicates_rejected(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(spec, estimator="mle", truth="zero:3", epsilon="0.5", replicates=0)
    proc = run_cli("simulate", "--spec", spec)
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
        proc = run_cli("simulate", "--spec", spec, "--seed", 42, "--output", out)
        assert proc.returncode == 0, proc.stderr
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["seed"] == 42
    assert payload["estimator"] == "geb-hybrid"


def test_simulate_csv_format(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(spec, estimator="mle", truth="zero:2", epsilon="0.5", replicates=4, seed=3)
    out = tmp_path / "r.csv"
    proc = run_cli("simulate", "--spec", spec, "--format", "csv", "--output", out)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("block_id,")
    assert lines[-1].startswith("total,")


def test_simulate_rejects_unknown_spec_key(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(spec, estimator="mle", truth="zero:3", epsilon="0.5", replicats=9)
    proc = run_cli("simulate", "--spec", spec)
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
    )
    tuning = tmp_path / "tuning.cfg"
    write_spec(tuning, b0=0.25)
    out_cfg = tmp_path / "cfg.json"
    out_flag = tmp_path / "flag.json"
    proc = run_cli(
        "simulate", "--spec", spec, "--config", tuning, "--seed", 4, "--output", out_cfg
    )
    assert proc.returncode == 0, proc.stderr
    # the lowered branch coefficient moves the big block onto the kernel rule
    assert json.loads(out_cfg.read_text())["per_block"][0]["branch"] == "geb"
    proc = run_cli(
        "simulate", "--spec", spec, "--config", tuning, "--b0", 2, "--seed", 4,
        "--output", out_flag,
    )
    assert proc.returncode == 0, proc.stderr
    # an explicit flag wins over the config file
    assert json.loads(out_flag.read_text())["per_block"][0]["branch"] == "threshold"


def test_unset_tuning_flags_leave_the_tuning_defaults():
    parser = cli.build_parser()
    for argv in (
        ["denoise", "--input", "in.csv", "--output", "out.csv"],
        ["simulate", "--spec", "exp.cfg"],
        ["risk", "--estimator", "mle", "--truth", "zero:3"],
    ):
        assert cli._tuning_from(parser.parse_args(argv), {}) == TuningConfig()
    set_all = parser.parse_args(["risk", "--estimator", "mle", "--truth", "zero:3", "--b0", "0.25", "--nstar", "8"])
    config = {"rho0": "0.5", "a0": "1", "small_block": "james_stein", "b0": "3"}
    assert cli._tuning_from(set_all, config) == TuningConfig(
        rho0=0.5, b0=0.25, n_star=8, threshold_inflation=1.0, small_block_policy="james_stein"
    )


def test_simulate_bare_stdout_is_pure_json(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(spec, estimator="mle", truth="zero:3", epsilon="0.5", replicates=3, seed=9)
    proc = run_cli("simulate", "--spec", spec)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)  # the summary line must not share stdout
    assert payload["replicates"] == 3
    assert proc.stderr.startswith("total_mse = ")


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
        proc = run_cli("simulate", "--spec", spec, "--jobs", jobs, "--output", out)
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
    proc = run_cli("simulate", "--spec", spec, "--jobs", 2, "--output", out_flag)
    assert proc.returncode == 0, proc.stderr
    out_env = tmp_path / "env.json"
    proc = run_cli(
        "simulate", "--spec", spec, "--output", out_env,
        env_extra={"GEB_SHRINK_THREADS": "2"},
    )
    assert proc.returncode == 0, proc.stderr
    assert out_flag.read_bytes() == out_env.read_bytes()


def test_bad_env_thread_count(tmp_path):
    spec = tmp_path / "exp.cfg"
    write_spec(spec, estimator="mle", truth="zero:2", epsilon="0.5", replicates=2)
    for value in ("0", "abc"):
        proc = run_cli(
            "simulate", "--spec", spec, env_extra={"GEB_SHRINK_THREADS": value}
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
    proc = run_cli("simulate", "--spec", spec)
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

_MALFORMED_SPECS = st.one_of(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)
    .filter(lambda key: key not in cli._SPEC_KEYS)
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
            code = cli.main(["simulate", "--spec", path])
    lines = err.getvalue().splitlines()
    assert code == 2, (spec, err.getvalue())
    assert len(lines) == 1 and lines[0].startswith("error:"), (spec, err.getvalue())
    assert key in lines[0], (spec, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert out.getvalue() == ""


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
