"""End-to-end tests of the command-line interface."""
from __future__ import annotations

import json
import math
import os
import re

import numpy as np
import pytest

from dtfield import cli
from dtfield.cli import _SOLVE_OPTS, main
from dtfield.fileio import read_field, write_field
from dtfield.analysis import log_distance_map
from dtfield.spd import eigh_coeffs
from dtfield.synth import make_staircase_phantom


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def never_called(*args, **kwargs):
    raise AssertionError("the work ran before the output paths were checked")


def generate(capsys, out_dir, *extra):
    code, _, err = run(capsys, "generate", "--phantom", "staircase", "--n", "5",
                       "--sigma2", "900", "--seed", "3", "--out", str(out_dir),
                       *extra)
    assert code == 0, err
    return out_dir


# ---- generate ----

def test_generate_writes_deterministic_files(tmp_path, capsys):
    a = generate(capsys, tmp_path / "a", "--write-dwis")
    b = generate(capsys, tmp_path / "b", "--write-dwis")
    for name in ("original.dtf", "noisy.dtf", "dwis.dwi", "provenance.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    provenance = json.loads((a / "provenance.json").read_text())
    assert provenance["seed"] == 3
    assert provenance["sigma2"] == 900.0
    assert provenance["phantom"] == "staircase"


def test_generate_thread_count_does_not_change_bytes(tmp_path, capsys):
    a = generate(capsys, tmp_path / "a", "--write-dwis")
    b = generate(capsys, tmp_path / "b", "--write-dwis", "--threads", "4")
    assert (a / "noisy.dtf").read_bytes() == (b / "noisy.dtf").read_bytes()
    assert (a / "dwis.dwi").read_bytes() == (b / "dwis.dwi").read_bytes()


def test_generate_rejects_non_positive_threads(tmp_path, capsys):
    # --threads has no effect, but it is still checked and recorded
    out = tmp_path / "out"
    for threads in ("0", "-3"):
        code, _, err = run(capsys, "generate", "--n", "4", "--sigma2", "900",
                           "--threads", threads, "--out", str(out))
        assert code == 2
        assert "threads must be >= 1" in err
        assert not out.exists()


@pytest.mark.parametrize("flag,name", [("b", "b_value"), ("a0", "a0"), ("sigma2", "sigma2")])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_generate_rejects_non_finite_signal_parameters(tmp_path, capsys, flag, name, value):
    # --b inf used to exit 0 with every signal at 0 and "b": Infinity in the
    # provenance; --a0 inf and --sigma2 inf failed only on the images
    out = tmp_path / "out"
    code, _, err = run(capsys, "generate", "--n", "4", "--sigma2", "100", f"--{flag}", value,
                       "--out", str(out))
    assert code == 2
    assert f"{name} must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "denoise"])
def test_epsilon_floor_outside_log_ball_exits_2(tmp_path, capsys, command):
    # generate used to write eigenvalues below the floor, denoise to exit 3
    if command == "generate":
        inputs = ["--n", "4"]
    else:
        inputs = [str(generate(capsys, tmp_path / "data") / "noisy.dtf")]
    out = tmp_path / "out"
    code, _, err = run(capsys, command, *inputs, "--epsilon", "1e10", "--out", str(out))
    assert code == 2
    assert "epsilon = 1e+10 leaves no feasible tensor" in err
    assert not out.exists()


def test_generate_out_naming_a_file_exits_2(tmp_path, capsys):
    # os.makedirs raises FileExistsError, an OSError that used to exit 3
    target = tmp_path / "afile"
    target.write_text("keep\n")
    code, stdout, err = run(capsys, "generate", "--n", "4", "--out", str(target))
    assert code == 2
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert target.read_text() == "keep\n"
    assert [path.name for path in tmp_path.iterdir()] == ["afile"]


@pytest.mark.parametrize("target", ["afile", "afile/", "afile/sub", "afile/sub/deeper"])
def test_generate_checks_out_before_the_work(tmp_path, capsys, monkeypatch, target):
    # the simulation and the fit used to run before os.makedirs rejected --out
    monkeypatch.setattr(cli, "fit_field", never_called)
    (tmp_path / "afile").write_text("keep\n")
    out = os.path.join(str(tmp_path), target)
    code, stdout, err = run(capsys, "generate", "--n", "4", "--out", out)
    assert code == 2 and stdout == ""
    with pytest.raises(OSError) as makedirs_error:
        os.makedirs(out, exist_ok=True)
    assert err == f"error: {makedirs_error.value}\n"
    assert [path.name for path in tmp_path.iterdir()] == ["afile"]


@pytest.mark.parametrize("extra,message", [
    (["--epsilon", "0"], "epsilon must be > 0, got 0.0"),
    (["--epsilon", "-1"], "epsilon must be > 0, got -1.0"),
    (["--z", "0"], "z must be > 0, got 0.0"),
    (["--n", "16", "--sigma2", "6400", "--epsilon", "0"], "epsilon must be > 0, got 0.0"),
], ids=["epsilon-0", "epsilon-negative", "z-0", "epsilon-0-16x16"])
def test_generate_rejects_non_positive_epsilon_and_z(tmp_path, capsys, extra, message):
    # these exited 0 and wrote fields, the 16x16 one exited 2 with "matrix log
    # requires a positive definite matrix (min eigenvalue 0)"
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "generate", "--n", "4", *extra, "--out", str(out))
    assert code == 2 and stdout == ""
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--z", "0", "z must be > 0, got 0.0"),
    ("--z", "inf", "z must be finite, got inf"),
    ("--epsilon", "0", "epsilon must be > 0, got 0.0"),
    ("--epsilon", "nan", "epsilon must be finite, got nan"),
], ids=["z-0", "z-inf", "epsilon-0", "epsilon-nan"])
def test_epsilon_and_z_are_checked_once_before_any_work(tmp_path, capsys, monkeypatch,
                                                        flag, value, message):
    # generate --z 0 printed "epsilon and z must be > 0, got 2.22045e-16 and 0"
    # where denoise printed "z must be > 0, got 0.0", and generate --z inf
    # simulated, added noise and fitted before "log_bound must be finite"
    write_field(make_staircase_phantom(5), tmp_path / "in.dtf")
    (tmp_path / "full.msk").write_text("MSK1 5 5\n" + "11111\n" * 5)
    for name in ("simulate_dwis", "read_field", "solve"):
        monkeypatch.setattr(cli, name, never_called)
    out = tmp_path / "out"
    for argv in (["generate", "--n", "4"], ["denoise", str(tmp_path / "in.dtf")],
                 ["inpaint", str(tmp_path / "in.dtf"), "--mask", str(tmp_path / "full.msk")]):
        code, stdout, err = run(capsys, *argv, flag, value, "--out", str(out))
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not out.exists()


def test_generate_zero_noise_roundtrips(tmp_path, capsys):
    code, _, _ = run(capsys, "generate", "--n", "4", "--sigma2", "0",
                     "--out", str(tmp_path))
    assert code == 0
    orig = read_field(tmp_path / "original.dtf")
    noisy = read_field(tmp_path / "noisy.dtf")
    assert log_distance_map(orig, noisy).max() < 1e-8


def test_generate_rejects_unknown_phantom(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--phantom", "helix", "--out", str(tmp_path))
    assert code == 2
    assert "usage" in err


# ---- denoise / inpaint ----

def test_denoise_report_and_output(tmp_path, capsys):
    data = generate(capsys, tmp_path)
    out = tmp_path / "rec.dtf"
    code, stdout, _ = run(capsys, "denoise", str(data / "noisy.dtf"),
                          "--alpha", "2.75", "--iters", "8", "--out", str(out))
    assert code == 0
    assert "objective" in stdout
    report = json.loads((tmp_path / "rec.dtf.report.json").read_text())
    trajectory = report["objective_trajectory"]
    assert report["seconds"] == 0.0
    assert report["iterations"] == len(trajectory) - 1
    assert all(b <= a for a, b in zip(trajectory, trajectory[1:]))
    rec = read_field(out)
    assert rec.height == rec.width == 5


def test_denoise_rerun_is_byte_identical(tmp_path, capsys):
    data = generate(capsys, tmp_path)
    for name in ("r1", "r2"):
        code, _, _ = run(capsys, "denoise", str(data / "noisy.dtf"),
                         "--alpha", "1.0", "--iters", "6",
                         "--out", str(tmp_path / f"{name}.dtf"))
        assert code == 0
    assert ((tmp_path / "r1.dtf").read_bytes()
            == (tmp_path / "r2.dtf").read_bytes())
    assert ((tmp_path / "r1.dtf.report.json").read_bytes()
            == (tmp_path / "r2.dtf.report.json").read_bytes())


def test_denoise_alpha_zero_returns_input(tmp_path, capsys):
    field = make_staircase_phantom(4)
    path = tmp_path / "in.dtf"
    write_field(field, path)
    code, _, _ = run(capsys, "denoise", str(path), "--alpha", "0",
                     "--iters", "5", "--out", str(tmp_path / "out.dtf"))
    assert code == 0
    assert log_distance_map(read_field(tmp_path / "out.dtf"), field).max() < 1e-8


def test_denoise_rejects_nan_weight(tmp_path, capsys):
    # a NaN alpha used to switch the regularizer off and write the input back
    data = generate(capsys, tmp_path)
    out = tmp_path / "rec.dtf"
    code, _, err = run(capsys, "denoise", str(data / "noisy.dtf"), "--alpha", "nan",
                       "--out", str(out))
    assert code == 2
    assert "alpha must be finite" in err
    assert not out.exists()
    assert not (tmp_path / "rec.dtf.report.json").exists()


def test_denoise_epsilon_above_data_floor_starts_feasible(tmp_path, capsys):
    # the README data has eigenvalues down to 2.2e-4: with --epsilon 1e-3 the
    # log-domain start must be projected onto the floor, or the first
    # projected trial lands far above the infeasible start and the solve
    # exits 3 with a line-search error
    code, _, err = run(capsys, "generate", "--phantom", "staircase", "--n", "10",
                       "--sigma2", "1600", "--seed", "0", "--out", str(tmp_path))
    assert code == 0, err
    noisy = read_field(tmp_path / "noisy.dtf")
    assert eigh_coeffs(noisy.coeffs)[0].min() < 1e-3
    out = tmp_path / "rec.dtf"
    code, _, err = run(capsys, "denoise", str(tmp_path / "noisy.dtf"), "--epsilon", "1e-3",
                       "--iters", "40", "--out", str(out))
    assert code == 0, err
    report = json.loads((tmp_path / "rec.dtf.report.json").read_text())
    trajectory = report["objective_trajectory"]
    assert report["iterations"] == 40
    assert all(b <= a for a, b in zip(trajectory, trajectory[1:]))
    assert eigh_coeffs(read_field(out).coeffs)[0].min() >= 1e-3 * (1.0 - 1e-12)


def test_advertised_solve_defaults_match_omitted_flags(tmp_path, capsys):
    code, stdout, _ = run(capsys, "denoise", "--help")
    assert code == 0
    help_text = " ".join(stdout.split())
    defaults = re.findall(r"--([\w-]+) V .*?\(default: ([^)]+)\)", help_text)
    assert {name for name, _ in defaults} == {flag for flag, *_ in _SOLVE_OPTS}
    data = generate(capsys, tmp_path)
    explicit = [arg for name, value in defaults for arg in (f"--{name}", value)]
    for name, extra in (("implicit", []), ("explicit", explicit)):
        code, _, err = run(capsys, "denoise", str(data / "noisy.dtf"), *extra,
                           "--out", str(tmp_path / f"{name}.dtf"))
        assert code == 0, err
    for suffix in (".dtf", ".dtf.report.json"):
        assert ((tmp_path / f"implicit{suffix}").read_bytes()
                == (tmp_path / f"explicit{suffix}").read_bytes())


def test_inpaint_full_mask_matches_denoise(tmp_path, capsys):
    data = generate(capsys, tmp_path)
    mask = tmp_path / "full.msk"
    mask.write_text("MSK1 5 5\n" + "11111\n" * 5)
    code, _, _ = run(capsys, "denoise", str(data / "noisy.dtf"), "--alpha", "1.0",
                     "--iters", "6", "--out", str(tmp_path / "den.dtf"))
    assert code == 0
    code, _, _ = run(capsys, "inpaint", str(data / "noisy.dtf"), "--mask", str(mask),
                     "--alpha", "1.0", "--iters", "6",
                     "--out", str(tmp_path / "inp.dtf"))
    assert code == 0
    assert ((tmp_path / "den.dtf").read_bytes()
            == (tmp_path / "inp.dtf").read_bytes())


def test_inpaint_moves_masked_pixels_toward_truth(tmp_path, capsys):
    field = make_staircase_phantom(5)
    write_field(field, tmp_path / "in.dtf")
    mask = tmp_path / "hole.msk"
    mask.write_text("MSK1 5 5\n11111\n11011\n11011\n11111\n11111\n")
    code, _, _ = run(capsys, "inpaint", str(tmp_path / "in.dtf"), "--mask", str(mask),
                     "--alpha", "1.0", "--iters", "10",
                     "--out", str(tmp_path / "out.dtf"))
    assert code == 0
    rec = read_field(tmp_path / "out.dtf")
    hole = ~np.array([[c == "1" for c in row]
                      for row in mask.read_text().splitlines()[1:]])
    gaps = log_distance_map(rec, field)[hole]
    # both hole pixels sit in column 2, truth eigenvalues (2e-3, 5e-4, 5e-4);
    # the masked-pixel seed is the projected zero tensor exp(-36/sqrt(3)) I
    base = 36.0 / math.sqrt(3.0)
    seed_gap = math.sqrt((math.log(2.0e-3) + base) ** 2
                         + 2.0 * (math.log(0.5e-3) + base) ** 2)
    assert gaps.max() < seed_gap


def test_inpaint_mask_dimension_mismatch_exits_2(tmp_path, capsys):
    field = make_staircase_phantom(4)
    write_field(field, tmp_path / "in.dtf")
    mask = tmp_path / "bad.msk"
    mask.write_text("MSK1 3 3\n111\n101\n111\n")
    code, _, err = run(capsys, "inpaint", str(tmp_path / "in.dtf"),
                       "--mask", str(mask), "--out", str(tmp_path / "out.dtf"))
    assert code == 2
    assert "mask" in err


def test_solve_objective_variants(tmp_path, capsys):
    data = generate(capsys, tmp_path)
    for objective in ("euclid", "sobolev"):
        code, _, err = run(capsys, "denoise", str(data / "noisy.dtf"),
                           "--objective", objective, "--iters", "4",
                           "--beta", "1.0",
                           "--out", str(tmp_path / f"{objective}.dtf"))
        assert code == 0, err
    assert ((tmp_path / "euclid.dtf").read_bytes()
            != (tmp_path / "sobolev.dtf").read_bytes())


def test_overflowing_objective_exits_3(tmp_path, capsys):
    # alpha = 1.7e308 overflows the start objective: this used to exit 0 with
    # "converged": true and "final_objective": Infinity in the report
    code, _, err = run(capsys, "generate", "--phantom", "staircase", "--n", "6",
                       "--sigma2", "1600", "--out", str(tmp_path))
    assert code == 0, err
    out = tmp_path / "r.dtf"
    code, stdout, err = run(capsys, "denoise", str(tmp_path / "noisy.dtf"),
                            "--alpha", "1.7e308", "--out", str(out))
    assert code == 3
    assert err.startswith("error: objective inf at the start point")
    assert stdout == ""
    assert not out.exists()
    assert not (tmp_path / "r.dtf.report.json").exists()


def test_overflowing_trial_step_exits_3(tmp_path, capsys):
    # the start objective and gradient are finite but every trial point
    # overflows: this used to exit 2, the usage code, from the projection's
    # ValueError
    data = generate(capsys, tmp_path)
    out = tmp_path / "r.dtf"
    code, stdout, err = run(capsys, "denoise", str(data / "noisy.dtf"),
                            "--objective", "sobolev", "--beta", "1e308",
                            "--out", str(out))
    assert code == 3
    assert err.startswith("error: no acceptable step")
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("flags", ["--objective sobolev --beta 1.7e308",
                                   "--objective euclid --alpha 1e307", "--alpha 1e307"],
                         ids=["sobolev", "euclid", "loglog"])
def test_huge_weights_exit_3_with_one_error_line(tmp_path, capsys, flags):
    # numpy's overflow warnings reached stderr before the error line (under
    # this suite's warning filter they raise instead of exiting 3)
    data = generate(capsys, tmp_path)
    code, stdout, err = run(capsys, "denoise", str(data / "noisy.dtf"), *flags.split(),
                            "--out", str(tmp_path / "r.dtf"))
    assert code == 3
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_solve_runtime_failure_exits_3(tmp_path, capsys):
    data = generate(capsys, tmp_path)
    code, _, err = run(capsys, "denoise", str(data / "noisy.dtf"),
                       "--alpha", "1e28", "--iters", "5",
                       "--out", str(tmp_path / "out.dtf"))
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("layout", ["out-dir", "report-missing-dir", "sweep-out-dir",
                                    "sweep-report-under-file"])
def test_solve_checks_every_output_path_before_solving(tmp_path, capsys, monkeypatch, layout):
    # a solve used to run in full (and a sweep to write its earlier runs)
    # before the write to a bad path failed
    data = generate(capsys, tmp_path / "data")
    argv = ["denoise", str(data / "noisy.dtf"), "--out", str(tmp_path / "rec.dtf")]
    if layout == "out-dir":
        bad = tmp_path / "rec.dtf"
        bad.mkdir()
    elif layout == "report-missing-dir":
        bad = tmp_path / "missing" / "run.json"
        argv += ["--report", str(bad)]
    elif layout == "sweep-out-dir":
        bad = tmp_path / "rec.alpha-2.dtf"
        bad.mkdir()
        argv += ["--sweep", "alpha=0.5,2"]
    else:
        (tmp_path / "afile").write_text("keep\n")
        bad = tmp_path / "afile" / "run.alpha-0.5.json"
        argv += ["--sweep", "alpha=0.5,2", "--report", str(tmp_path / "afile" / "run.json")]
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(cli, "solve", never_called)
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    with pytest.raises(OSError) as open_error:
        open(bad, "w", encoding="ascii")
    assert err == f"error: {open_error.value}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_missing_input_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "denoise", str(tmp_path / "nope.dtf"),
                       "--out", str(tmp_path / "out.dtf"))
    assert code == 2
    assert "error" in err


# ---- config files and sweeps ----

def test_config_file_applies_and_flags_override(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("# defaults\nn = 4\nsigma2 = 900  # noise\nseed = 3\n")
    code, _, _ = run(capsys, "generate", "--config", str(config),
                     "--sigma2", "0", "--out", str(tmp_path / "g"))
    assert code == 0
    provenance = json.loads((tmp_path / "g" / "provenance.json").read_text())
    assert provenance["n"] == 4
    assert provenance["sigma2"] == 0.0
    assert provenance["seed"] == 3


def test_config_unknown_key_exits_2(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("flux = 9\n")
    code, _, err = run(capsys, "generate", "--config", str(config), "--out", str(tmp_path / "g"))
    assert code == 2
    assert "flux" in err


@pytest.mark.parametrize("line", ["grad-mode = analytic\n", "fd-step = 1e-6\n",
                                  "armijo-c = 1e-4\n", "backtrack = 0.5\n"])
def test_config_removed_solver_keys_exit_2(tmp_path, capsys, line):
    data = generate(capsys, tmp_path)
    config = tmp_path / "run.conf"
    config.write_text(line)
    code, _, err = run(capsys, "denoise", str(data / "noisy.dtf"), "--config", str(config),
                       "--out", str(tmp_path / "rec.dtf"))
    assert code == 2
    assert "unknown config key(s)" in err


def test_config_malformed_line_exits_2(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("just words\n")
    code, _, err = run(capsys, "generate", "--config", str(config), "--out", str(tmp_path / "g"))
    assert code == 2
    assert "expected 'key = value'" in err


@pytest.mark.parametrize("command,line,message", [
    ("generate", "phantom = helix", "--phantom:"),
    ("generate", "n = x", "--n:"),
    ("generate", "threads = 0", "--threads:"),
    ("denoise", "objective = bogus", "--objective:"),
    ("denoise", "iters = 1.5", "--iters:"),
    ("denoise", "alpha = nan", "alpha must be finite"),
])
def test_config_values_are_checked_like_flags(tmp_path, capsys, command, line, message):
    inputs = []
    if command == "denoise":
        inputs = [str(generate(capsys, tmp_path / "data") / "noisy.dtf")]
    config = tmp_path / "run.conf"
    config.write_text(line + "\n")
    out = tmp_path / "out"
    code, stdout, err = run(capsys, command, *inputs, "--config", str(config), "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert message in err.splitlines()[-1]
    assert not out.exists()


def test_sweep_writes_one_output_per_value(tmp_path, capsys):
    data = generate(capsys, tmp_path)
    code, stdout, _ = run(capsys, "denoise", str(data / "noisy.dtf"),
                          "--sweep", "alpha=0.5,2", "--iters", "4",
                          "--out", str(tmp_path / "rec.dtf"))
    assert code == 0
    assert (tmp_path / "rec.alpha-0.5.dtf").exists()
    assert (tmp_path / "rec.alpha-2.dtf").exists()
    assert (tmp_path / "rec.alpha-0.5.dtf.report.json").exists()
    assert "alpha=0.5" in stdout and "alpha=2" in stdout
    assert ((tmp_path / "rec.alpha-0.5.dtf").read_bytes()
            != (tmp_path / "rec.alpha-2.dtf").read_bytes())


def test_sweep_suffixes_an_explicit_report_path(tmp_path, capsys):
    data = generate(capsys, tmp_path)
    code, stdout, err = run(capsys, "denoise", str(data / "noisy.dtf"), "--sweep", "alpha=0.5,2",
                            "--iters", "4", "--out", str(tmp_path / "rec.dtf"),
                            "--report", str(tmp_path / "runs.json"))
    assert code == 0, err
    for token in ("0.5", "2"):
        report = json.loads((tmp_path / f"runs.alpha-{token}.json").read_text())
        assert f"alpha={token}: objective {report['final_objective']!r}" in stdout
        assert not (tmp_path / f"rec.alpha-{token}.dtf.report.json").exists()
    assert not (tmp_path / "runs.json").exists()


def test_sweep_rejects_non_numbers(tmp_path, capsys):
    data = generate(capsys, tmp_path)
    code, _, err = run(capsys, "denoise", str(data / "noisy.dtf"), "--sweep", "alpha=1,x",
                       "--out", str(tmp_path / "rec.dtf"))
    assert code == 2
    assert "--sweep value 'x' is not a number" in err
    assert not (tmp_path / "rec.alpha-1.dtf").exists()


def test_sweep_rejects_other_keys(tmp_path, capsys):
    data = generate(capsys, tmp_path)
    code, _, err = run(capsys, "denoise", str(data / "noisy.dtf"), "--sweep", "beta=1,2",
                       "--out", str(tmp_path / "rec.dtf"))
    assert code == 2
    assert "--sweep expects alpha=" in err


# ---- evaluate ----

def test_evaluate_identical_files_reports_inf(tmp_path, capsys):
    write_field(make_staircase_phantom(4), tmp_path / "f.dtf")
    code, stdout, _ = run(capsys, "evaluate", str(tmp_path / "f.dtf"),
                          str(tmp_path / "f.dtf"))
    assert code == 0
    assert stdout.strip() == "SNR inf"


def test_evaluate_denoised_beats_noisy(tmp_path, capsys):
    data = generate(capsys, tmp_path)
    code, _, _ = run(capsys, "denoise", str(data / "noisy.dtf"), "--alpha", "2.75",
                     "--iters", "25", "--out", str(tmp_path / "rec.dtf"))
    assert code == 0

    def snr_of(path):
        code, stdout, _ = run(capsys, "evaluate", str(data / "original.dtf"), path)
        assert code == 0
        return float(stdout.split()[1])

    assert snr_of(str(tmp_path / "rec.dtf")) > snr_of(str(data / "noisy.dtf"))


def test_evaluate_profile_row_count_is_width(tmp_path, capsys):
    data = generate(capsys, tmp_path)
    profile = tmp_path / "profile.csv"
    code, _, _ = run(capsys, "evaluate", str(data / "original.dtf"),
                     str(data / "noisy.dtf"), "--profile-out", str(profile))
    assert code == 0
    lines = profile.read_text().splitlines()
    assert len(lines) == 5
    for j, line in enumerate(lines):
        index, value = line.split(",")
        assert int(index) == j
        float(value)


def test_evaluate_dimension_mismatch_exits_2(tmp_path, capsys):
    write_field(make_staircase_phantom(4), tmp_path / "a.dtf")
    write_field(make_staircase_phantom(5), tmp_path / "b.dtf")
    code, _, err = run(capsys, "evaluate", str(tmp_path / "a.dtf"),
                       str(tmp_path / "b.dtf"))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("layout", ["dir", "missing-dir", "under-file"])
@pytest.mark.parametrize("command", ["evaluate", "render"])
def test_evaluate_and_render_check_the_output_path_first(tmp_path, capsys, monkeypatch,
                                                          command, layout):
    # evaluate --profile-out DIR printed its SNR line before exiting 2 with
    # "Is a directory", and render --out DIR built the whole SVG first
    write_field(make_staircase_phantom(4), tmp_path / "f.dtf")
    (tmp_path / "afile").write_text("keep\n")
    bad = {"dir": tmp_path / "outdir", "missing-dir": tmp_path / "missing" / "out",
           "under-file": tmp_path / "afile" / "out"}[layout]
    if layout == "dir":
        bad.mkdir()
    field = str(tmp_path / "f.dtf")
    if command == "evaluate":
        monkeypatch.setattr(cli, "snr", never_called)
        argv = ["evaluate", field, field, "--profile-out", str(bad)]
    else:
        monkeypatch.setattr(cli, "render_svg", never_called)
        argv = ["render", field, "--out", str(bad)]
    before = sorted(tmp_path.rglob("*"))
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    with pytest.raises(OSError) as open_error:
        open(bad, "w", encoding="ascii")
    assert err == f"error: {open_error.value}\n"
    assert sorted(tmp_path.rglob("*")) == before


# ---- render ----

def test_render_glyph_count_and_determinism(tmp_path, capsys):
    write_field(make_staircase_phantom(4), tmp_path / "f.dtf")
    for name in ("a.svg", "b.svg"):
        code, _, _ = run(capsys, "render", str(tmp_path / "f.dtf"),
                         "--out", str(tmp_path / name))
        assert code == 0
    svg = (tmp_path / "a.svg").read_text()
    assert svg.count("<ellipse") == 16
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_render_malformed_header_exits_2_naming_line(tmp_path, capsys):
    bad = tmp_path / "bad.dtf"
    bad.write_text("DTF1 two 2 3 36.0\n")
    code, _, err = run(capsys, "render", str(bad), "--out", str(tmp_path / "o.svg"))
    assert code == 2
    assert "line 1" in err
