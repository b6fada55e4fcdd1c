"""End-to-end tests of the command-line interface."""
from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from dtfield.cli import _SOLVE_OPTS, main
from dtfield.fileio import field_to_text, read_field, write_field
from dtfield.analysis import log_distance_map
from dtfield.synth import make_staircase_phantom


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    out = tmp_path / "out"
    code, _, err = run(capsys, "generate", "--n", "4", "--sigma2", "900",
                       "--threads", "-3", "--out", str(out))
    assert code == 2
    assert "threads must be >= 1" in err
    assert not (out / "provenance.json").exists()


def test_generate_zero_noise_roundtrips(tmp_path, capsys):
    code, _, _ = run(capsys, "generate", "--n", "4", "--sigma2", "0",
                     "--out", str(tmp_path))
    assert code == 0
    orig = read_field(tmp_path / "original.dtf")
    noisy = read_field(tmp_path / "noisy.dtf")
    assert log_distance_map(orig, noisy).max() < 1e-8


def test_generate_rejects_unknown_phantom(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--phantom", "helix", "--out", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "usage" in capsys.readouterr().err


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


def test_advertised_solve_defaults_match_omitted_flags(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["denoise", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    defaults = re.findall(r"--([\w-]+) V .*?\(default: ([^)]+)\)", help_text)
    assert {name for name, _ in defaults} == {opt.name for opt in _SOLVE_OPTS}
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


def test_solve_runtime_failure_exits_3(tmp_path, capsys):
    data = generate(capsys, tmp_path)
    code, _, err = run(capsys, "denoise", str(data / "noisy.dtf"),
                       "--alpha", "1e28", "--iters", "5",
                       "--out", str(tmp_path / "out.dtf"))
    assert code == 3
    assert "error" in err


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
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--config", str(config), "--out", str(tmp_path / "g")])
    assert excinfo.value.code == 2
    assert "flux" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["grad-mode = analytic\n", "fd-step = 1e-6\n"])
def test_config_removed_solver_keys_exit_2(tmp_path, capsys, line):
    data = generate(capsys, tmp_path)
    config = tmp_path / "run.conf"
    config.write_text(line)
    with pytest.raises(SystemExit) as excinfo:
        main(["denoise", str(data / "noisy.dtf"), "--config", str(config),
              "--out", str(tmp_path / "rec.dtf")])
    assert excinfo.value.code == 2
    assert "unknown config key(s)" in capsys.readouterr().err


def test_config_malformed_line_exits_2(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("just words\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--config", str(config), "--out", str(tmp_path / "g")])
    assert excinfo.value.code == 2


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


def test_sweep_rejects_other_keys(tmp_path, capsys):
    data = generate(capsys, tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["denoise", str(data / "noisy.dtf"), "--sweep", "beta=1,2",
              "--out", str(tmp_path / "rec.dtf")])
    assert excinfo.value.code == 2


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
