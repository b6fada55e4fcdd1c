"""Tests for metrics, eigenvalue profiles, SVG rendering, and the noise study."""
from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dtfield import analysis
from dtfield.analysis import (
    _fa_rgb,
    column_eigen_profile,
    convergence_study,
    default_alpha_rule,
    log_distance_map,
    render_svg,
    snr,
    study_csv,
)
from dtfield.field import FunctionalParams, TensorField
from dtfield.optim import SolverConfig
from dtfield.spd import (
    EPSILON_DEFAULT,
    coeffs_to_matrices,
    matrices_to_coeffs,
    project_full_coeffs,
)
from dtfield.synth import make_main_direction_phantom, make_staircase_phantom


def isotropic_field(height, width, scale=1.0):
    coeffs = np.zeros((height, width, 6))
    coeffs[..., :3] = scale
    return TensorField(coeffs, 36.0)


# ---- snr ----

def test_snr_identical_fields_is_infinite():
    field = make_staircase_phantom(5)
    assert snr(field, field) == math.inf


def test_snr_identity_vs_projected_zero():
    orig = isotropic_field(3, 4)
    rec = TensorField(np.broadcast_to(project_full_coeffs(np.zeros(6), EPSILON_DEFAULT, 36.0),
                                      (3, 4, 6)).copy(), 36.0)
    gap = 1.0 - math.exp(-36.0 / math.sqrt(3.0))
    expected = math.sqrt((3.0 * 12) / (3.0 * gap ** 2 * 12))
    assert math.isclose(snr(orig, rec), expected, rel_tol=1e-12)


def test_snr_scale_invariant():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.5, 2.0, size=(4, 4, 6))
    b = rng.uniform(0.5, 2.0, size=(4, 4, 6))
    assert math.isclose(snr(a, b), snr(7.0 * a, 7.0 * b), rel_tol=1e-12)


def test_snr_rotation_invariant():
    rng = np.random.default_rng(8)
    orig = make_staircase_phantom(6)
    rec = make_main_direction_phantom(6)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))

    def conjugate(field):
        mats = coeffs_to_matrices(field.coeffs, 3)
        return matrices_to_coeffs(np.einsum("ab,ijbc,dc->ijad", q, mats, q))

    assert math.isclose(snr(orig, rec), snr(conjugate(orig), conjugate(rec)),
                        rel_tol=1e-9)


def test_snr_rejects_zero_field_and_shape_mismatch():
    zeros = np.zeros((2, 2, 6))
    with pytest.raises(ValueError, match="zero field"):
        snr(zeros, np.ones((2, 2, 6)))
    with pytest.raises(ValueError, match="differ"):
        snr(np.ones((2, 2, 6)), np.ones((2, 3, 6)))
    with pytest.raises(ValueError, match=re.escape(
            "expected (height, width, 6) coefficients, got (2, 6)")):
        snr(np.ones((2, 6)), np.ones((2, 6)))


# ---- log distances ----

def test_log_distance_map_rejects_mismatched_shapes(monkeypatch):
    # the shapes used to be compared after a full-grid matrix log of each input
    def never_called(*args):
        raise AssertionError("log_coeffs ran before the shapes were compared")

    monkeypatch.setattr(analysis, "log_coeffs", never_called)
    with pytest.raises(ValueError, match=re.escape("field shapes differ: (2, 2, 6) vs (2, 3, 6)")):
        log_distance_map(isotropic_field(2, 2, 1.0), isotropic_field(2, 3, 1.0))


def test_log_distance_isotropic_pair():
    a = isotropic_field(2, 3, 1.0)
    b = isotropic_field(2, 3, math.e)
    dist_map = log_distance_map(a, b)
    assert dist_map.shape == (2, 3)
    assert np.allclose(dist_map, math.sqrt(3.0), rtol=1e-12)
    assert math.isclose(log_distance_map(a, b).sum(), 6 * math.sqrt(3.0), rel_tol=1e-12)
    assert log_distance_map(a, a).sum() == 0.0


# ---- eigenvalue profiles ----

def test_profile_staircase_ramp():
    profile = column_eigen_profile(make_staircase_phantom(10))
    assert np.allclose(profile, 0.5e-3 + np.arange(10) / 9.0 * 3.0e-3, rtol=1e-10)


def test_profile_constant_field():
    assert np.allclose(column_eigen_profile(isotropic_field(4, 7, 2.0)), 2.0)


def test_profile_row_permutation_invariant():
    field = make_main_direction_phantom(8)
    profile = column_eigen_profile(field)
    shuffled = field.coeffs[np.random.default_rng(0).permutation(8)]
    assert np.allclose(column_eigen_profile(shuffled), profile, rtol=1e-12)


# ---- color scale ----

def test_colorscale_endpoints_and_clamping():
    assert _fa_rgb(0.0) == (0, 0, 0)
    assert _fa_rgb(1.0) == (120, 180, 255)
    assert _fa_rgb(-0.3) == (0, 0, 0)
    assert _fa_rgb(1.7) == (120, 180, 255)


def test_colorscale_monotone_per_channel():
    ramp = [_fa_rgb(t) for t in np.linspace(0.0, 1.0, 64)]
    for channel in range(3):
        series = [c[channel] for c in ramp]
        assert all(b >= a for a, b in zip(series, series[1:]))


# ---- svg rendering ----

def glyphs_of(svg_text):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.tag.endswith("ellipse")]


def test_render_isotropic_field_black_circles():
    svg = render_svg(isotropic_field(3, 5, 1e-3))
    glyphs = glyphs_of(svg)
    assert len(glyphs) == 15
    for el in glyphs:
        assert el.get("rx") == el.get("ry") == "0.4500"
        assert el.get("fill") == "rgb(0,0,0)"


def test_render_staircase_column_shapes():
    field = make_staircase_phantom(6)
    glyphs = glyphs_of(render_svg(field))
    first_row = glyphs[:6]
    left = first_row[0]
    right = first_row[-1]
    assert left.get("rx") == left.get("ry")
    assert left.get("fill") == "rgb(0,0,0)"
    assert float(right.get("rx")) == 0.45
    assert float(right.get("rx")) > 3.0 * float(right.get("ry"))
    blue = int(right.get("fill").removeprefix("rgb(").removesuffix(")").split(",")[2])
    assert blue > 150


def test_render_band_orientations():
    field = make_main_direction_phantom(10)
    svg = render_svg(field)
    glyphs = {(int(float(el.get("cy")) - 0.5), int(float(el.get("cx")) - 0.5)): el
              for el in glyphs_of(svg)}

    def angle(el):
        return float(el.get("transform").removeprefix("rotate(").split()[0])

    assert math.isclose(angle(glyphs[(0, 1)]), 90.0, abs_tol=1e-9)
    assert math.isclose(angle(glyphs[(8, 6)]), 0.0, abs_tol=1e-9)
    assert math.isclose(angle(glyphs[(7, 1)]), 45.0, abs_tol=1e-9)


def test_render_fill_colors_within_gamut():
    svg = render_svg(make_main_direction_phantom(9))
    fills = re.findall(r'fill="rgb\((\d+),(\d+),(\d+)\)"', svg)
    assert len(fills) >= 81
    for r, g, b in fills:
        assert 0 <= int(r) <= 120
        assert 0 <= int(g) <= 180
        assert 0 <= int(b) <= 255


def test_render_byte_deterministic(tmp_path):
    field = make_main_direction_phantom(7)
    path_a = tmp_path / "a.svg"
    path_b = tmp_path / "b.svg"
    text_a = render_svg(field, path_a)
    text_b = render_svg(field, path_b)
    assert text_a == text_b
    assert path_a.read_bytes() == path_b.read_bytes()
    assert path_a.read_text(encoding="ascii") == text_a


# ---- convergence study ----

def study_setup():
    params = FunctionalParams(p=1.1, s=0.5, n_rho=2)
    config = SolverConfig(max_iters=40)
    return make_staircase_phantom(5), params, config


def test_study_rows_and_alpha_rule():
    phantom, params, config = study_setup()
    levels = [4.0, 1.0, 0.0]
    rows = convergence_study(phantom, levels, params=params, config=config, seed=0)
    assert [row.delta for row in rows] == levels
    for row in rows:
        assert row.alpha == default_alpha_rule(row.delta, params.p)
    assert rows[-1].alpha == 0.0
    assert rows[-1].distance < 1e-6


def test_study_distances_shrink_with_noise():
    phantom, params, config = study_setup()
    rows = convergence_study(phantom, [4.0, 1.0, 0.0],
                             params=params, config=config, seed=0)
    assert rows[0].distance > rows[1].distance > rows[2].distance


def test_study_custom_rule_and_threads():
    phantom, params, config = study_setup()
    rule = lambda delta: 0.125
    rows_a = convergence_study(phantom, [2.0], rule,
                               params=params, config=config, seed=3)
    rows_b = convergence_study(phantom, [2.0], rule,
                               params=params, config=config, seed=3)
    assert rows_a[0].alpha == 0.125
    assert rows_a == rows_b


def test_study_validates_levels():
    phantom, params, config = study_setup()
    with pytest.raises(ValueError, match="decreasing"):
        convergence_study(phantom, [1.0, 2.0], params=params, config=config)
    with pytest.raises(ValueError, match="at least one"):
        convergence_study(phantom, [], params=params, config=config)
    with pytest.raises(ValueError, match="nonnegative"):
        convergence_study(phantom, [2.0, -1.0], params=params, config=config)


def test_study_csv_roundtrip():
    phantom, params, config = study_setup()
    rows = convergence_study(phantom, [1.0, 0.0], params=params, config=config)
    text = study_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "delta,alpha,distance"
    assert len(lines) == 3
    for line, row in zip(lines[1:], rows):
        delta, alpha, distance = (float(tok) for tok in line.split(","))
        assert (delta, alpha, distance) == (row.delta, row.alpha, row.distance)
