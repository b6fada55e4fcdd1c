"""Tests for the DTF1/MSK1/DWI1 text formats."""
from __future__ import annotations

import numpy as np
import pytest

from dtfield.field import Mask, TensorField
from dtfield.fileio import (
    FormatError,
    dwis_from_text,
    dwis_to_text,
    field_from_text,
    field_to_text,
    mask_from_text,
    mask_to_text,
    read_dwis,
    read_field,
    read_mask,
    write_dwis,
    write_field,
    write_mask,
)
from dtfield.synth import (
    NoiseSpec,
    apply_noise,
    make_main_direction_phantom,
    make_staircase_phantom,
    simulate_dwis,
)


def sample_mask():
    values = np.ones((4, 6), dtype=bool)
    values[1:3, 2:4] = False
    return Mask(values)


def sample_dwis():
    return apply_noise(simulate_dwis(make_staircase_phantom(4)), NoiseSpec(400.0, 5))


# ---- round trips ----

def test_field_roundtrip_exact():
    field = make_main_direction_phantom(7)
    back = field_from_text(field_to_text(field))
    assert np.array_equal(back.coeffs, field.coeffs)
    assert back.log_bound == field.log_bound


def test_field_file_roundtrip(tmp_path):
    field = make_staircase_phantom(5)
    path = tmp_path / "field.dtf"
    write_field(field, path)
    back = read_field(path)
    assert np.array_equal(back.coeffs, field.coeffs)
    write_field(back, tmp_path / "again.dtf")
    assert path.read_bytes() == (tmp_path / "again.dtf").read_bytes()


def test_field_header_contents():
    field = make_staircase_phantom(3)
    header = field_to_text(field).splitlines()[0].split()
    assert header == ["DTF1", "3", "3", "3", "36.0"]


def test_mask_roundtrip(tmp_path):
    mask = sample_mask()
    text = mask_to_text(mask)
    assert text.splitlines()[0] == "MSK1 6 4"
    assert text.splitlines()[2] == "110011"
    back = mask_from_text(text)
    assert np.array_equal(back.values, mask.values)
    path = tmp_path / "hole.msk"
    write_mask(mask, path)
    assert np.array_equal(read_mask(path).values, mask.values)


def test_dwis_roundtrip(tmp_path):
    dwis = sample_dwis()
    back = dwis_from_text(dwis_to_text(dwis))
    assert np.array_equal(back.directions, dwis.directions)
    assert np.array_equal(back.images, dwis.images)
    assert back.b_value == dwis.b_value
    assert back.a0 == dwis.a0
    path = tmp_path / "stack.dwi"
    write_dwis(dwis, path)
    assert np.array_equal(read_dwis(path).images, dwis.images)


def test_trailing_blank_lines_accepted():
    field = make_staircase_phantom(3)
    assert np.array_equal(field_from_text(field_to_text(field) + "\n\n").coeffs,
                          field.coeffs)


# ---- error cases name the offending line ----

def test_field_bad_magic():
    with pytest.raises(FormatError, match="line 1"):
        field_from_text("DTF9 2 2 3 36.0\n")


def test_field_empty_file():
    with pytest.raises(FormatError, match="line 1"):
        field_from_text("")


def test_field_bad_dimension():
    with pytest.raises(FormatError, match="line 1.*m=4"):
        field_from_text("DTF1 2 2 4 36.0\n")


def test_field_bad_width():
    with pytest.raises(FormatError, match="line 1.*width"):
        field_from_text("DTF1 x 2 3 36.0\n")


def test_field_wrong_coefficient_count():
    text = "DTF1 1 2 3 36.0\n1.0 1.0 1.0 0.0 0.0\n1.0 1.0 1.0 0.0 0.0 0.0\n"
    with pytest.raises(FormatError, match="line 2.*expected 6"):
        field_from_text(text)


def test_field_non_numeric_coefficient():
    text = "DTF1 1 1 3 36.0\n1.0 1.0 oops 0.0 0.0 0.0\n"
    with pytest.raises(FormatError, match="line 2.*number"):
        field_from_text(text)


def test_field_truncated_body():
    text = "DTF1 2 2 3 36.0\n1.0 1.0 1.0 0.0 0.0 0.0\n"
    with pytest.raises(FormatError, match="1 of 4 pixel"):
        field_from_text(text)


def test_field_extra_body_line():
    pixel = "1.0 1.0 1.0 0.0 0.0 0.0"
    text = "DTF1 1 1 3 36.0\n" + pixel + "\n" + pixel + "\n"
    with pytest.raises(FormatError, match="line 3.*extra"):
        field_from_text(text)


def test_field_blank_line_inside_body():
    pixel = "1.0 1.0 1.0 0.0 0.0 0.0"
    text = "DTF1 1 2 3 36.0\n" + pixel + "\n\n" + pixel + "\n"
    with pytest.raises(FormatError, match="line 3.*blank"):
        field_from_text(text)


def test_field_content_validation_propagates():
    text = "DTF1 1 1 3 36.0\n-1.0 1.0 1.0 0.0 0.0 0.0\n"
    with pytest.raises(ValueError, match="positive definite"):
        field_from_text(text)


def test_indefinite_pixel_with_huge_entries_is_rejected(tmp_path):
    # eigenvalues (3e200, 1, -1e200): an overflowing Jacobi pivot gate once
    # left this matrix unrotated, and its diagonal (1e200, 1e200, 1) passed as SPD
    pixel = [1e200, 1e200, 1.0, 2e200, 0.0, 0.0]
    with pytest.raises(ValueError, match="not positive definite"):
        TensorField(np.array(pixel).reshape(1, 1, 6), log_bound=1000.0)
    path = tmp_path / "huge.dtf"
    path.write_text("DTF1 1 1 3 1000.0\n" + " ".join(map(repr, pixel)) + "\n")
    with pytest.raises(ValueError, match="not positive definite"):
        read_field(path)


def test_mask_bad_row_characters():
    with pytest.raises(FormatError, match="line 3"):
        mask_from_text("MSK1 3 2\n111\n12x\n")


def test_mask_wrong_row_width():
    with pytest.raises(FormatError, match="line 2"):
        mask_from_text("MSK1 3 2\n11\n111\n")


def test_mask_all_false_rejected():
    with pytest.raises(ValueError, match="no true"):
        mask_from_text("MSK1 2 1\n00\n")


def test_dwis_bad_header():
    with pytest.raises(FormatError, match="line 1"):
        dwis_from_text("DWI1 2 2\n")


def test_dwis_bad_direction_line():
    text = "DWI1 1 1 1 800.0 1000.0\n1.0 0.0\n500.0\n"
    with pytest.raises(FormatError, match="line 2.*direction"):
        dwis_from_text(text)


def test_dwis_content_validation_propagates():
    text = "DWI1 1 1 1 800.0 1000.0\n2.0 0.0 0.0\n500.0\n"
    with pytest.raises(ValueError):
        dwis_from_text(text)
