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
    DwiSet,
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


# ---- the one-pass codecs against per-float references ----

def per_float_field_text(w):
    lines = [f"DTF1 {w.width} {w.height} 3 {w.log_bound!r}"]
    for pixel in w.coeffs.reshape(-1, 6):
        lines.append(" ".join(repr(float(v)) for v in pixel))
    return "\n".join(lines) + "\n"


def per_float_dwis_text(dwis):
    lines = [f"DWI1 {dwis.width} {dwis.height} {dwis.directions.shape[0]} "
             f"{dwis.b_value!r} {dwis.a0!r}"]
    for g in dwis.directions:
        lines.append(" ".join(repr(float(v)) for v in g))
    for image in dwis.images:
        for row in image:
            lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def per_row_floats(text, first, count):
    """Body lines first.. of text (blank lines dropped) parsed one float at a time."""
    lines = [line for line in text.splitlines()[first:] if line.strip()]
    return np.array([[float(tok) for tok in line.split()] for line in lines[:count]])


def awkward_field():
    # diagonal pixels whose entries span the exponent range; off-diagonal
    # subnormals and signed zeros sit below Jacobi's rotation gate
    rng = np.random.default_rng(17)
    coeffs = np.zeros((3, 4, 6))
    coeffs[..., :3] = np.exp(rng.uniform(-550.0, 550.0, size=(3, 4, 3)))
    coeffs[0, 0, :3] = (1e300, 1e-300, 1.0)
    coeffs[..., 3:] = [5e-324, -0.0, -2.5e-320]
    return TensorField(coeffs, 1500.0)


def awkward_dwis():
    images = np.random.default_rng(18).uniform(0.0, 1000.0, size=(3, 2, 5))
    images[0, 0, :] = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    directions = np.array([[1.0, -0.0, 0.0], [-0.0, -1.0, 0.0], [0.6, 0.0, -0.8]])
    return DwiSet(directions, 800.0, 1000.0, images)


@pytest.mark.parametrize("field", [make_main_direction_phantom(37), awkward_field(),
                                   make_staircase_phantom(64)],
                         ids=["band-37", "awkward", "staircase-64"])
def test_field_text_bytes_match_per_float_formatter(field):
    text = field_to_text(field)
    assert text == per_float_field_text(field)
    assert np.array_equal(field_from_text(text).coeffs.reshape(-1, 6),
                          per_row_floats(text, 1, field.height * field.width))


@pytest.mark.parametrize("dwis", [sample_dwis(), awkward_dwis(),
                                  apply_noise(simulate_dwis(make_staircase_phantom(64)),
                                              NoiseSpec(1600.0, 3))],
                         ids=["noisy-4", "awkward", "noisy-64"])
def test_dwis_text_bytes_match_per_float_formatter(dwis):
    text = dwis_to_text(dwis)
    assert text == per_float_dwis_text(dwis)
    back = dwis_from_text(text)
    k = dwis.directions.shape[0]
    assert np.array_equal(back.directions, per_row_floats(text, 1, k))
    assert np.array_equal(back.images.reshape(-1, dwis.width),
                          per_row_floats(text, 1 + k, k * dwis.height))


def test_crlf_and_trailing_blank_lines_parse_the_same():
    field, dwis = make_main_direction_phantom(30), sample_dwis()
    field_text, dwis_text = field_to_text(field), dwis_to_text(dwis)
    for edit in (lambda text: text.replace("\n", "\r\n"), lambda text: text + "\n  \n\r\n\n"):
        assert np.array_equal(field_from_text(edit(field_text)).coeffs, field.coeffs)
        back = dwis_from_text(edit(dwis_text))
        assert np.array_equal(back.directions, dwis.directions)
        assert np.array_equal(back.images, dwis.images)


def text_with(lines, replacements):
    """The text of lines with lines[i] replaced by replacements[i]."""
    lines = list(lines)
    for at, replacement in replacements.items():
        lines[at] = replacement
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", ["five-then-seven", "seven-then-five",
                                  "five-then-seven-across-blocks", "bad-last-token"])
def test_field_block_parser_errors_match_row_by_row(case):
    # 900 pixel lines span two parse blocks of 682; every error names the
    # first bad line, with the row-by-row parser's message
    lines = field_to_text(make_staircase_phantom(30)).splitlines()
    pixel = "0.001 0.0005 0.0005 0.0 0.0 0.0"
    short, long = "0.001 0.0005 0.0005 0.0 0.0", pixel + " 0.0"
    replacements, message = {
        "five-then-seven": ({1: short, 2: long}, "line 2: expected 6 coefficients, got 5"),
        "seven-then-five": ({1: long, 2: short}, "line 2: expected 6 coefficients, got 7"),
        "five-then-seven-across-blocks": ({682: short, 683: long},
                                          "line 683: expected 6 coefficients, got 5"),
        "bad-last-token": ({900: pixel[:-3] + "0.0x"},
                           "line 901: coefficients must be a number, got '0.0x'"),
    }[case]
    with pytest.raises(FormatError) as err:
        field_from_text(text_with(lines, replacements))
    assert str(err.value) == message


def test_dwis_block_parser_error_on_last_line():
    dwis = sample_dwis()
    lines = dwis_to_text(dwis).splitlines()
    last = len(lines) - 1
    row = lines[last].split()
    with pytest.raises(FormatError) as err:
        dwis_from_text(text_with(lines, {last: " ".join(row[:-1] + ["nan?"])}))
    assert str(err.value) == f"line {last + 1}: image values must be a number, got 'nan?'"
    with pytest.raises(FormatError) as err:
        dwis_from_text(text_with(lines, {last: " ".join(row[:-1])}))
    assert str(err.value) == f"line {last + 1}: expected 4 image values, got 3"


# ---- error cases name the offending line ----

@pytest.mark.parametrize("parse,layout,bad_magic,bad_count", [
    (field_from_text, "DTF1 <width> <height> <m> <z>", "DTF9 2 2 3 36.0", "DTF1 2 2 3"),
    (mask_from_text, "MSK1 <width> <height>", "MASK 2 1", "MSK1 2 1 1"),
    (dwis_from_text, "DWI1 <width> <height> <k> <b> <a0>", "DWI2 1 1 1 800.0 1000.0",
     "DWI1 2 2"),
], ids=["DTF1", "MSK1", "DWI1"])
def test_header_error_messages_are_exact(parse, layout, bad_magic, bad_count):
    for text, message in [
            ("", f"empty file, expected a '{layout}' header"),
            (bad_magic + "\n", f"expected header '{layout}', got '{bad_magic}'"),
            (bad_count + "\n", f"expected header '{layout}', got '{bad_count}'")]:
        with pytest.raises(FormatError) as err:
            parse(text)
        assert str(err.value) == f"line 1: {message}"


@pytest.mark.parametrize("header,message", [
    ("DTF1 0 2 3 36.0", "width must be >= 1, got 0"),
    ("DTF1 2 -1 3 36.0", "height must be >= 1, got -1"),
], ids=["width-0", "height-negative"])
def test_field_grid_below_one_rejected(header, message):
    with pytest.raises(FormatError) as err:
        field_from_text(header + "\n")
    assert str(err.value) == f"line 1: {message}"


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


def test_dwis_bad_direction_line():
    text = "DWI1 1 1 1 800.0 1000.0\n1.0 0.0\n500.0\n"
    with pytest.raises(FormatError, match="line 2.*direction"):
        dwis_from_text(text)


def test_dwis_content_validation_propagates():
    text = "DWI1 1 1 1 800.0 1000.0\n2.0 0.0 0.0\n500.0\n"
    with pytest.raises(ValueError):
        dwis_from_text(text)
