"""Text interchange formats for tensor fields, masks, and DWI stacks.

Three line-oriented formats, each with a versioned magic header:

  DTF1 <width> <height> <m> <z>   then width*height pixel lines, row-major,
                                  six space-separated floats per line in the
                                  layout [a11 a22 a33 a12 a13 a23].
  MSK1 <width> <height>           then height rows of 0/1 characters.
  DWI1 <width> <height> <k> <b> <a0>  then k unit-direction lines gx gy gz,
                                  then k image blocks, each height lines of
                                  width space-separated values.

Floats are written with shortest round-trip precision, so write -> read is
exact and rewriting the same object is byte-identical.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

from .field import Mask, TensorField
from .synth import DwiSet


_BLOCK_VALUES = 4096  # floats formatted or parsed at once: bounds the strings held


class FormatError(ValueError):
    """An interchange file violates its format; the message names the line."""


def _fail(line_no: int, message: str):
    raise FormatError(f"line {line_no}: {message}")


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        _fail(line_no, f"{what} must be an integer, got {token!r}")
    if value < 1:
        _fail(line_no, f"{what} must be >= 1, got {value}")
    return value


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        _fail(line_no, f"{what} must be a number, got {token!r}")


def _header(lines: list[str], layout: str) -> tuple[int, int, list[str]]:
    """Width, height and the remaining tokens of the header line laid out as
    layout, e.g. 'MSK1 <width> <height>'."""
    if not lines:
        _fail(1, f"empty file, expected a '{layout}' header")
    header = lines[0].split()
    magic = layout.split()
    if len(header) != len(magic) or header[0] != magic[0]:
        _fail(1, f"expected header '{layout}', got {lines[0]!r}")
    return _parse_int(header[1], 1, "width"), _parse_int(header[2], 1, "height"), header[3:]


def _body_rows(lines: list[str], expected: int, what: str) -> list[str]:
    """Stripped non-empty body lines, file line i + 2 at index i; exactly `expected`."""
    rows = list(map(str.strip, lines[1:]))
    while rows and not rows[-1]:
        rows.pop()
    if not all(rows):
        _fail(rows.index("") + 2, f"blank line inside the {what} block")
    if len(rows) < expected:
        _fail(len(rows) + 1, f"file ends after {len(rows)} of {expected} {what} lines")
    if len(rows) > expected:
        _fail(expected + 2, f"unexpected extra line after {expected} {what} lines")
    return rows


def _floats_row(no: int, line: str, count: int, what: str) -> list[float]:
    tokens = line.split()
    if len(tokens) != count:
        _fail(no, f"expected {count} {what}, got {len(tokens)}")
    return [_parse_float(tok, no, what) for tok in tokens]


def _float_block(rows: list[str], first_no: int, count: int, what: str) -> np.ndarray:
    """(len(rows), count) floats of body lines numbered from first_no.

    Parses _BLOCK_VALUES floats at a time.  A block with a wrong token count
    or a token float() rejects is parsed again row by row, so the error names
    the first bad line exactly as _floats_row does.
    """
    out = np.empty((len(rows), count))
    step = max(1, _BLOCK_VALUES // count)
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        tokens = list(map(str.split, block))
        if set(map(len, tokens)) == {count}:
            try:
                out[lo:lo + len(block)] = np.reshape(
                    list(map(float, chain.from_iterable(tokens))), (len(block), count))
                continue
            except ValueError:
                pass
        for no, line in enumerate(block, start=first_no + lo):
            out[no - first_no] = _floats_row(no, line, count, what)
    return out


def _float_lines(values: np.ndarray, per_line: int) -> list[str]:
    """Shortest round-trip reprs of values in row-major order, per_line to a line."""
    rows = values.reshape(-1, per_line)
    step = max(1, _BLOCK_VALUES // per_line)
    lines = []
    for lo in range(0, len(rows), step):
        tokens = map(repr, rows[lo:lo + step].ravel().tolist())
        lines += map(" ".join, zip(*[tokens] * per_line))
    return lines


# ---- tensor fields (DTF1) ----

def field_to_text(w: TensorField) -> str:
    lines = [f"DTF1 {w.width} {w.height} 3 {w.log_bound!r}"] + _float_lines(w.coeffs, 6)
    return "\n".join(lines) + "\n"


def field_from_text(text: str) -> TensorField:
    lines = text.splitlines()
    width, height, rest = _header(lines, "DTF1 <width> <height> <m> <z>")
    dim = _parse_int(rest[0], 1, "matrix dimension")
    if dim != 3:
        _fail(1, f"only 3x3 tensors are supported, got m={dim}")
    bound = _parse_float(rest[1], 1, "log-norm bound")
    rows = _body_rows(lines, height * width, "pixel")
    coeffs = _float_block(rows, 2, 6, "coefficients")
    return TensorField(coeffs.reshape(height, width, 6), bound)


# ---- masks (MSK1) ----

def mask_to_text(mask: Mask) -> str:
    lines = [f"MSK1 {mask.width} {mask.height}"]
    for row in mask.values:
        lines.append("".join("1" if v else "0" for v in row))
    return "\n".join(lines) + "\n"


def mask_from_text(text: str) -> Mask:
    lines = text.splitlines()
    width, height, _ = _header(lines, "MSK1 <width> <height>")
    rows = _body_rows(lines, height, "mask row")
    values = np.zeros((height, width), dtype=bool)
    for i, line in enumerate(rows):
        if len(line) != width or set(line) - {"0", "1"}:
            _fail(i + 2, f"expected {width} characters of 0/1, got {line!r}")
        values[i] = [ch == "1" for ch in line]
    return Mask(values)


# ---- DWI stacks (DWI1) ----

def dwis_to_text(dwis: DwiSet) -> str:
    k = dwis.directions.shape[0]
    lines = ([f"DWI1 {dwis.width} {dwis.height} {k} {dwis.b_value!r} {dwis.a0!r}"]
             + _float_lines(dwis.directions, 3) + _float_lines(dwis.images, dwis.width))
    return "\n".join(lines) + "\n"


def dwis_from_text(text: str) -> DwiSet:
    lines = text.splitlines()
    width, height, rest = _header(lines, "DWI1 <width> <height> <k> <b> <a0>")
    count = _parse_int(rest[0], 1, "direction count")
    b_value = _parse_float(rest[1], 1, "b-value")
    a0 = _parse_float(rest[2], 1, "reference signal")
    rows = _body_rows(lines, count + count * height, "direction/image")
    directions = _float_block(rows[:count], 2, 3, "direction components")
    values = _float_block(rows[count:], count + 2, width, "image values")
    return DwiSet(directions, b_value, a0, values.reshape(count, height, width))


# ---- path wrappers ----

def _write(path, text: str):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _read(path) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def write_field(w: TensorField, path):
    _write(path, field_to_text(w))


def read_field(path) -> TensorField:
    return field_from_text(_read(path))


def write_mask(mask: Mask, path):
    _write(path, mask_to_text(mask))


def read_mask(path) -> Mask:
    return mask_from_text(_read(path))


def write_dwis(dwis: DwiSet, path):
    _write(path, dwis_to_text(dwis))


def read_dwis(path) -> DwiSet:
    return dwis_from_text(_read(path))
