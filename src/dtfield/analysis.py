"""Quality metrics and reporting for reconstructed tensor fields.

Signal-to-noise ratio and log-metric distances, column-averaged eigenvalue
profiles, a noise-sweep study that re-solves the denoising problem across
decreasing noise levels, and deterministic SVG rendering of the field as
ellipse glyphs colored by fractional anisotropy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .field import FunctionalParams, Mask, TensorField, _grid_coeffs
from .fileio import _write
from .optim import SolverConfig, solve
from .spd import eigh_coeffs, fa_of_eigenvalues, log_coeffs, weighted_norm_sq
from .synth import NoiseSpec, corrupt_field

_GLYPH_CELL_PX = 40
_MAX_GLYPH_RADIUS = 0.45


def snr(orig, rec) -> float:
    """Ratio of the original field norm to the error field norm.

    Both norms are Frobenius norms over the whole grid of raw tensors,
    sqrt(sum over pixels of ||.||_F^2).  Returns +infinity when the two
    fields are identical; raises ValueError for a zero original field.
    """
    a = _grid_coeffs(orig)
    b = _grid_coeffs(rec)
    if a.shape != b.shape:
        raise ValueError(f"field shapes differ: {a.shape} vs {b.shape}")
    signal_sq = float(weighted_norm_sq(a).sum())
    if signal_sq == 0.0:
        raise ValueError("signal-to-noise ratio is undefined for a zero field")
    error_sq = float(weighted_norm_sq(a - b).sum())
    if error_sq == 0.0:
        return math.inf
    return math.sqrt(signal_sq / error_sq)


def log_distance_map(a, b) -> np.ndarray:
    """Per-pixel log-metric distance between two fields, shape (height, width)."""
    la = log_coeffs(_grid_coeffs(a))
    lb = log_coeffs(_grid_coeffs(b))
    if la.shape != lb.shape:
        raise ValueError(f"field shapes differ: {la.shape} vs {lb.shape}")
    return np.sqrt(weighted_norm_sq(la - lb))


def column_eigen_profile(w) -> np.ndarray:
    """Per-column mean over rows of the largest eigenvalue, shape (width,)."""
    vals, _ = eigh_coeffs(_grid_coeffs(w))
    return vals[..., 0].mean(axis=0)


def _fa_rgb(fa: float) -> tuple[int, int, int]:
    """Linear RGB ramp over fractional anisotropy: 0 -> black, 1 -> light blue."""
    t = min(max(float(fa), 0.0), 1.0)
    return tuple(int(round(t * hi)) for hi in (120, 180, 255))


def render_svg(w: TensorField, out_path=None) -> str:
    """Render one ellipse glyph per pixel into an SVG 1.1 document.

    Each glyph shows the two largest eigenvalues as radii (globally
    normalized so the largest radius on the grid is 0.45 pixel units) and
    the in-plane projection of the principal eigenvector as orientation;
    fill color encodes fractional anisotropy.  Output is a pure function of
    the input bytes: re-rendering the same field gives identical files.
    Row 0 is drawn at the top; the second tensor axis points down the rows.
    """
    vals, vecs = eigh_coeffs(w.coeffs)
    lam1 = vals[..., 0]
    lam2 = vals[..., 1]
    scale = _MAX_GLYPH_RADIUS / float(lam1.max())
    fa = fa_of_eigenvalues(vals)
    principal = vecs[..., :, 0]
    angles = np.degrees(np.arctan2(principal[..., 1], principal[..., 0]))
    height, width = w.height, w.width
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width * _GLYPH_CELL_PX}" height="{height * _GLYPH_CELL_PX}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(height):
        for j in range(width):
            red, green, blue = _fa_rgb(float(fa[i, j]))
            cx = j + 0.5
            cy = i + 0.5
            parts.append(
                f'<ellipse cx="{cx:.4f}" cy="{cy:.4f}" '
                f'rx="{scale * lam1[i, j]:.4f}" ry="{scale * lam2[i, j]:.4f}" '
                f'transform="rotate({angles[i, j]:.4f} {cx:.4f} {cy:.4f})" '
                f'fill="rgb({red},{green},{blue})"/>'
            )
    parts.append("</svg>")
    document = "\n".join(parts) + "\n"
    if out_path is not None:
        _write(out_path, document)
    return document


@dataclass(frozen=True)
class StudyRow:
    """One noise level of a convergence study: level, weight used, error."""

    delta: float
    alpha: float
    distance: float


def default_alpha_rule(delta: float, p: float) -> float:
    """Default coupling alpha(delta) = delta^(p/2).

    Satisfies both vanishing conditions a parameter rule needs: alpha -> 0
    and delta^p / alpha = delta^(p/2) -> 0 as the noise level shrinks.
    """
    return float(delta) ** (p / 2.0)


def convergence_study(phantom: TensorField, noise_levels, alpha_rule=None, *,
                      params: FunctionalParams | None = None,
                      config: SolverConfig | None = None,
                      seed: int = 0) -> list[StudyRow]:
    """Denoise the phantom across decreasing noise levels and tabulate errors.

    For each level delta (the Rician noise standard deviation in signal
    units), data is generated with variance delta^2, solved with
    alpha = alpha_rule(delta), and the summed log-metric distance of the
    reconstruction to the phantom is recorded.  Rows keep the given
    (strictly decreasing) level order.
    """
    levels = [float(d) for d in noise_levels]
    if not levels:
        raise ValueError("need at least one noise level")
    if any(d < 0.0 for d in levels):
        raise ValueError(f"noise levels must be nonnegative, got {levels}")
    if any(b >= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"noise levels must be strictly decreasing, got {levels}")
    params = params if params is not None else FunctionalParams()
    config = config if config is not None else SolverConfig()
    if alpha_rule is None:
        alpha_rule = lambda delta: default_alpha_rule(delta, params.p)
    mask = Mask.full(phantom.height, phantom.width)
    rows = []
    for delta in levels:
        alpha = float(alpha_rule(delta))
        run_params = replace(params, alpha=alpha)
        noisy = corrupt_field(phantom, NoiseSpec(delta * delta, seed),
                              epsilon=run_params.epsilon, z=run_params.z)
        rec, _ = solve(noisy, mask, run_params, config=config)
        rows.append(StudyRow(delta, alpha, float(log_distance_map(rec, phantom).sum())))
    return rows


def study_csv(rows) -> str:
    """Serialize study rows as CSV with header delta,alpha,distance."""
    lines = ["delta,alpha,distance"]
    for row in rows:
        lines.append(f"{row.delta!r},{row.alpha!r},{row.distance!r}")
    return "\n".join(lines) + "\n"
