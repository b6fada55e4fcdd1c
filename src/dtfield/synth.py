"""Synthetic diffusion-weighted data: phantoms, forward model, noise, refit.

The generator pipeline mirrors how noisy tensor fields arise in practice:
a ground-truth field is pushed through the Stejskal-Tanner forward model
along 12 gradient directions, Rician noise corrupts each scalar signal,
and a per-pixel linear least-squares fit followed by the full SPD
projection recovers a valid tensor field.

Noise is drawn from one counter-based substream per pixel (keyed by the
user seed and the row-major pixel index), so results are bit-identical
regardless of evaluation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import TensorField
from .spd import (
    EPSILON_DEFAULT,
    LOG_BOUND_DEFAULT,
    _COLS,
    _ROWS,
    _W3,
    matrices_to_coeffs,
    project_full_coeffs,
)

B_VALUE_DEFAULT = 800.0
A0_DEFAULT = 1000.0
_SIGNAL_FLOOR = 1e-12


@dataclass(frozen=True)
class NoiseSpec:
    """Rician noise level (variance of each Gaussian component) and seed."""

    sigma2: float
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise ValueError(f"sigma2 must be finite and >= 0, got {self.sigma2}")
        if not isinstance(self.seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(self.seed).__name__}")


@dataclass(frozen=True)
class DwiSet:
    """Diffusion-weighted images: one scalar image per gradient direction."""

    directions: np.ndarray   # (k, 3) unit vectors
    b_value: float
    a0: float
    images: np.ndarray       # (k, height, width) nonnegative signals

    def __post_init__(self):
        directions = np.asarray(self.directions, dtype=np.float64)
        images = np.asarray(self.images, dtype=np.float64)
        if directions.ndim != 2 or directions.shape[1] != 3:
            raise ValueError(f"directions must be (k, 3), got {directions.shape}")
        norms = np.linalg.norm(directions, axis=1)
        if not np.allclose(norms, 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("gradient directions must be unit vectors")
        if not (math.isfinite(self.b_value) and self.b_value > 0.0):
            raise ValueError(f"b_value must be finite and > 0, got {self.b_value}")
        if not (math.isfinite(self.a0) and self.a0 > 0.0):
            raise ValueError(f"a0 must be finite and > 0, got {self.a0}")
        if images.ndim != 3 or images.shape[0] != directions.shape[0]:
            raise ValueError(
                f"images must be (k, height, width) with k = {directions.shape[0]}, "
                f"got {images.shape}"
            )
        if not np.isfinite(images).all() or (images < 0.0).any():
            raise ValueError("images must be finite and nonnegative")
        directions.setflags(write=False)
        images.setflags(write=False)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "images", images)

    @property
    def height(self) -> int:
        return self.images.shape[1]

    @property
    def width(self) -> int:
        return self.images.shape[2]


def default_directions() -> np.ndarray:
    """12 gradient directions: the vertices of a regular icosahedron.

    The design matrix they induce has rank 6 and condition number < 10, so
    the least-squares tensor fit is well posed.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for a in (1.0, -1.0):
        for b in (phi, -phi):
            verts.append((0.0, a, b))
            verts.append((a, b, 0.0))
            verts.append((b, 0.0, a))
    dirs = np.array(verts, dtype=np.float64)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs


def design_matrix(directions: np.ndarray) -> np.ndarray:
    """Rows [gx^2, gy^2, gz^2, 2 gx gy, 2 gx gz, 2 gy gz] so that
    row @ coeffs = g^T w g for the independent-coefficient tensor layout."""
    g = np.asarray(directions, dtype=np.float64)
    return np.ascontiguousarray(g[:, _ROWS] * g[:, _COLS] * _W3)  # C order: sums follow layout


def simulate_dwis(w: TensorField, b: float = B_VALUE_DEFAULT, a0: float = A0_DEFAULT,
                  directions: np.ndarray | None = None) -> DwiSet:
    """Forward-simulate noise-free diffusion-weighted images of a field."""
    directions = default_directions() if directions is None else np.asarray(directions)
    design = design_matrix(directions)
    quad = np.einsum("kc,ijc->kij", design, w.coeffs)
    return DwiSet(directions, b, a0, a0 * np.exp(-b * quad))


def _rician_images(images: np.ndarray, seed: int, sigma: float) -> np.ndarray:
    """Noisy copy of (k, height, width) images; see apply_noise for the streams.

    Its own function so that the row buffer and the generator are freed
    before DwiSet validates the result, which lowers apply_noise's peak."""
    k, height, width = images.shape
    key = np.array([seed % 2 ** 64, 0], dtype=np.uint64)
    bits = np.random.Philox(key=key)
    rng = np.random.Generator(bits)
    fresh = bits.state  # counter 0, empty buffer; the setter copies key on each use
    fresh["state"]["key"] = key
    draws = np.empty((width, 2 * k))
    noisy = np.empty((k, height, width))
    for i in range(height):
        for j in range(width):
            key[1] = i * width + j
            bits.state = fresh
            rng.standard_normal(out=draws[j])
        draws *= sigma
        np.hypot(images[:, i, :] + draws[:, 0::2].T, draws[:, 1::2].T, out=noisy[:, i, :])
    return noisy


def apply_noise(dwis: DwiSet, spec: NoiseSpec) -> DwiSet:
    """Corrupt every signal with Rician noise from per-pixel substreams.

    Pixel (i, j) of a height x width set uses the Philox substream keyed by
    (spec.seed mod 2**64, i * width + j) and draws one standard normal pair
    (n1, n2) per direction in direction order; the signal v becomes
    sqrt((v + sigma n1)^2 + (sigma n2)^2), sigma = sqrt(sigma2).  One Philox
    is re-keyed for each pixel (counter 0, empty buffer), so each substream
    equals that of a fresh Philox(key=(seed, index)).  Draws are made one grid
    row at a time.  sigma2 = 0 returns dwis itself.
    """
    if spec.sigma2 == 0.0:
        return dwis
    # int() first: numpy integers would overflow in seed % 2**64
    noisy = _rician_images(dwis.images, int(spec.seed), math.sqrt(spec.sigma2))
    return DwiSet(dwis.directions, dwis.b_value, dwis.a0, noisy)


def _ls_coefficients(dwis: DwiSet) -> np.ndarray:
    """Least-squares tensor coefficients for every pixel (no projection)."""
    design = design_matrix(dwis.directions)
    if np.linalg.matrix_rank(design) < 6:
        raise ValueError(
            f"direction set is rank-deficient: {dwis.directions.shape[0]} directions "
            f"span only rank {np.linalg.matrix_rank(design)} of the 6 coefficients"
        )
    signals = np.maximum(dwis.images, _SIGNAL_FLOOR)
    targets = np.log(signals / dwis.a0) / (-dwis.b_value)  # (k, h, w)
    pinv = np.linalg.pinv(design)                          # (6, k)
    return np.einsum("ck,kij->ijc", pinv, targets)


def fit_field(dwis: DwiSet, epsilon: float = EPSILON_DEFAULT,
              z: float = LOG_BOUND_DEFAULT) -> TensorField:
    """Least-squares tensor fit of every pixel, projected into SPD^Log_z."""
    coeffs = project_full_coeffs(_ls_coefficients(dwis), epsilon, z)
    return TensorField(coeffs, z)


def corrupt_field(w: TensorField, spec: NoiseSpec, b: float = B_VALUE_DEFAULT,
                  a0: float = A0_DEFAULT, directions: np.ndarray | None = None,
                  epsilon: float = EPSILON_DEFAULT, z: float = LOG_BOUND_DEFAULT) -> TensorField:
    """Simulate, corrupt, and refit a tensor field (the full noisy-data path)."""
    dwis = apply_noise(simulate_dwis(w, b, a0, directions), spec)
    return fit_field(dwis, epsilon, z)


def make_staircase_phantom(n: int) -> TensorField:
    """n x n field whose columns ramp one eigenvalue from 0.5e-3 to 3.5e-3.

    Column j (1-based) has eigenvalues (0.5e-3 + (j-1)/(n-1) * 3.0e-3,
    0.5e-3, 0.5e-3) along the coordinate axes, so the first column is
    isotropic and anisotropy grows strictly to the right.
    """
    if n < 2:
        raise ValueError(f"staircase phantom needs n >= 2, got {n}")
    coeffs = np.zeros((n, n, 6))
    ramp = 0.5e-3 + np.arange(n) / (n - 1) * 3.0e-3
    coeffs[:, :, 0] = ramp[None, :]
    coeffs[:, :, 1] = 0.5e-3
    coeffs[:, :, 2] = 0.5e-3
    return TensorField(coeffs, LOG_BOUND_DEFAULT)


def make_main_direction_phantom(n: int) -> TensorField:
    """n x n field with an L-shaped anisotropic band in an isotropic background.

    Band tensors have principal eigenvalue 3e-3 along the band direction
    (vertical leg, then horizontal leg, blended 45 degrees where they meet)
    over transverse eigenvalues 0.5e-3; the background is isotropic 0.5e-3.
    """
    if n < 5:
        raise ValueError(f"main-direction phantom needs n >= 5, got {n}")
    iso = 0.5e-3
    principal = 3.0e-3
    coeffs = np.zeros((n, n, 6))
    coeffs[:, :, :3] = iso

    def band_tensor(axis):
        axis = np.asarray(axis) / np.linalg.norm(axis)
        return matrices_to_coeffs(iso * np.eye(3) + (principal - iso) * np.outer(axis, axis))

    col0, row0 = 1, n - 3
    vertical = band_tensor((0.0, 1.0, 0.0))    # along image rows
    horizontal = band_tensor((1.0, 0.0, 0.0))  # along image columns
    diagonal = band_tensor((1.0, 1.0, 0.0))
    coeffs[0:row0, col0:col0 + 2] = vertical
    coeffs[row0:row0 + 2, col0 + 2:n - 1] = horizontal
    coeffs[row0:row0 + 2, col0:col0 + 2] = diagonal
    return TensorField(coeffs, LOG_BOUND_DEFAULT)
