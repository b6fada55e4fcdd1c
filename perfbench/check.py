"""Independent output checks for the benchmark: numpy and the standard library.

Nothing here imports dtfield.  Fields are handled as (height, width, 6)
coefficient arrays in the layout [a11 a22 a33 a12 a13 a23] (FORMATS.md),
turned into full 3x3 matrices and decomposed with numpy.linalg (tiny
eigenvalues polished in exact rational arithmetic), and the objectives are
re-derived from the formulas in README.md:

  F(w)   = sum_{x in mask} d(w(x), data(x))^p
         + alpha * sum_{x != y} rho(x - y) d(w(x), w(y))^p / |x - y|^(2 + p s)
  F_C(w) = sum_x ||w(x) - data(x)||_F^p + beta * sum_x ||grad w(x)||_F^p

with d the log-Euclidean or the Frobenius distance, rho the bump mollifier
of radius n_rho, and grad the forward differences toward the right and
bottom neighbours.  Every check raises CheckError with a message.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# eigenvalues below this share of the pixel's largest are refined exactly
# (see eigen); the rest are accurate to a few ulps of the largest
REFINE_BELOW = 1e-6
# the recomputed log-norm may exceed the certified bound by rounding
LOGNORM_SLACK = 1e-9
# the report's objective and the one recomputed here differ only by the
# eigensolver (Jacobi there, LAPACK here) and the summation order
OBJECTIVE_RTOL = 1e-8
# evaluate prints repr(snr); the recomputation differs in summation order
SNR_RTOL = 1e-12
# a tolerance-stopped p = 2 inpainting solve against the exact minimizer;
# inpaint-p2 at rel_tol 1e-10 lands 1.3e-5 from it
INPAINT_RTOL = 1e-3

_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def matrices(coeffs) -> np.ndarray:
    """(..., 6) coefficients -> (..., 3, 3) symmetric matrices."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    out = np.empty(coeffs.shape[:-1] + (3, 3))
    for k, (i, j) in enumerate(_PAIRS):
        out[..., i, j] = coeffs[..., k]
        out[..., j, i] = coeffs[..., k]
    return out


def coefficients(mats) -> np.ndarray:
    """(..., 3, 3) symmetric matrices -> (..., 6) coefficients."""
    return np.stack([mats[..., i, j] for i, j in _PAIRS], axis=-1)


def _char_poly(a, x: Fraction) -> tuple[Fraction, Fraction]:
    """det(A - xI) and its derivative in x, exactly, for a 3x3 float matrix."""
    m = [[Fraction(float(a[i, j])) - (x if i == j else 0) for j in range(3)]
         for i in range(3)]
    minors = [m[1][1] * m[2][2] - m[1][2] * m[2][1],
              m[0][0] * m[2][2] - m[0][2] * m[2][0],
              m[0][0] * m[1][1] - m[0][1] * m[1][0]]
    det = (m[0][0] * minors[0] - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return det, -sum(minors)


def eigen(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of every pixel.

    numpy.linalg.eigh is accurate to a few ulps of the largest eigenvalue,
    which is no relative accuracy at all for the ~1e-16-scaled eigenvalue a
    floored, rescaled noisy fit carries.  Each eigenvalue below REFINE_BELOW
    of its pixel's largest is therefore polished by Newton steps on the
    characteristic polynomial, evaluated in exact rational arithmetic from
    the float64 coefficients.  Its eigenvector, set by a large gap, stays.
    """
    mats = matrices(coeffs)
    vals, vecs = np.linalg.eigh(mats)
    flat_vals, flat_mats = vals.reshape(-1, 3), mats.reshape(-1, 3, 3)
    for idx, k in zip(*np.nonzero(flat_vals < REFINE_BELOW * flat_vals[:, -1:])):
        x = float(flat_vals[idx, k])
        for _ in range(8):
            p, dp = _char_poly(flat_mats[idx], Fraction(x))
            step = float(p / dp)
            x -= step
            if abs(step) <= 1e-17 * abs(x):
                break
        flat_vals[idx, k] = x
    return vals, vecs


def log_matrices(coeffs) -> np.ndarray:
    """Matrix logarithm of every pixel, (..., 3, 3)."""
    vals, vecs = eigen(coeffs)
    if vals.min() <= 0.0:
        raise CheckError(f"matrix log of a non-SPD pixel (eigenvalue {vals.min():g})")
    return np.einsum("...ik,...k,...jk->...ij", vecs, np.log(vals), vecs)


def read_dtf(path: str) -> tuple[np.ndarray, float]:
    """Parse a DTF1 file into (coefficients (height, width, 6), bound z)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    tag, width, height, dim, bound = lines[0].split()
    if tag != "DTF1" or dim != "3":
        raise CheckError(f"{path}: bad header {lines[0]!r}")
    width, height = int(width), int(height)
    body = [line.split() for line in lines[1:] if line.strip()]
    if len(body) != width * height or any(len(row) != 6 for row in body):
        raise CheckError(f"{path}: expected {width * height} rows of 6 values")
    coeffs = np.array([[float(v) for v in row] for row in body])
    return coeffs.reshape(height, width, 6), float(bound)


def field_is_certified(coeffs, z: float):
    """Every pixel is SPD with ||Log||_F <= z (up to LOGNORM_SLACK)."""
    vals, _ = eigen(coeffs)
    if not vals.min() > 0.0:
        raise CheckError(f"pixel not positive definite (eigenvalue {vals.min():g})")
    lognorm = np.sqrt((np.log(vals) ** 2).sum(axis=-1)).max()
    if lognorm > z + LOGNORM_SLACK:
        raise CheckError(f"||Log||_F = {lognorm!r} exceeds the bound {z}")


def trajectory_ok(trajectory, iterations: int):
    """Length iterations + 1 and never increasing."""
    traj = [float(v) for v in trajectory]
    if len(traj) != iterations + 1:
        raise CheckError(f"{iterations} iterations but {len(traj)} trajectory entries")
    for k, (a, b) in enumerate(zip(traj, traj[1:])):
        if b > a:
            raise CheckError(f"objective rises at iteration {k + 1}: {a!r} -> {b!r}")


def mollifier(n_rho: int) -> dict[tuple[int, int], float]:
    """Weights of offsets (dy, dx) on the disk dx^2 + dy^2 <= n_rho^2.

    exp(-1 / (1 - r^2)) with r = |offset| / (n_rho + 1/2), normalized to
    total mass 1 (the definition in field.build_mollifier's docstring).
    """
    raw = {}
    for dy in range(-n_rho, n_rho + 1):
        for dx in range(-n_rho, n_rho + 1):
            if dx * dx + dy * dy <= n_rho * n_rho:
                r2 = (dx * dx + dy * dy) / (n_rho + 0.5) ** 2
                raw[(dy, dx)] = math.exp(-1.0 / (1.0 - r2))
    total = sum(raw.values())
    return {off: w / total for off, w in raw.items()}


def pair_kernels(n_rho: int, p: float, s: float) -> dict[tuple[int, int], float]:
    """rho(offset) / |offset|^(2 + p s) for every nonzero offset of the window."""
    return {(dy, dx): w / math.hypot(dy, dx) ** (2.0 + p * s)
            for (dy, dx), w in mollifier(n_rho).items() if (dy, dx) != (0, 0)}


def _frob(diff: np.ndarray) -> np.ndarray:
    return np.sqrt((diff * diff).sum(axis=(-2, -1)))


def _shifted(a: np.ndarray, dy: int, dx: int):
    """Views a[x] and a[x + (dy, dx)] over the pixels x where both exist."""
    h, w = a.shape[:2]
    rows, cols = slice(max(0, -dy), min(h, h - dy)), slice(max(0, -dx), min(w, w - dx))
    rows2, cols2 = slice(rows.start + dy, rows.stop + dy), slice(cols.start + dx, cols.stop + dx)
    return a[rows, cols], a[rows2, cols2]


def double_integral(mats: np.ndarray, n_rho: int, p: float, s: float) -> float:
    """Sum over ordered pixel pairs x != y of kernel * ||m(x) - m(y)||_F^p."""
    total = 0.0
    for (dy, dx), k in pair_kernels(n_rho, p, s).items():
        a, b = _shifted(mats, dy, dx)
        if a.size:
            total += k * float((_frob(a - b) ** p).sum())
    return total


def objective_F(w, data, mask, p, s, alpha, n_rho, metric: str) -> float:
    """README's F in the log-Euclidean or the Euclidean metric."""
    if metric == "log-euclidean":
        mw, md = log_matrices(w), log_matrices(data)
    else:
        mw, md = matrices(w), matrices(data)
    fid = float(np.where(mask, _frob(mw - md) ** p, 0.0).sum())
    return fid + alpha * double_integral(mw, n_rho, p, s) if alpha > 0.0 else fid


def objective_FC(w, data, p, beta) -> float:
    """README's comparison functional: Frobenius fidelity + beta * Theta."""
    mw, md = matrices(w), matrices(data)
    gsq = np.zeros(mw.shape[:2])
    gsq[:, :-1] += _frob(mw[:, 1:] - mw[:, :-1]) ** 2
    gsq[:-1, :] += _frob(mw[1:, :] - mw[:-1, :]) ** 2
    return float((_frob(mw - md) ** p).sum()) + beta * float((gsq ** (0.5 * p)).sum())


def objective_matches(reported: float, recomputed: float, what: str):
    if not abs(reported - recomputed) <= OBJECTIVE_RTOL * max(1.0, abs(recomputed)):
        raise CheckError(f"{what}: reported objective {reported!r}, "
                         f"recomputed {recomputed!r}")


def inpainting_minimizer(data, mask, alpha: float, n_rho: int, s: float) -> np.ndarray:
    """Exact minimizer of the p = 2 log-Euclidean problem, (h, w, 3, 3) logs.

    Stationarity of sum_mask ||l - t||^2 + alpha sum_{x != y} k ||l_x - l_y||^2
    is (M + 2 alpha L_k) l = M t per matrix entry, with M the mask diagonal
    and L_k the Laplacian of the pixel graph weighted by the kernel k.
    Valid while the log-norm constraint is inactive, which holds because
    the minimizer averages data logs that already lie in the ball.
    """
    h, w = mask.shape
    n = h * w
    index = np.arange(n).reshape(h, w)
    lap = np.zeros((n, n))
    for (dy, dx), k in pair_kernels(n_rho, 2.0, s).items():
        a, b = _shifted(index, dy, dx)
        a, b = a.ravel(), b.ravel()
        # each unordered pair appears under (dy, dx) and (-dy, -dx): take it once
        np.add.at(lap, (a, b), -0.5 * k)
        np.add.at(lap, (b, a), -0.5 * k)
        np.add.at(lap, (a, a), 0.5 * k)
        np.add.at(lap, (b, b), 0.5 * k)
    m = mask.ravel().astype(np.float64)
    system = np.diag(m) + 2.0 * alpha * lap
    targets = log_matrices(data).reshape(n, 9) * m[:, None]
    return np.linalg.solve(system, targets).reshape(h, w, 3, 3)


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def snr(orig, rec) -> float:
    """Frobenius norm of the original over that of the error, whole grid."""
    mo, mr = matrices(orig), matrices(rec)
    return math.sqrt(float((mo * mo).sum()) / float(((mo - mr) ** 2).sum()))


def column_profile(coeffs) -> np.ndarray:
    """Per-column mean of each pixel's largest eigenvalue."""
    return np.linalg.eigvalsh(matrices(coeffs))[..., -1].mean(axis=0)
