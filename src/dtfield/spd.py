"""Symmetric-matrix kernels: eigendecomposition, exp/log and the SPD projections.

Every tensor is a real symmetric 3x3 matrix stored as its six independent
coefficients [a11, a22, a33, a12, a13, a23]: the diagonal, then the upper
triangle row-major (the constants _ROWS, _COLS and _W3).  Every *_coeffs kernel
takes a (..., 6) coefficient array, a single (6,) tensor included.  Frobenius norms
are taken over the full matrix, so off-diagonal coefficients carry weight 2
in every inner product (weighted_norm_sq).

Eigendecompositions use batched cyclic Jacobi rotations of 3x3 matrices, each
of which updates only the six independent entries: pivot order (0,1), (0,2),
(1,2), pivot threshold |a_pq| > 1e-14 * sqrt(|a_pp|) * sqrt(|a_qq|), at most
100 sweeps.  The relative threshold keeps small eigenvalues of heavily graded
SPD matrices accurate to their own scale, and as a product of square roots it
cannot overflow.  The rotations keep the eigenvector basis orthogonal to
machine precision, and identical input yields identical output bytes.

eigh_coeffs is the one entry to the eigensolver.  exp_coeffs and log_coeffs
map the spectrum through _exp_values and _log_values (with the overflow and
positive-definiteness checks).  project_full_coeffs (floor at epsilon, then
||Log||_F <= z: _project_values) decomposes only the elements that a
certificate cannot prove feasible; project_log_coeffs is its twin in log
coordinates.  Both reject an epsilon or z that is not > 0 and a floor outside
the z ball (_check_floor_in_ball).
"""
from __future__ import annotations

import numpy as np

EPSILON_DEFAULT = 2.220446049250313e-16  # float64 machine epsilon
LOG_BOUND_DEFAULT = 36.0                 # default Frobenius bound on the matrix log

_MAX_EXP_EIGENVALUE = 709.782712893384   # log(DBL_MAX); exp overflows above this

_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100

_CERT_SLACK = 64 * 2.0 ** -53  # certificate: relative rounding bound of its tests
_CERT_TINY = 2.0 ** -1060      # certificate: absolute (underflow) rounding bound
_BOX_MARGIN = 1e-12            # certificate box margin: covers rounding of exp(+-z/sqrt 3)


class NotPositiveDefiniteError(ValueError):
    """An eigenvalue <= 0 where strict positive definiteness is required."""


def _check_floor_in_ball(epsilon: float, z: float):
    """Reject an epsilon or z that is not > 0, and an epsilon > 1 whose floor forces
    ||Log||_F >= sqrt(3) log(epsilon) > z (compared in log form, so that no
    exponential can overflow)."""
    if not (epsilon > 0.0 and z > 0.0):
        raise ValueError(f"epsilon and z must be > 0, got {epsilon:g} and {z:g}")
    if epsilon > 1.0 and np.sqrt(3.0) * np.log(epsilon) > z:
        raise ValueError(f"epsilon = {epsilon:g} leaves no feasible tensor: its floor forces "
                         f"||Log||_F >= sqrt(3) log(epsilon) > z = {z:g}")


# The coefficient layout [a11, a22, a33, a12, a13, a23]: row and column of each
# coefficient, and its full-matrix Frobenius weight (1 diagonal, 2 off-diagonal).
_ROWS = np.array([0, 1, 2, 0, 0, 1])
_COLS = np.array([0, 1, 2, 1, 2, 2])
_W3 = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
_ROWS.flags.writeable = _COLS.flags.writeable = _W3.flags.writeable = False

# Jacobi pivots (p, q) in cyclic order, each with the slots of a_pq, a_rp and
# a_rq among the off-diagonal entries (a12, a13, a23), r being the third index.
_PIVOTS = ((0, 1, 0, 1, 2), (0, 2, 1, 0, 2), (1, 2, 2, 0, 1))


def coeffs_to_matrices(coeffs: np.ndarray, dim: int = 3) -> np.ndarray:
    """(..., 6) coefficient array -> (..., 3, 3) symmetric matrices (dim, if given, must be 3)."""
    if dim != 3:
        raise ValueError(f"only 3x3 tensors are supported, got dim = {dim}")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    out = np.zeros(coeffs.shape[:-1] + (3, 3))
    out[..., _ROWS, _COLS] = out[..., _COLS, _ROWS] = coeffs
    return out


def matrices_to_coeffs(mats: np.ndarray) -> np.ndarray:
    """(..., 3, 3) symmetric matrices -> (..., 6); averages the off-diagonal halves."""
    mats = np.asarray(mats, dtype=np.float64)
    if mats.shape[-2:] != (3, 3):
        raise ValueError(f"expected (..., 3, 3) matrices, got shape {mats.shape}")
    out = np.empty(mats.shape[:-2] + (6,))
    out[..., :3] = mats[..., _ROWS[:3], _COLS[:3]]
    out[..., 3:] = 0.5 * (mats[..., _ROWS[3:], _COLS[3:]] + mats[..., _COLS[3:], _ROWS[3:]])
    return out


def jacobi_eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched cyclic Jacobi eigendecomposition of symmetric 3x3 matrices.

    Each rotation updates only the six independent entries (read from the
    diagonal and upper triangle), held as three diagonal and three
    off-diagonal arrays of length n.  A pivot (p, q) rotates where
    |a_pq| > 1e-14 sqrt(|a_pp|) sqrt(|a_qq|); the product of square roots
    cannot overflow, as sqrt(|a_pp a_qq|) does for entries above ~1e154.

    Parameters
    ----------
    mats : (..., 3, 3) array of real symmetric matrices.

    Returns
    -------
    values : (..., 3) eigenvalues in descending order.
    vectors : (..., 3, 3) orthonormal columns, vectors[..., :, k] paired with
        values[..., k].  The sign of each eigenvector is fixed so that its
        largest-magnitude component is positive.
    """
    a = np.asarray(mats, dtype=np.float64)
    if a.shape[-2:] != (3, 3):
        raise ValueError(f"expected (..., 3, 3) matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in symmetric matrix input")
    lead = a.shape[:-2]
    a = a.reshape(-1, 3, 3)
    diag = [a[:, 0, 0], a[:, 1, 1], a[:, 2, 2]]
    off = [a[:, 0, 1], a[:, 0, 2], a[:, 1, 2]]
    vec = [np.tile(e, (a.shape[0], 1)) for e in np.eye(3)]  # eigenvector columns

    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False  # a sweep that rotates nothing has converged
        for p, q, pq, rp, rq in _PIVOTS:
            app, aqq, apq = diag[p], diag[q], off[pq]
            # pivot criterion relative to sqrt(|app|) sqrt(|aqq|): for positive
            # definite input this is the Demmel-Veselic test, which preserves
            # the relative accuracy of even the smallest eigenvalues of graded
            # matrices
            rotate = np.abs(apq) > _JACOBI_TOL * np.sqrt(np.abs(app)) * np.sqrt(np.abs(aqq))
            if not rotate.any():
                continue
            rotated = True
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                theta = (aqq - app) / (2.0 * apq)
                sign = np.where(theta >= 0.0, 1.0, -1.0)
                t_raw = sign / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            good = rotate & np.isfinite(t_raw)
            t = np.where(good, t_raw, 0.0)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            shift = t * apq
            diag[p] = app - shift
            diag[q] = aqq + shift
            off[pq] = np.where(good, 0.0, apq)
            arp, arq = off[rp], off[rq]
            off[rp] = c * arp - s * arq
            off[rq] = s * arp + c * arq
            vp, vq = vec[p], vec[q]
            c, s = c[:, None], s[:, None]
            vec[p] = c * vp - s * vq
            vec[q] = s * vp + c * vq
        if not rotated:
            break
    else:
        raise RuntimeError(
            f"Jacobi eigendecomposition did not converge in {_JACOBI_MAX_SWEEPS} sweeps"
        )
    vals = np.stack(diag, axis=1)
    order = np.argsort(-vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    vecs = np.take_along_axis(np.stack(vec, axis=2), order[:, None, :], axis=2)
    # sign convention: largest-magnitude component of each eigenvector positive
    comp = np.argmax(np.abs(vecs), axis=1)
    picked = np.take_along_axis(vecs, comp[:, None, :], axis=1)[:, 0, :]
    vecs = vecs * np.where(picked < 0.0, -1.0, 1.0)[:, None, :]
    return vals.reshape(lead + (3,)), vecs.reshape(lead + (3, 3))


def eigh_coeffs(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (..., 6) coefficient array of 3x3 matrices."""
    return jacobi_eigh(coeffs_to_matrices(coeffs))


def assemble_from_eig(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Reassemble symmetric matrices V diag(values) V^T, symmetrized exactly."""
    raw = np.einsum("...ik,...k,...jk->...ij", vectors, values, vectors)
    return 0.5 * (raw + np.swapaxes(raw, -1, -2))


# ---- spectral maps on (..., 3) eigenvalue arrays, shared by the kernels ----

def _coeffs_from_eig(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """(..., n_coeffs) coefficients of V diag(values) V^T."""
    return matrices_to_coeffs(assemble_from_eig(values, vectors))


def _exp_values(vals: np.ndarray) -> np.ndarray:
    """exp of eigenvalues; OverflowError where the result would overflow."""
    if vals.size and vals.max() > _MAX_EXP_EIGENVALUE:
        raise OverflowError(f"exp_coeffs overflow: eigenvalue {vals.max():g} exceeds "
                            f"{_MAX_EXP_EIGENVALUE:g}")
    return np.exp(vals)


def _log_values(vals: np.ndarray, what: str = "matrix log") -> np.ndarray:
    """log of eigenvalues; NotPositiveDefiniteError unless every one is > 0."""
    if vals.size and vals.min() <= 0.0:
        raise NotPositiveDefiniteError(f"{what} requires a positive definite matrix "
                                       f"(min eigenvalue {vals.min():g})")
    return np.log(vals)


def _into_ball(x: np.ndarray, z: float, sq=None) -> np.ndarray:
    """Rows of x with squared norm sq > z^2 (default: sum of squares) rescaled onto norm z."""
    sq = (x * x).sum(axis=-1) if sq is None else sq
    factor = np.where(sq > z * z, z / np.sqrt(np.where(sq > 0.0, sq, 1.0)), 1.0)
    return x * factor[..., None]


def _project_values(vals: np.ndarray, epsilon: float, z: float) -> np.ndarray:
    """The full projection on eigenvalues: floor at epsilon, then log-ball rescale."""
    return _exp_values(_into_ball(_log_values(np.clip(vals, epsilon, None)), z))


def fa_of_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Fractional anisotropy of a (..., 3) eigenvalue array, clipped into [0, 1];
    eigh_coeffs(coeffs)[0] gives the eigenvalues of a coefficient array.

    Written with pairwise eigenvalue differences, so equal eigenvalues give
    exactly 0.
    """
    l1, l2, l3 = vals[..., 0], vals[..., 1], vals[..., 2]
    num = (l1 - l2) ** 2 + (l2 - l3) ** 2 + (l1 - l3) ** 2
    den = 2.0 * (l1 * l1 + l2 * l2 + l3 * l3)
    return np.clip(np.sqrt(num / den), 0.0, 1.0)


# ---- batched (..., 6) coefficient-array kernels used by the field modules ----

def log_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Matrix log on a (..., 6) coefficient array; all matrices must be SPD."""
    vals, vecs = eigh_coeffs(coeffs)
    return _coeffs_from_eig(_log_values(vals, "log_coeffs"), vecs)


def exp_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Matrix exp on a (..., 6) coefficient array of symmetric matrices."""
    vals, vecs = eigh_coeffs(coeffs)
    return _coeffs_from_eig(_exp_values(vals), vecs)


def weighted_norm_sq(coeffs: np.ndarray) -> np.ndarray:
    """Squared full-matrix Frobenius norm of a (..., 6) coefficient array.

    The input is made C-contiguous first: matmul's summation order follows
    the memory layout, and equal values must give equal bits.
    """
    coeffs = np.ascontiguousarray(coeffs)
    return (coeffs * coeffs) @ _W3


def _certified_feasible(coeffs: np.ndarray, epsilon: float, z: float) -> np.ndarray:
    """Mask of (..., 6) 3x3 matrices proven to have every eigenvalue in the box
    [max(epsilon, e^(-z/sqrt 3)), e^(z/sqrt 3)], which lies in the feasible set.

    Sylvester's minors prove positive definiteness, then lambda_min >= 2 det /
    ||A||_F^2 and lambda_max <= ||A||_F; each test is moved against passing by
    more than its float64 rounding error, and non-finite input never passes.
    """
    a11, a22, a33, a12, a13, a23 = np.moveaxis(coeffs, -1, 0)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        lo = max(epsilon, np.exp(-z / np.sqrt(3.0))) * (1.0 + _BOX_MARGIN)
        hi = np.exp(z / np.sqrt(3.0)) * (1.0 - _BOX_MARGIN)
        minor2 = a11 * a22 - a12 * a12
        det = (a11 * (a22 * a33 - a23 * a23) - a12 * (a12 * a33 - a13 * a23)
               + a13 * (a12 * a23 - a13 * a22))
        det_terms = (np.abs(a11 * a22 * a33) + 2.0 * np.abs(a12 * a13 * a23)
                     + np.abs(a11) * a23 ** 2 + np.abs(a22) * a13 ** 2 + np.abs(a33) * a12 ** 2)
        det_lo = det - _CERT_SLACK * det_terms - _CERT_TINY * (1.0 + np.abs(coeffs).max(axis=-1))
        fro2_hi = (1.0 + _CERT_SLACK) * weighted_norm_sq(coeffs)
        minor2_err = _CERT_SLACK * (np.abs(a11 * a22) + a12 * a12) + _CERT_TINY
        return ((a11 > 0.0) & (minor2 > minor2_err) & (det_lo > 0.0)
                & (2.0 * det_lo >= (1.0 + _CERT_SLACK) * lo * fro2_hi)
                & (fro2_hi <= (1.0 - _CERT_SLACK) * hi * hi))


def project_full_coeffs(coeffs: np.ndarray, epsilon: float, z: float) -> np.ndarray:
    """Full projection of (..., 6) coefficients: floor the eigenvalues at epsilon, then
    rescale the log spectrum into the ball ||Log||_F <= z; the elements that
    _certified_feasible proves feasible pass as they are."""
    _check_floor_in_ball(epsilon, z)
    out = np.array(coeffs, dtype=np.float64)
    todo = ~_certified_feasible(out, epsilon, z)
    if todo.any():
        vals, vecs = eigh_coeffs(out[todo])
        out[todo] = _coeffs_from_eig(_project_values(vals, epsilon, z), vecs)
    return out


def project_log_coeffs(logcoeffs: np.ndarray, epsilon: float, z: float) -> np.ndarray:
    """Log-domain twin of project_full_coeffs: returns Log(P(Exp(L))) for (..., 6) logs L.

    An element with ||L||_F <= min(z, -log epsilon) violates neither
    constraint (|eigenvalue| <= ||L||_F), so it is returned unchanged.  Beyond
    that, an element with ||L||_F <= -log epsilon is radially rescaled, which
    needs no eigendecomposition; only elements that may cross the epsilon
    floor take the eigenvalue path.
    """
    _check_floor_in_ball(epsilon, z)
    logcoeffs = np.asarray(logcoeffs, dtype=np.float64)
    log_eps = float(np.log(epsilon))
    sq = weighted_norm_sq(logcoeffs)
    norms = np.sqrt(sq)
    over = norms > min(z, -log_eps)
    if not over.any():
        return logcoeffs
    out = logcoeffs.copy()
    sel = logcoeffs[over]
    scaled = _into_ball(sel, z, sq[over])
    deep = norms[over] > -log_eps  # only these can have an eigenvalue below log(eps)
    if deep.any():
        vals, vecs = eigh_coeffs(sel[deep])
        scaled[deep] = _coeffs_from_eig(_into_ball(np.clip(vals, log_eps, None), z), vecs)
    out[over] = scaled
    return out
