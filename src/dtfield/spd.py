"""Symmetric-matrix kernel: eigendecomposition, exp/log, metrics, projections.

Everything in this package ultimately reduces to operations on small real
symmetric matrices.  A symmetric dim x dim matrix is stored as its
dim*(dim+1)/2 independent coefficients, diagonal first and then the upper
triangle row-major; for dim=3 that is [a11, a22, a33, a12, a13, a23].
Frobenius norms are always taken over the full matrix, so off-diagonal
coefficients carry weight 2 in every inner product.

Eigendecompositions use batched cyclic Jacobi rotations: deterministic pivot
order, pivot threshold |a_pq| > 1e-14 * sqrt(|a_pp * a_qq|), at most 100
sweeps.  The relative threshold keeps small eigenvalues of heavily graded SPD
matrices accurate to their own scale.  For 3x3 input the rotations keep the
eigenvector basis orthogonal to machine precision, and identical input yields
identical output bytes.  project_full_coeffs decomposes only the elements that
a decomposition-free certificate cannot prove feasible.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def coeff_pairs(dim: int) -> list[tuple[int, int]]:
    """Index pairs (i, j) for the coefficient layout: diagonal, then upper rows."""
    pairs = [(i, i) for i in range(dim)]
    pairs += [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    return pairs


def coeff_weights(dim: int) -> np.ndarray:
    """Full-matrix Frobenius weights per coefficient (1 diagonal, 2 off-diagonal)."""
    return np.array([1.0] * dim + [2.0] * (dim * (dim - 1) // 2))


_PAIRS3 = coeff_pairs(3)
_W3 = coeff_weights(3)


def coeffs_to_matrices(coeffs: np.ndarray, dim: int = 3) -> np.ndarray:
    """(..., n_coeffs) coefficient array -> (..., dim, dim) symmetric matrices."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    out = np.zeros(coeffs.shape[:-1] + (dim, dim))
    for k, (i, j) in enumerate(coeff_pairs(dim)):
        out[..., i, j] = coeffs[..., k]
        out[..., j, i] = coeffs[..., k]
    return out


def matrices_to_coeffs(mats: np.ndarray) -> np.ndarray:
    """(..., dim, dim) symmetric matrices -> (..., n_coeffs); averages the halves."""
    mats = np.asarray(mats, dtype=np.float64)
    dim = mats.shape[-1]
    cols = []
    for i, j in coeff_pairs(dim):
        if i == j:
            cols.append(mats[..., i, i])
        else:
            cols.append(0.5 * (mats[..., i, j] + mats[..., j, i]))
    return np.stack(cols, axis=-1)


def jacobi_eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched cyclic Jacobi eigendecomposition of symmetric matrices.

    Parameters
    ----------
    mats : (..., m, m) array of real symmetric matrices.

    Returns
    -------
    values : (..., m) eigenvalues in descending order.
    vectors : (..., m, m) orthonormal columns, vectors[..., :, k] paired with
        values[..., k].  The sign of each eigenvector is fixed so that its
        largest-magnitude component is positive.
    """
    a = np.array(mats, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in symmetric matrix input")
    lead = a.shape[:-2]
    m = a.shape[-1]
    a = a.reshape(-1, m, m)
    b = a.shape[0]
    v = np.tile(np.eye(m), (b, 1, 1))
    iu, ju = np.triu_indices(m, k=1)

    def _unconverged():
        # pivot criterion relative to sqrt(|app*aqq|): for positive definite
        # input this is the Demmel-Veselic test, which preserves the relative
        # accuracy of even the smallest eigenvalues of heavily graded matrices
        diag = np.abs(a[:, np.arange(m), np.arange(m)])
        gate = _JACOBI_TOL * np.sqrt(diag[:, iu] * diag[:, ju])
        return np.abs(a[:, iu, ju]) > gate

    for _ in range(_JACOBI_MAX_SWEEPS):
        if iu.size == 0 or not _unconverged().any():
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[:, p, q].copy()
                app_d = np.abs(a[:, p, p])
                aqq_d = np.abs(a[:, q, q])
                rotate = np.abs(apq) > _JACOBI_TOL * np.sqrt(app_d * aqq_d)
                if not rotate.any():
                    continue
                app = a[:, p, p].copy()
                aqq = a[:, q, q].copy()
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    theta = (aqq - app) / (2.0 * apq)
                    sign = np.where(theta >= 0.0, 1.0, -1.0)
                    t_raw = sign / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                good = rotate & np.isfinite(t_raw)
                t = np.where(good, t_raw, 0.0)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                a[:, p, p] = app - t * apq
                a[:, q, q] = aqq + t * apq
                a[good, p, q] = 0.0
                a[good, q, p] = 0.0
                for r in range(m):
                    if r == p or r == q:
                        continue
                    arp = a[:, r, p].copy()
                    arq = a[:, r, q].copy()
                    a[:, r, p] = c * arp - s * arq
                    a[:, p, r] = a[:, r, p]
                    a[:, r, q] = s * arp + c * arq
                    a[:, q, r] = a[:, r, q]
                vp = v[:, :, p].copy()
                vq = v[:, :, q].copy()
                v[:, :, p] = c[:, None] * vp - s[:, None] * vq
                v[:, :, q] = s[:, None] * vp + c[:, None] * vq
    else:
        raise RuntimeError(
            f"Jacobi eigendecomposition did not converge in {_JACOBI_MAX_SWEEPS} sweeps"
        )
    vals = a[:, np.arange(m), np.arange(m)]
    order = np.argsort(-vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    vecs = np.take_along_axis(v, order[:, None, :], axis=2)
    # sign convention: largest-magnitude component of each eigenvector positive
    comp = np.argmax(np.abs(vecs), axis=1)
    picked = np.take_along_axis(vecs, comp[:, None, :], axis=1)[:, 0, :]
    vecs = vecs * np.where(picked < 0.0, -1.0, 1.0)[:, None, :]
    return vals.reshape(lead + (m,)), vecs.reshape(lead + (m, m))


def assemble_from_eig(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Reassemble symmetric matrices V diag(values) V^T, symmetrized exactly."""
    raw = np.einsum("...ik,...k,...jk->...ij", vectors, values, vectors)
    return 0.5 * (raw + np.swapaxes(raw, -1, -2))


@dataclass(frozen=True, eq=False)
class SymMat:
    """A real symmetric matrix stored by its independent coefficients."""

    coeffs: np.ndarray
    dim: int = 3

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=np.float64).reshape(-1)
        n = self.dim * (self.dim + 1) // 2
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if coeffs.shape != (n,):
            raise ValueError(f"expected {n} coefficients for dim={self.dim}, got {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite coefficients")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_matrix(cls, mat: np.ndarray, tol: float = 1e-9) -> "SymMat":
        mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("non-finite entries")
        asym = np.abs(mat - mat.T).max()
        if asym > tol * max(1.0, np.abs(mat).max()):
            raise ValueError(f"matrix is not symmetric (max asymmetry {asym:g})")
        return cls(matrices_to_coeffs(mat), dim=mat.shape[0])

    @property
    def matrix(self) -> np.ndarray:
        return coeffs_to_matrices(self.coeffs, self.dim)

    def scaled(self, factor: float) -> "SymMat":
        return SymMat(self.coeffs * float(factor), dim=self.dim)


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        vectors = np.array(self.vectors, dtype=np.float64)
        m = values.shape[0]
        if values.shape != (m,) or vectors.shape != (m, m):
            raise ValueError(
                f"inconsistent eigenpair shapes {values.shape} / {vectors.shape}"
            )
        values.flags.writeable = False
        vectors.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)


@dataclass(frozen=True, eq=False)
class SpdTensor:
    """A symmetric positive definite matrix with a certified log-norm bound.

    The certificate is ||Log(mat)||_F <= certified_log_bound, which confines
    the eigenvalues to [exp(-bound), exp(bound)].

    Operations that construct the matrix from a known eigendecomposition
    (mat_exp, the projections, geodesic) attach that decomposition as `eig`;
    mat_log and friends reuse it.  Carrying the shared eigenbasis is what
    makes exp and log exact inverses even for extreme eigenvalue spreads,
    where a reassembled float64 matrix alone no longer determines its
    smallest eigenvalues to relative precision.
    """

    mat: SymMat
    certified_log_bound: float
    eig: EigenPair | None = None

    def __post_init__(self):
        bound = float(self.certified_log_bound)
        if not np.isfinite(bound) or bound < 0.0:
            raise ValueError(f"certified_log_bound must be finite and >= 0, got {bound}")
        object.__setattr__(self, "certified_log_bound", bound)
        if self.eig is None:
            vals, vecs = jacobi_eigh(self.mat.matrix)
            object.__setattr__(self, "eig", EigenPair(vals, vecs))
        else:
            residual = assemble_from_eig(self.eig.values, self.eig.vectors) - self.mat.matrix
            norm = np.sqrt((self.mat.matrix ** 2).sum())
            if np.abs(residual).max() > 1e-12 * max(1.0, norm):
                raise ValueError("eigendecomposition does not reconstruct the matrix")
        vals = self.eig.values
        if vals[-1] <= 0.0:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite (min eigenvalue {vals[-1]:g})"
            )
        lognorm = float(np.sqrt((np.log(vals) ** 2).sum()))
        if lognorm > bound * (1.0 + 1e-12) + 1e-12:
            raise ValueError(
                f"||Log(mat)||_F = {lognorm:.17g} exceeds certified bound {bound:.17g}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.mat.matrix

    @property
    def dim(self) -> int:
        return self.mat.dim


def sym_eig(m: SymMat) -> EigenPair:
    """Eigendecomposition of a SymMat (descending values, sign-fixed vectors)."""
    vals, vecs = jacobi_eigh(m.matrix)
    return EigenPair(values=vals, vectors=vecs)


def frobenius(m: SymMat) -> float:
    """Frobenius norm of the full matrix (off-diagonals counted twice)."""
    w = coeff_weights(m.dim)
    return float(np.sqrt((w * m.coeffs * m.coeffs).sum()))


def _spd_from_eig(values: np.ndarray, vectors: np.ndarray, bound: float, dim: int) -> SpdTensor:
    mat = assemble_from_eig(values, vectors)
    return SpdTensor(
        SymMat(matrices_to_coeffs(mat), dim=dim),
        bound,
        eig=EigenPair(values, vectors),
    )


def mat_exp(s: SymMat) -> SpdTensor:
    """Matrix exponential of a symmetric matrix; certified bound ||s||_F."""
    vals, vecs = jacobi_eigh(s.matrix)
    if vals[0] > _MAX_EXP_EIGENVALUE:
        raise OverflowError(
            f"mat_exp overflow: eigenvalue {vals[0]:g} exceeds {_MAX_EXP_EIGENVALUE:g}"
        )
    return _spd_from_eig(np.exp(vals), vecs, frobenius(s), s.dim)


def _eig_of(a) -> tuple[np.ndarray, np.ndarray, int]:
    """(values, vectors, dim) of a SpdTensor (cached), SymMat, or raw array."""
    if isinstance(a, SpdTensor):
        return a.eig.values, a.eig.vectors, a.dim
    if isinstance(a, SymMat):
        vals, vecs = jacobi_eigh(a.matrix)
        return vals, vecs, a.dim
    m = SymMat.from_matrix(np.asarray(a, dtype=np.float64))
    vals, vecs = jacobi_eigh(m.matrix)
    return vals, vecs, m.dim


def mat_log(a) -> SymMat:
    """Matrix logarithm of a strictly positive definite symmetric matrix."""
    vals, vecs, dim = _eig_of(a)
    if vals[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            f"mat_log requires a positive definite matrix (min eigenvalue {vals[-1]:g}); "
            "project first"
        )
    mat = assemble_from_eig(np.log(vals), vecs)
    return SymMat(matrices_to_coeffs(mat), dim=dim)


def dist_log_euclidean(a, b) -> float:
    """Log-Euclidean distance ||Log A - Log B||_F."""
    la = mat_log(a)
    lb = mat_log(b)
    if la.dim != lb.dim:
        raise ValueError(f"dimension mismatch: {la.dim} vs {lb.dim}")
    w = coeff_weights(la.dim)
    d = la.coeffs - lb.coeffs
    return float(np.sqrt((w * d * d).sum()))


def dist_affine_invariant(a, b) -> float:
    """Affine-invariant distance ||Log(A^{-1/2} B A^{-1/2})||_F."""
    vals, vecs, dim_a = _eig_of(a)
    mb = b.mat if isinstance(b, SpdTensor) else (b if isinstance(b, SymMat) else SymMat.from_matrix(b))
    if dim_a != mb.dim:
        raise ValueError(f"dimension mismatch: {dim_a} vs {mb.dim}")
    if vals[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            f"dist_affine_invariant requires positive definite input "
            f"(min eigenvalue {vals[-1]:g})"
        )
    inv_sqrt = assemble_from_eig(1.0 / np.sqrt(vals), vecs)
    inner = inv_sqrt @ mb.matrix @ inv_sqrt
    inner = 0.5 * (inner + inner.T)
    ivals, _ = jacobi_eigh(inner)
    if ivals[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            f"dist_affine_invariant: congruence has min eigenvalue {ivals[-1]:g}"
        )
    return float(np.sqrt((np.log(ivals) ** 2).sum()))


def project_spec(a, lo: float, hi: float = np.inf) -> SpdTensor:
    """Symmetrize, then clamp eigenvalues into [lo, hi].

    This is the Frobenius-nearest matrix in the spectrally bounded SPD set:
    the symmetric part is the nearest symmetric matrix, and clamping the
    eigenvalues is the nearest spectrum.
    """
    lo = float(lo)
    hi = float(hi)
    if not (lo > 0.0):
        raise ValueError(f"lo must be > 0, got {lo}")
    if not (hi >= lo):
        raise ValueError(f"need hi >= lo, got lo={lo}, hi={hi}")
    if isinstance(a, (SpdTensor, SymMat)):
        vals, vecs, dim = _eig_of(a)
    else:
        arr = np.asarray(a, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite entries")
        sym = 0.5 * (arr + arr.T)
        vals, vecs = jacobi_eigh(sym)
        dim = arr.shape[0]
    clamped = np.clip(vals, lo, hi)
    bound = float(np.sqrt((np.log(clamped) ** 2).sum()))
    return _spd_from_eig(clamped, vecs, bound, dim)


def project_log_ball(a: SpdTensor, z: float) -> SpdTensor:
    """Rescale eigenvalues lambda -> lambda^(z/||Log A||_F) when the log norm exceeds z."""
    z = float(z)
    if not (z > 0.0):
        raise ValueError(f"z must be > 0, got {z}")
    vals, vecs, dim = _eig_of(a)
    if vals[-1] <= 0.0:
        raise NotPositiveDefiniteError("project_log_ball requires positive definite input")
    logs = np.log(vals)
    c = float((logs * logs).sum())
    if c <= z * z:
        if isinstance(a, SpdTensor):
            return a
        return _spd_from_eig(vals, vecs, np.sqrt(c), dim)
    scaled = logs * (z / np.sqrt(c))
    return _spd_from_eig(np.exp(scaled), vecs, z, dim)


def project_full(a, epsilon: float = EPSILON_DEFAULT, z: float = LOG_BOUND_DEFAULT) -> SpdTensor:
    """Full projection: eigenvalue floor at epsilon, then log-ball of radius z."""
    return project_log_ball(project_spec(a, epsilon, np.inf), z)


def geodesic(a: SpdTensor, b: SpdTensor, t: float) -> SpdTensor:
    """Log-Euclidean geodesic Exp((1-t) Log A + t Log B); result(0) = A."""
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    la = mat_log(a)
    lb = mat_log(b)
    if la.dim != lb.dim:
        raise ValueError(f"dimension mismatch: {la.dim} vs {lb.dim}")
    combined = SymMat((1.0 - t) * la.coeffs + t * lb.coeffs, dim=la.dim)
    return mat_exp(combined)


def fa_of_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """FA from a (..., 3) eigenvalue array, clipped into [0, 1].

    Written with pairwise eigenvalue differences, so equal eigenvalues give
    exactly 0.
    """
    l1, l2, l3 = vals[..., 0], vals[..., 1], vals[..., 2]
    num = (l1 - l2) ** 2 + (l2 - l3) ** 2 + (l1 - l3) ** 2
    den = 2.0 * (l1 * l1 + l2 * l2 + l3 * l3)
    return np.clip(np.sqrt(num / den), 0.0, 1.0)


def fractional_anisotropy(a: SpdTensor) -> float:
    """FA of a 3x3 SPD tensor, clipped into [0, 1]."""
    if a.dim != 3:
        raise ValueError(f"fractional anisotropy is defined for dim=3, got dim={a.dim}")
    return float(fa_of_eigenvalues(a.eig.values))


# ---- batched coefficient-array kernels (dim=3) used by the field modules ----

def eigh_coeffs(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (..., 6) coefficient array of 3x3 matrices."""
    return jacobi_eigh(coeffs_to_matrices(coeffs, 3))


def log_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Matrix log on a (..., 6) coefficient array; all matrices must be SPD."""
    vals, vecs = eigh_coeffs(coeffs)
    if vals.size and vals[..., -1].min() <= 0.0:
        raise NotPositiveDefiniteError(
            f"matrix log of a non-SPD element (min eigenvalue {vals[..., -1].min():g})"
        )
    return matrices_to_coeffs(assemble_from_eig(np.log(vals), vecs))


def exp_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Matrix exp on a (..., 6) coefficient array of symmetric matrices."""
    vals, vecs = eigh_coeffs(coeffs)
    if vals.size and vals[..., 0].max() > _MAX_EXP_EIGENVALUE:
        raise OverflowError(
            f"mat_exp overflow: eigenvalue {vals[..., 0].max():g} exceeds "
            f"{_MAX_EXP_EIGENVALUE:g}"
        )
    return matrices_to_coeffs(assemble_from_eig(np.exp(vals), vecs))


def weighted_norm_sq(coeffs: np.ndarray) -> np.ndarray:
    """Squared full-matrix Frobenius norm of a (..., 6) coefficient array."""
    coeffs = np.asarray(coeffs)
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
    """project_full elementwise on (..., 6) coefficients; _certified_feasible ones pass as is."""
    out = np.array(coeffs, dtype=np.float64)
    todo = ~_certified_feasible(out, epsilon, z)
    if todo.any():
        vals, vecs = eigh_coeffs(out[todo])
        logs = np.log(np.maximum(vals, epsilon))
        c = (logs * logs).sum(axis=-1)
        factor = np.where(c > z * z, z / np.sqrt(np.where(c > 0.0, c, 1.0)), 1.0)
        out[todo] = matrices_to_coeffs(assemble_from_eig(np.exp(logs * factor[..., None]), vecs))
    return out


def project_log_coeffs(logcoeffs: np.ndarray, epsilon: float, z: float) -> np.ndarray:
    """Log-domain equivalent of project_full(Exp(L)): returns Log(P(Exp(L))).

    For ||L||_F <= z nothing can violate either constraint (|eigenvalue| <=
    ||L||_F <= z < |log epsilon|), so the common case is a no-op.  A violating
    element with eigenvalues above log(epsilon) is radially rescaled, which
    needs no eigendecomposition; only elements that also cross the epsilon
    floor take the eigenvalue path.
    """
    logcoeffs = np.asarray(logcoeffs, dtype=np.float64)
    log_eps = float(np.log(epsilon))

    def _clamp_then_rescale(sel):
        vals, vecs = eigh_coeffs(sel)
        cl = np.maximum(vals, log_eps)
        c = (cl * cl).sum(axis=-1)
        f = np.where(c > z * z, z / np.sqrt(np.where(c > 0.0, c, 1.0)), 1.0)
        return matrices_to_coeffs(assemble_from_eig(cl * f[..., None], vecs))

    if z > -log_eps:
        # permissive epsilon: even elements inside the ball may cross the floor
        return _clamp_then_rescale(logcoeffs)
    norms = np.sqrt(weighted_norm_sq(logcoeffs))
    over = norms > z
    if not over.any():
        return logcoeffs
    out = logcoeffs.copy()
    sel = logcoeffs[over]
    scaled = sel * (z / norms[over])[..., None]
    deep = norms[over] > -log_eps  # only these can have an eigenvalue below log(eps)
    if deep.any():
        scaled[deep] = _clamp_then_rescale(sel[deep])
    out[over] = scaled
    return out
