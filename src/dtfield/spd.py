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

The scalar SymMat/SpdTensor API and the batched (..., 6) kernels share one
private helper per spectral map on (..., m) eigenvalues: _exp_values and
_log_values (with the overflow and positive-definiteness checks), _clamp (the
floor), _into_ball (the log-ball rescale), _log_norm, _coeffs_from_eig.  The
eigensolver is chosen in _exp_eig for exp (mat_exp, exp_coeffs), in _eig_of
for the other scalar maps and in eigh_coeffs for the other batched ones; all
three call jacobi_eigh.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


_W3 = coeff_weights(3)


@lru_cache(maxsize=None)
def _pair_index(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of the coefficient layout (shared, read-only)."""
    i, j = np.array(coeff_pairs(dim)).T
    i.flags.writeable = j.flags.writeable = False
    return i, j


def coeffs_to_matrices(coeffs: np.ndarray, dim: int = 3) -> np.ndarray:
    """(..., n_coeffs) coefficient array -> (..., dim, dim) symmetric matrices."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    i, j = _pair_index(dim)
    out = np.zeros(coeffs.shape[:-1] + (dim, dim))
    out[..., i, j] = out[..., j, i] = coeffs
    return out


def matrices_to_coeffs(mats: np.ndarray) -> np.ndarray:
    """(..., dim, dim) symmetric matrices -> (..., n_coeffs); averages the halves."""
    mats = np.asarray(mats, dtype=np.float64)
    dim = mats.shape[-1]
    i, j = _pair_index(dim)
    out = np.empty(mats.shape[:-2] + (i.size,))
    out[..., :dim] = mats[..., i[:dim], i[:dim]]
    out[..., dim:] = 0.5 * (mats[..., i[dim:], j[dim:]] + mats[..., j[dim:], i[dim:]])
    return out


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


# ---- spectral maps on (..., m) eigenvalue arrays, shared by both APIs ----

def _coeffs_from_eig(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """(..., n_coeffs) coefficients of V diag(values) V^T."""
    return matrices_to_coeffs(assemble_from_eig(values, vectors))


def _exp_values(vals: np.ndarray) -> np.ndarray:
    """exp of eigenvalues; OverflowError where the result would overflow."""
    if vals.size and vals.max() > _MAX_EXP_EIGENVALUE:
        raise OverflowError(f"mat_exp overflow: eigenvalue {vals.max():g} exceeds "
                            f"{_MAX_EXP_EIGENVALUE:g}")
    return np.exp(vals)


def _log_values(vals: np.ndarray, what: str = "matrix log") -> np.ndarray:
    """log of eigenvalues; NotPositiveDefiniteError unless every one is > 0."""
    if vals.size and vals.min() <= 0.0:
        raise NotPositiveDefiniteError(f"{what} requires a positive definite matrix "
                                       f"(min eigenvalue {vals.min():g})")
    return np.log(vals)


def _clamp(vals: np.ndarray, lo: float, hi: float = np.inf) -> np.ndarray:
    """Eigenvalues clamped into [lo, hi]: the floor of every projection."""
    return np.clip(vals, lo, hi)


def _into_ball(x: np.ndarray, z: float, sq=None) -> np.ndarray:
    """Rows of x with squared norm sq > z^2 (default: sum of squares) rescaled onto norm z."""
    sq = (x * x).sum(axis=-1) if sq is None else sq
    factor = np.where(sq > z * z, z / np.sqrt(np.where(sq > 0.0, sq, 1.0)), 1.0)
    return x * factor[..., None]


def _log_norm(vals: np.ndarray, what: str = "log-norm") -> np.ndarray:
    """||Log||_F from (..., m) eigenvalues, one per row."""
    logs = _log_values(vals, what)
    return np.sqrt((logs * logs).sum(axis=-1))


def _exp_eig(coeffs: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of Exp of (..., n_coeffs) coefficients, for mat_exp and exp_coeffs."""
    vals, vecs = jacobi_eigh(coeffs_to_matrices(coeffs, dim))
    return _exp_values(vals), vecs


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
        if values.ndim != 1 or vectors.shape != (values.size, values.size):
            raise ValueError(f"inconsistent eigenpair shapes {values.shape} / {vectors.shape}")
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
            object.__setattr__(self, "eig", sym_eig(self.mat))
        elif self.eig.values.size != self.dim:
            raise ValueError(f"eigenpair of size {self.eig.values.size} for dim={self.dim}")
        else:
            residual = assemble_from_eig(self.eig.values, self.eig.vectors) - self.mat.matrix
            norm = np.sqrt((self.mat.matrix ** 2).sum())
            if np.abs(residual).max() > 1e-12 * max(1.0, norm):
                raise ValueError("eigendecomposition does not reconstruct the matrix")
        lognorm = float(_log_norm(self.eig.values, "SpdTensor"))
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
    return EigenPair(*_eig_of(m)[:2])


def frobenius(m: SymMat) -> float:
    """Frobenius norm of the full matrix (off-diagonals counted twice)."""
    return float(np.sqrt((coeff_weights(m.dim) * m.coeffs * m.coeffs).sum()))


def _spd_from_eig(values: np.ndarray, vectors: np.ndarray, bound: float, dim: int) -> SpdTensor:
    mat = SymMat(_coeffs_from_eig(values, vectors), dim=dim)
    return SpdTensor(mat, bound, eig=EigenPair(values, vectors))


def mat_exp(s: SymMat) -> SpdTensor:
    """Matrix exponential of a symmetric matrix; certified bound ||s||_F."""
    vals, vecs = _exp_eig(s.coeffs, s.dim)
    return _spd_from_eig(vals, vecs, frobenius(s), s.dim)


def _sym_of(a, symmetrize: bool = False) -> SymMat:
    """SymMat of a SpdTensor, SymMat or raw array (symmetrize: take its symmetric part)."""
    if isinstance(a, SpdTensor):
        return a.mat
    if isinstance(a, SymMat):
        return a
    return SymMat.from_matrix(a, tol=np.inf if symmetrize else 1e-9)


def _eig_of(a, symmetrize: bool = False) -> tuple[np.ndarray, np.ndarray, int]:
    """(values, vectors, dim) of a SpdTensor (cached), SymMat, or raw array."""
    if isinstance(a, SpdTensor):
        return a.eig.values, a.eig.vectors, a.dim
    m = _sym_of(a, symmetrize)
    return (*jacobi_eigh(m.matrix), m.dim)


def mat_log(a) -> SymMat:
    """Matrix logarithm of a strictly positive definite symmetric matrix."""
    vals, vecs, dim = _eig_of(a)
    return SymMat(_coeffs_from_eig(_log_values(vals, "mat_log"), vecs), dim=dim)


def _log_pair(a, b) -> tuple[SymMat, SymMat]:
    la, lb = mat_log(a), mat_log(b)
    if la.dim != lb.dim:
        raise ValueError(f"dimension mismatch: {la.dim} vs {lb.dim}")
    return la, lb


def dist_log_euclidean(a, b) -> float:
    """Log-Euclidean distance ||Log A - Log B||_F."""
    la, lb = _log_pair(a, b)
    return frobenius(SymMat(la.coeffs - lb.coeffs, dim=la.dim))


def dist_affine_invariant(a, b) -> float:
    """Affine-invariant distance ||Log(A^{-1/2} B A^{-1/2})||_F."""
    vals, vecs, dim_a = _eig_of(a)
    mb = _sym_of(b)
    if dim_a != mb.dim:
        raise ValueError(f"dimension mismatch: {dim_a} vs {mb.dim}")
    _log_values(vals, "dist_affine_invariant")  # only the positive-definiteness check
    inv_sqrt = assemble_from_eig(1.0 / np.sqrt(vals), vecs)
    ivals, _, _ = _eig_of(inv_sqrt @ mb.matrix @ inv_sqrt, symmetrize=True)
    return float(_log_norm(ivals, "the dist_affine_invariant congruence"))


def project_spec(a, lo: float, hi: float = np.inf) -> SpdTensor:
    """Symmetrize, then clamp eigenvalues into [lo, hi].

    This is the Frobenius-nearest matrix in the spectrally bounded SPD set:
    the symmetric part is the nearest symmetric matrix, and clamping the
    eigenvalues is the nearest spectrum.
    """
    lo, hi = float(lo), float(hi)
    if not (lo > 0.0):
        raise ValueError(f"lo must be > 0, got {lo}")
    if not (hi >= lo):
        raise ValueError(f"need hi >= lo, got lo={lo}, hi={hi}")
    vals, vecs, dim = _eig_of(a, symmetrize=True)
    clamped = _clamp(vals, lo, hi)
    return _spd_from_eig(clamped, vecs, float(_log_norm(clamped)), dim)


def project_log_ball(a: SpdTensor, z: float) -> SpdTensor:
    """Rescale eigenvalues lambda -> lambda^(z/||Log A||_F) when the log norm exceeds z."""
    z = float(z)
    if not (z > 0.0):
        raise ValueError(f"z must be > 0, got {z}")
    vals, vecs, dim = _eig_of(a)
    logs = _log_values(vals, "project_log_ball")
    c = float((logs * logs).sum())
    if c <= z * z:
        return a if isinstance(a, SpdTensor) else _spd_from_eig(vals, vecs, np.sqrt(c), dim)
    return _spd_from_eig(_exp_values(_into_ball(logs, z, c)), vecs, z, dim)


def project_full(a, epsilon: float = EPSILON_DEFAULT, z: float = LOG_BOUND_DEFAULT) -> SpdTensor:
    """Full projection: eigenvalue floor at epsilon, then log-ball of radius z."""
    return project_log_ball(project_spec(a, epsilon, np.inf), z)


def geodesic(a: SpdTensor, b: SpdTensor, t: float) -> SpdTensor:
    """Log-Euclidean geodesic Exp((1-t) Log A + t Log B); result(0) = A."""
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    la, lb = _log_pair(a, b)
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
    return _coeffs_from_eig(_log_values(vals, "log_coeffs"), vecs)


def exp_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Matrix exp on a (..., 6) coefficient array of symmetric matrices."""
    return _coeffs_from_eig(*_exp_eig(coeffs, 3))


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
    """project_full elementwise on (..., 6) coefficients; _certified_feasible ones pass as is."""
    out = np.array(coeffs, dtype=np.float64)
    todo = ~_certified_feasible(out, epsilon, z)
    if todo.any():
        vals, vecs = eigh_coeffs(out[todo])
        logs = _log_values(_clamp(vals, epsilon))
        out[todo] = _coeffs_from_eig(_exp_values(_into_ball(logs, z)), vecs)
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
        return _coeffs_from_eig(_into_ball(_clamp(vals, log_eps), z), vecs)

    if z > -log_eps:
        # permissive epsilon: even elements inside the ball may cross the floor
        return _clamp_then_rescale(logcoeffs)
    sq = weighted_norm_sq(logcoeffs)
    norms = np.sqrt(sq)
    over = norms > z
    if not over.any():
        return logcoeffs
    out = logcoeffs.copy()
    sel = logcoeffs[over]
    scaled = _into_ball(sel, z, sq[over])
    deep = norms[over] > -log_eps  # only these can have an eigenvalue below log(eps)
    if deep.any():
        scaled[deep] = _clamp_then_rescale(sel[deep])
    out[over] = scaled
    return out
