"""Tests for the symmetric-matrix kernel: eigendecomposition, exp/log,
metrics, projections, geodesics, and fractional anisotropy."""
from __future__ import annotations

import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest

from dtfield import spd
from dtfield.spd import (
    EPSILON_DEFAULT,
    LOG_BOUND_DEFAULT,
    EigenPair,
    NotPositiveDefiniteError,
    SpdTensor,
    SymMat,
    assemble_from_eig,
    coeffs_to_matrices,
    dist_affine_invariant,
    dist_log_euclidean,
    eigh_coeffs,
    exp_coeffs,
    fa_of_eigenvalues,
    frobenius,
    geodesic,
    jacobi_eigh,
    log_coeffs,
    mat_exp,
    mat_log,
    matrices_to_coeffs,
    project_full,
    project_full_coeffs,
    project_log_coeffs,
    weighted_norm_sq,
    _COLS,
    _ROWS,
    _W3,
    _certified_feasible,
)


def random_symmat(rng, scale=1.0):
    return SymMat(rng.standard_normal(6) * scale)


def random_spd(rng, log_scale=1.0):
    return mat_exp(random_symmat(rng, scale=log_scale))


def spd_in_log_ball(rng, z):
    """Random SPD tensor with ||Log||_F exactly uniform in (0, z]."""
    s = random_symmat(rng)
    target = rng.uniform(0.05, 1.0) * z
    return mat_exp(SymMat(s.coeffs * (target / frobenius(s))))


# ---- coefficient layout ----

def test_coeff_layout_dim3():
    assert list(zip(_ROWS.tolist(), _COLS.tolist())) == [
        (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    assert _W3.tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    for constant in (_ROWS, _COLS, _W3):
        assert not constant.flags.writeable


def test_coeffs_matrix_roundtrip_batched():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((4, 5, 6))
    m = coeffs_to_matrices(c, 3)
    assert m.shape == (4, 5, 3, 3)
    assert np.array_equal(m, np.swapaxes(m, -1, -2))
    assert np.array_equal(matrices_to_coeffs(m), c)
    # off-diagonal halves are averaged
    asym = np.array([[1.0, 2.0, 0.0], [4.0, 5.0, 0.0], [0.0, 0.0, 6.0]])
    c2 = matrices_to_coeffs(asym)
    assert c2[3] == 3.0
    # elementwise loop reference; C-contiguous coefficients keep downstream
    # reductions (weighted_norm_sq) bit-reproducible
    c = rng.standard_normal((2, 3, 6))
    mats = rng.standard_normal((2, 3, 3, 3))
    ref_m = np.zeros((2, 3, 3, 3))
    ref_c = np.zeros((2, 3, 6))
    for k, (i, j) in enumerate([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]):
        ref_m[..., i, j] = ref_m[..., j, i] = c[..., k]
        ref_c[..., k] = mats[..., i, i] if i == j else 0.5 * (mats[..., i, j] + mats[..., j, i])
    assert np.array_equal(coeffs_to_matrices(c), ref_m)
    assert np.array_equal(matrices_to_coeffs(mats), ref_c)
    assert matrices_to_coeffs(mats).flags.c_contiguous


def test_layout_rejects_other_sizes():
    with pytest.raises(ValueError, match="3x3"):
        coeffs_to_matrices(np.zeros(3), 2)
    for shape in ((2, 2), (4, 4), (5, 3, 2)):
        with pytest.raises(ValueError, match=r"\(\.\.\., 3, 3\)"):
            matrices_to_coeffs(np.zeros(shape))
        with pytest.raises(ValueError, match=r"\(\.\.\., 3, 3\)"):
            jacobi_eigh(np.zeros(shape))


def test_weighted_norm_sq_is_independent_of_memory_layout():
    c = np.random.default_rng(1).standard_normal((64, 64, 6))
    expected = weighted_norm_sq(c)
    fortran = np.asfortranarray(c)
    transposed = np.ascontiguousarray(c.transpose(2, 1, 0)).transpose(2, 1, 0)
    for layout in (fortran, transposed):
        assert not layout.flags.c_contiguous
        assert np.array_equal(weighted_norm_sq(layout), expected)


def test_symmat_validation():
    for n in (3, 5, 10):
        with pytest.raises(ValueError, match="expected 6 coefficients"):
            SymMat(np.ones(n))
    with pytest.raises(ValueError):
        SymMat(np.array([1.0, 2, 3, np.nan, 0, 0]))
    with pytest.raises(ValueError, match="not symmetric"):
        SymMat.from_matrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="3x3"):
        SymMat.from_matrix(np.eye(2))
    m = SymMat(np.arange(6, dtype=float))
    with pytest.raises(ValueError):
        m.coeffs[0] = 99.0  # frozen storage


# ---- eigendecomposition ----

def test_sym_eig_diagonal_matrix():
    e = EigenPair(*eigh_coeffs(np.array([3.0, 2.0, 1.0, 0.0, 0.0, 0.0])))
    assert np.array_equal(e.values, [3.0, 2.0, 1.0])
    assert np.allclose(np.abs(e.vectors), np.eye(3), atol=1e-15)


def test_sym_eig_2x2_exchange():
    # the 2x2 exchange block of a 3x3 matrix: one rotation by pi/4
    values, vectors = jacobi_eigh(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert np.allclose(values, [1.0, 0.0, -1.0], atol=1e-15)
    h = np.sqrt(0.5)
    assert np.allclose(vectors, [[h, 0.0, h], [h, 0.0, -h], [0.0, 1.0, 0.0]], atol=1e-15)


def test_sym_eig_is_eigh_coeffs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        c = rng.standard_normal(6) * np.exp(rng.uniform(-5, 5))
        e = EigenPair(*eigh_coeffs(SymMat(c).coeffs))
        values, vectors = eigh_coeffs(c)
        assert np.array_equal(e.values, values) and np.array_equal(e.vectors, vectors)


def test_sym_eig_reconstruction_and_orthogonality():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = random_symmat(rng, scale=float(np.exp(rng.uniform(-3, 3))))
        e = EigenPair(*eigh_coeffs(m.coeffs))
        assert np.all(np.diff(e.values) <= 0)
        resid = assemble_from_eig(e.values, e.vectors) - m.matrix
        norm = np.sqrt((m.matrix ** 2).sum())
        assert np.abs(resid).max() <= 1e-12 * max(1.0, norm)
        assert np.abs(e.vectors.T @ e.vectors - np.eye(3)).max() < 1e-13


def test_sym_eig_deterministic():
    rng = np.random.default_rng(2)
    m = random_symmat(rng)
    e1 = EigenPair(*eigh_coeffs(m.coeffs))
    e2 = EigenPair(*eigh_coeffs(m.coeffs))
    assert np.array_equal(e1.values, e2.values)
    assert np.array_equal(e1.vectors, e2.vectors)


def test_jacobi_rejects_nonfinite():
    bad = np.eye(3)
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        jacobi_eigh(bad)


def test_jacobi_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(spd, "_JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge in 1 sweeps"):
        jacobi_eigh(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]))
    vals, _ = jacobi_eigh(np.diag([1.0, 3.0, 2.0]))  # converged before the first sweep
    assert vals.tolist() == [3.0, 2.0, 1.0]


def test_jacobi_gate_does_not_overflow_on_large_diagonals():
    # sqrt(|a_pp a_qq|) overflowed above ~1.3e154: no rotation ran, and the
    # diagonal came back as the eigenvalues
    mat = np.array([[1e200, 2e200, 0.0], [2e200, 1e200, 0.0], [0.0, 0.0, 1.0]])
    vals, vecs = jacobi_eigh(mat)
    np.testing.assert_allclose(vals, [3e200, 1.0, -1e200], rtol=1e-15)
    h = np.sqrt(0.5)
    np.testing.assert_allclose(vecs, [[h, 0.0, h], [h, 0.0, -h], [0.0, 1.0, 0.0]], atol=1e-15)


def eigh_digest_families():
    """Seeded 3x3 coefficient families built with exact float operations only."""
    rng = np.random.default_rng(20)
    n = 400
    random = rng.standard_normal((n, 6))
    # graded: D S D with D = diag(2^k), exact power-of-two scalings of an SPD S
    s = rng.standard_normal((n, 6))
    s[:, :3] = np.abs(s[:, :3]) + 3.0
    d = np.ldexp(1.0, rng.integers(-18, 19, size=(n, 3)))
    graded = s * np.concatenate([d * d, d[:, [0]] * d[:, [1]], d[:, [0]] * d[:, [2]],
                                 d[:, [1]] * d[:, [2]]], axis=1)
    diagonal = np.concatenate([rng.standard_normal((n, 3)), np.zeros((n, 3))], axis=1)
    tiny_off = np.concatenate([np.abs(rng.standard_normal((n, 3))) + 0.1,
                               1e-300 * rng.standard_normal((n, 3))], axis=1)
    scaled = np.concatenate([1e150 * rng.standard_normal((n // 2, 6)),
                             1e-150 * rng.standard_normal((n // 2, 6))])
    # equal diagonal entries and negative off-diagonal ones: theta = -0.0
    ties = np.concatenate([np.repeat(rng.standard_normal((n, 1)), 3, axis=1),
                           -np.abs(rng.standard_normal((n, 3)))], axis=1)
    fixed = np.array([np.zeros(6), [1.0, 1, 1, 0, 0, 0], [0.0, 0, 0, 1, 0, 0],
                      [2.0, 2, 2, 1, 1, 1], [1.0, 1, 1, -1, -1, -1]])
    return np.concatenate([random, graded, diagonal, tiny_off, scaled, ties, fixed])


def test_eigh_coeffs_bits_are_pinned():
    # sha256 of the eigensolver's output bytes, batched and one matrix at a
    # time; a change of any bit of any value or vector changes it
    c = eigh_digest_families()
    digest = hashlib.sha256()
    for batch in [c] + list(c[::7]):
        vals, vecs = eigh_coeffs(batch)
        digest.update(vals.tobytes())
        digest.update(vecs.tobytes())
    assert digest.hexdigest() == (
        "6f948e2e39451447fede9cd4a8503ca1d90417817aeca2fd7b1489e1bda683f6")


def test_jacobi_batched_matches_scalar():
    rng = np.random.default_rng(3)
    c = rng.standard_normal((64, 6))
    vals, vecs = eigh_coeffs(c)
    for i in range(0, 64, 7):
        vi, ui = jacobi_eigh(coeffs_to_matrices(c[i], 3))
        assert np.array_equal(vals[i], vi)
        assert np.array_equal(vecs[i], ui)


def test_jacobi_graded_spd_relative_accuracy():
    # heavily graded SPD matrix: the tiny eigenvalue must keep high RELATIVE
    # accuracy.  Oracle: the eigenvalue product must equal the determinant,
    # computed exactly in rational arithmetic from the stored float entries.
    from fractions import Fraction

    mat = np.array([
        [1e8, 1e3, 0.0],
        [1e3, 1.0, 1e-4],
        [0.0, 1e-4, 1e-6],
    ])
    f = [[Fraction(x) for x in row] for row in mat]
    det = (
        f[0][0] * (f[1][1] * f[2][2] - f[1][2] * f[2][1])
        - f[0][1] * (f[1][0] * f[2][2] - f[1][2] * f[2][0])
        + f[0][2] * (f[1][0] * f[2][1] - f[1][1] * f[2][0])
    )
    vals, vecs = jacobi_eigh(mat)
    assert vals[2] > 0
    product = Fraction(vals[0]) * Fraction(vals[1]) * Fraction(vals[2])
    assert abs(float(product / det) - 1.0) < 1e-12
    resid = assemble_from_eig(vals, vecs) - mat
    assert np.abs(resid).max() <= 1e-13 * np.abs(mat).max()


# ---- exp and log ----

def test_mat_exp_zero_and_diagonal():
    z = mat_exp(SymMat(np.zeros(6)))
    assert np.allclose(z.matrix, np.eye(3), atol=1e-15)
    d = mat_exp(SymMat(np.array([1.0, 0, 0, 0, 0, 0])))
    assert np.allclose(np.diag(d.matrix), [np.e, 1.0, 1.0], rtol=1e-15)


def test_mat_exp_bound_is_input_norm():
    rng = np.random.default_rng(5)
    s = random_symmat(rng)
    assert mat_exp(s).certified_log_bound == frobenius(s)


def test_mat_exp_overflow():
    with pytest.raises(OverflowError):
        mat_exp(SymMat(np.array([710.0, 0, 0, 0, 0, 0])))


def test_mat_log_identity_and_diagonal():
    ident = project_full(np.eye(3))
    assert np.abs(mat_log(ident).coeffs).max() < 1e-15
    a = mat_exp(SymMat(np.array([2.0, 1.0, 0.0, 0, 0, 0])))
    back = mat_log(a)
    assert np.allclose(back.coeffs, [2.0, 1.0, 0.0, 0, 0, 0], atol=1e-14)


def test_mat_log_requires_positive_definite():
    with pytest.raises(NotPositiveDefiniteError):
        mat_log(np.diag([1.0, -1.0, 2.0]))


def test_exp_log_roundtrip_full_domain():
    # inverse pair on the whole certified domain ||S||_F <= 36
    rng = np.random.default_rng(6)
    for _ in range(300):
        s = random_symmat(rng)
        s = SymMat(s.coeffs * (rng.uniform(1e-3, 36.0) / frobenius(s)))
        back = mat_log(mat_exp(s))
        scale = max(1.0, np.abs(s.coeffs).max())
        assert np.abs(back.coeffs - s.coeffs).max() <= 1e-10 * scale


def test_log_exp_roundtrip_full_domain():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = spd_in_log_ball(rng, 36.0)
        again = mat_exp(mat_log(a))
        scale = max(1.0, np.abs(a.mat.coeffs).max())
        assert np.abs(again.mat.coeffs - a.mat.coeffs).max() <= 1e-10 * scale


def test_log_norm_inside_stated_ball():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = spd_in_log_ball(rng, 3.0)
        assert frobenius(mat_log(a)) <= 3.0 + 1e-9


# ---- frobenius ----

def test_frobenius_values():
    assert frobenius(SymMat(np.zeros(6))) == 0.0
    ident = SymMat(np.array([1.0, 1, 1, 0, 0, 0]))
    assert abs(frobenius(ident) - np.sqrt(3.0)) < 1e-15
    # off-diagonals count twice
    m = SymMat(np.array([0.0, 0, 0, 1.0, 0, 0]))
    assert abs(frobenius(m) - np.sqrt(2.0)) < 1e-15


def test_frobenius_unitary_invariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = random_symmat(rng)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = u @ m.matrix @ v.T
        direct = np.sqrt((rotated ** 2).sum())
        assert abs(direct - frobenius(m)) <= 1e-12 * max(1.0, frobenius(m))


# ---- metrics ----

def test_dist_le_basics():
    rng = np.random.default_rng(10)
    a = random_spd(rng)
    assert dist_log_euclidean(a, a) == 0.0
    e11 = mat_exp(SymMat(np.array([1.0, 0, 0, 0, 0, 0])))
    ident = project_full(np.eye(3))
    assert abs(dist_log_euclidean(e11, ident) - 1.0) < 1e-12


def test_dist_le_scale_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_spd(rng)
        b = random_spd(rng)
        c = 7.0
        ca = SpdTensor(SymMat(a.mat.coeffs * c), a.certified_log_bound + np.sqrt(3) * np.log(c))
        cb = SpdTensor(SymMat(b.mat.coeffs * c), b.certified_log_bound + np.sqrt(3) * np.log(c))
        assert abs(dist_log_euclidean(ca, cb) - dist_log_euclidean(a, b)) < 1e-9


def test_dist_le_inversion_invariance():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = random_spd(rng)
        b = random_spd(rng)
        ia = project_full(np.linalg.inv(a.matrix))
        ib = project_full(np.linalg.inv(b.matrix))
        assert abs(dist_log_euclidean(ia, ib) - dist_log_euclidean(a, b)) < 1e-9


def test_dist_le_unitary_congruence_invariance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_spd(rng)
        b = random_spd(rng)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        ua = project_full(u @ a.matrix @ u.T)
        ub = project_full(u @ b.matrix @ u.T)
        assert abs(dist_log_euclidean(ua, ub) - dist_log_euclidean(a, b)) < 1e-9


def test_dist_le_metric_axioms():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a = random_spd(rng)
        b = random_spd(rng)
        c = random_spd(rng)
        dab = dist_log_euclidean(a, b)
        assert dab == dist_log_euclidean(b, a)
        assert dab > 0.0
        assert dist_log_euclidean(a, c) <= dab + dist_log_euclidean(b, c) + 1e-9
        assert dist_log_euclidean(a, a) == 0.0


def test_dist_le_bilipschitz_vs_euclidean():
    # Log is bi-Lipschitz on the log-norm ball with constant e^z:
    # (1/e^z)||A-B||_F <= d_LE(A,B) <= e^z ||A-B||_F
    rng = np.random.default_rng(15)
    z = 3.0
    ez = np.exp(z)
    for _ in range(200):
        a = spd_in_log_ball(rng, z)
        b = spd_in_log_ball(rng, z)
        diff = a.matrix - b.matrix
        frob = np.sqrt((diff ** 2).sum())
        d = dist_log_euclidean(a, b)
        assert frob / ez <= d + 1e-9
        assert d <= ez * frob + 1e-9
        # equivalently on squared norms with constant e^(2z)
        assert frob ** 2 / ez ** 2 <= d ** 2 + 1e-9
        assert d ** 2 <= ez ** 2 * frob ** 2 + 1e-9


def test_dist_ai_basics():
    rng = np.random.default_rng(16)
    a = random_spd(rng)
    assert dist_affine_invariant(a, a) < 1e-12
    e11 = mat_exp(SymMat(np.array([1.0, 0, 0, 0, 0, 0])))
    ident = project_full(np.eye(3))
    assert abs(dist_affine_invariant(e11, ident) - 1.0) < 1e-12


def test_dist_ai_congruence_invariance():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_spd(rng, log_scale=0.7)
        b = random_spd(rng, log_scale=0.7)
        m = rng.standard_normal((3, 3))
        while abs(np.linalg.det(m)) < 0.3:
            m = rng.standard_normal((3, 3))
        ta = SpdTensor(SymMat.from_matrix(m.T @ a.matrix @ m, tol=1e-12), 200.0)
        tb = SpdTensor(SymMat.from_matrix(m.T @ b.matrix @ m, tol=1e-12), 200.0)
        assert abs(dist_affine_invariant(ta, tb) - dist_affine_invariant(a, b)) < 1e-8


def test_dist_ai_symmetry():
    rng = np.random.default_rng(18)
    for _ in range(20):
        a = random_spd(rng)
        b = random_spd(rng)
        assert abs(dist_affine_invariant(a, b) - dist_affine_invariant(b, a)) < 1e-10


# ---- projections ----

@pytest.mark.parametrize("call,message", [
    (lambda: SymMat.from_matrix(np.diag([1.0, np.nan, 1.0])), "non-finite entries"),
    (lambda: SymMat.from_matrix(np.diag([1.0, 1.0, np.inf])), "non-finite entries"),
], ids=["from-matrix-nan", "from-matrix-inf"])
def test_scalar_api_rejects_malformed_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_project_full_analytic_diagonal():
    a = SpdTensor(SymMat(np.array([np.exp(40.0), 1.0, 1.0, 0, 0, 0])), 40.0)
    p = project_full(a, EPSILON_DEFAULT, 36.0)
    assert abs(p.matrix[0, 0] - np.exp(36.0)) / np.exp(36.0) < 1e-12
    assert np.allclose(np.diag(p.matrix)[1:], 1.0, atol=1e-12)


def test_project_full_lands_on_sphere():
    rng = np.random.default_rng(21)
    for _ in range(50):
        s = random_symmat(rng)
        s = SymMat(s.coeffs * (rng.uniform(37.0, 80.0) / frobenius(s)))
        a = mat_exp(s)
        p = project_full(a, EPSILON_DEFAULT, 36.0)
        assert abs(frobenius(mat_log(p)) - 36.0) < 1e-9
        again = project_full(p, EPSILON_DEFAULT, 36.0)
        assert np.abs(again.matrix - p.matrix).max() <= 1e-12 * np.abs(p.matrix).max()


def test_project_full_identity_unchanged():
    p = project_full(np.eye(3))
    assert np.allclose(p.matrix, np.eye(3), rtol=1e-14)


def test_project_full_zero_matrix_seed_value():
    p = project_full(np.zeros((3, 3)))
    expected = np.exp(-LOG_BOUND_DEFAULT / np.sqrt(3.0))  # e^{-20.78...}
    assert np.allclose(np.diag(p.matrix), expected, rtol=1e-12)
    assert np.abs(p.matrix - np.diag(np.diag(p.matrix))).max() < 1e-25
    assert abs(frobenius(mat_log(p)) - 36.0) < 1e-9


FLOORED = {  # a full projection of a small tensor, as coefficients
    "project_full_coeffs": lambda e, z: project_full_coeffs([1e-3] * 3 + [0.0] * 3, e, z),
    "project_full": lambda e, z: project_full(np.diag([1e-3] * 3), e, z).mat.coeffs,
    "project_log_coeffs": lambda e, z: exp_coeffs(project_log_coeffs(np.zeros(6), e, z)),
}


@pytest.mark.parametrize("kernel", sorted(FLOORED))
def test_full_projections_reject_floor_outside_log_ball(kernel):
    # a floor above e^(z/sqrt 3) forces ||Log||_F >= sqrt(3) log(epsilon) > z;
    # these calls used to return eigenvalues 1.063e9 below the floor 1e10
    with pytest.raises(ValueError, match="^epsilon = 1e\\+10 leaves no feasible tensor"):
        FLOORED[kernel](1e10, 36.0)
    # a huge ball holds the floor, and its test must not overflow
    vals, _ = eigh_coeffs(FLOORED[kernel](1e10, 1e308))
    assert vals.min() >= 1e10 * (1.0 - 1e-12)


def test_project_full_rejects_non_positive_epsilon_and_z():
    for epsilon, z in ((0.0, 36.0), (-1.0, 36.0), (1e-3, 0.0), (1e-3, -2.0)):
        with pytest.raises(ValueError, match="epsilon and z must be > 0"):
            project_full(np.eye(3), epsilon, z)


def test_project_full_idempotent():
    rng = np.random.default_rng(22)
    for _ in range(50):
        m = random_symmat(rng, scale=float(np.exp(rng.uniform(-2, 4)))).matrix
        p1 = project_full(m)
        p2 = project_full(p1)
        assert np.abs(p2.matrix - p1.matrix).max() <= 1e-12 * max(1.0, np.abs(p1.matrix).max())


def test_spd_tensor_eigenvalue_corollary():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a = spd_in_log_ball(rng, 5.0)
        z = a.certified_log_bound
        vals = np.array(sorted(np.linalg.eigvalsh(a.matrix)))
        assert vals[0] >= np.exp(-z) * (1 - 1e-9)
        assert vals[-1] <= np.exp(z) * (1 + 1e-9)


def test_spd_tensor_rejects_bad_certificates():
    with pytest.raises(NotPositiveDefiniteError):
        SpdTensor(SymMat(np.array([1.0, -1.0, 1.0, 0, 0, 0])), 10.0)
    with pytest.raises(ValueError):
        SpdTensor(SymMat(np.array([np.e ** 2, 1.0, 1.0, 0, 0, 0])), 1.0)
    with pytest.raises(ValueError):
        SpdTensor(SymMat(np.array([1.0, 1, 1, 0, 0, 0])), -1.0)
    with pytest.raises(ValueError):
        SpdTensor(
            SymMat(np.array([2.0, 1, 1, 0, 0, 0])),
            5.0,
            eig=EigenPair(np.array([4.0, 1.0, 1.0]), np.eye(3)),
        )
    with pytest.raises(ValueError, match="eigenpair shapes"):
        EigenPair(np.array(1.0), np.eye(1))
    with pytest.raises(ValueError, match="eigenpair shapes"):
        SpdTensor(SymMat(np.array([2.0, 1, 1, 0, 0, 0])), 5.0,
                  eig=EigenPair(np.array([2.0, 1.0]), np.eye(2)))


# ---- geodesics ----

def test_geodesic_endpoints():
    rng = np.random.default_rng(24)
    for _ in range(20):
        a = random_spd(rng)
        b = random_spd(rng)
        g0 = geodesic(a, b, 0.0)
        g1 = geodesic(a, b, 1.0)
        assert np.abs(g0.matrix - a.matrix).max() <= 1e-10 * max(1.0, np.abs(a.matrix).max())
        assert np.abs(g1.matrix - b.matrix).max() <= 1e-10 * max(1.0, np.abs(b.matrix).max())


def test_geodesic_diagonal_midpoint():
    ident = project_full(np.eye(3))
    b = mat_exp(SymMat(np.array([2.0, 0, 0, 0, 0, 0])))
    mid = geodesic(ident, b, 0.5)
    assert np.allclose(np.diag(mid.matrix), [np.e, 1.0, 1.0], rtol=1e-12)


def test_geodesic_stays_in_log_ball():
    rng = np.random.default_rng(25)
    for _ in range(50):
        a = spd_in_log_ball(rng, 36.0)
        b = spd_in_log_ball(rng, 36.0)
        t = rng.uniform(0.0, 1.0)
        g = geodesic(a, b, t)
        assert frobenius(mat_log(g)) <= 36.0 + 1e-9


def test_geodesic_rejects_t_outside_unit_interval():
    rng = np.random.default_rng(26)
    a = random_spd(rng)
    b = random_spd(rng)
    with pytest.raises(ValueError):
        geodesic(a, b, -0.1)
    with pytest.raises(ValueError):
        geodesic(a, b, 1.1)


def test_geodesic_interpolates_distance():
    rng = np.random.default_rng(27)
    a = random_spd(rng)
    b = random_spd(rng)
    d = dist_log_euclidean(a, b)
    mid = geodesic(a, b, 0.5)
    assert abs(dist_log_euclidean(a, mid) - 0.5 * d) < 1e-10
    assert abs(dist_log_euclidean(mid, b) - 0.5 * d) < 1e-10


# ---- fractional anisotropy ----

def test_fa_isotropic_is_zero():
    for c in (1.0, 2.0, 1e-3):
        a = project_full(np.eye(3) * c)
        assert fa_of_eigenvalues(a.eig.values) < 1e-12


def test_fa_needle_limit_approaches_one():
    a = project_full(np.diag([1.0, 1e-6, 1e-6]))
    assert fa_of_eigenvalues(a.eig.values) > 1.0 - 3e-6


def test_fa_two_one_one():
    a = project_full(np.diag([2.0, 1.0, 1.0]))
    assert abs(fa_of_eigenvalues(a.eig.values) - np.sqrt(1.0 / 6.0)) < 1e-12


def test_fa_rotation_invariant():
    rng = np.random.default_rng(28)
    lam = np.array([3.0, 2.0, 0.5])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = project_full(np.diag(lam))
    b = project_full((q * lam) @ q.T)
    assert abs(fa_of_eigenvalues(a.eig.values) - fa_of_eigenvalues(b.eig.values)) < 1e-10


# ---- batched coefficient kernels ----

def test_batched_exp_log_roundtrip_moderate_norms():
    rng = np.random.default_rng(29)
    c = rng.standard_normal((500, 6))
    norms = np.sqrt(weighted_norm_sq(c))
    c = c * (rng.uniform(0.1, 10.0, 500) / norms)[:, None]
    back = log_coeffs(exp_coeffs(c))
    assert np.abs(back - c).max() <= 1e-9 * max(1.0, np.abs(c).max())


def test_batched_log_rejects_non_spd():
    c = np.zeros((2, 6))
    c[:, :3] = [1.0, 1.0, 1.0]
    c[1, 0] = -1.0
    with pytest.raises(NotPositiveDefiniteError):
        log_coeffs(c)


def test_batched_exp_overflow():
    c = np.zeros((1, 6))
    c[0, 0] = 800.0
    with pytest.raises(OverflowError):
        exp_coeffs(c)


def graded_log_spectra(rng, n, z=LOG_BOUND_DEFAULT, reach=1.0):
    """(n, 3) log-spectra with norms spread over (0, reach * z]: random
    directions, so exp(spectrum) is graded by up to e^(sqrt 2 reach z)."""
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d * (reach * z * rng.uniform(0.0, 1.0, (n, 1)) ** 0.5)


@pytest.mark.parametrize("kernel", ["exp", "log", "project_full"])
def test_batched_kernels_match_scalar(kernel):
    rng = np.random.default_rng(30)
    spectra = graded_log_spectra(rng, 80)
    logs = rotated(rng, spectra)
    tol = 0.0  # exp and log share every step, so they agree bit for bit
    if kernel == "exp":
        batched, scalar = exp_coeffs(logs), [mat_exp(SymMat(c)).mat.coeffs for c in logs]
    elif kernel == "log":
        # reassembled float64 coefficients keep the smallest eigenvalue
        # positive only while the spectrum spans less than about e^25
        spd = exp_coeffs(logs[np.ptp(spectra, axis=1) <= 25.0])
        batched, scalar = log_coeffs(spd), [mat_log(SymMat(c)).coeffs for c in spd]
    else:
        # indefinite and beyond the ball, plus unstructured input; certified
        # pixels pass the batched path unchanged, so agreement is to rounding
        signs = np.where(rng.uniform(size=(60, 3)) < 0.3, -1.0, 1.0)
        raw = np.concatenate([
            rotated(rng, signs * np.exp(graded_log_spectra(rng, 60, reach=1.5))),
            rng.standard_normal((40, 6)) * 25.0])
        batched = project_full_coeffs(raw, EPSILON_DEFAULT, LOG_BOUND_DEFAULT)
        scalar = np.array([project_full(coeffs_to_matrices(c, 3)).mat.coeffs for c in raw])
        # both paths run the same steps on every element the certificate
        # cannot prove feasible, so there they agree bit for bit
        certified = _certified_feasible(raw, EPSILON_DEFAULT, LOG_BOUND_DEFAULT)
        assert certified.any() and (~certified).any()
        assert np.array_equal(batched[~certified], scalar[~certified])
        tol = 1e-14
    scalar = np.array(scalar)
    scale = np.maximum(1.0, np.abs(scalar).max(axis=1))
    assert (np.abs(batched - scalar).max(axis=1) <= tol * scale).all()


def rotated(rng, eigenvalues):
    """(n, 6) coefficients of Q diag(eigenvalues) Q^T for random rotations Q."""
    q, r = np.linalg.qr(rng.standard_normal((len(eigenvalues), 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return matrices_to_coeffs(assemble_from_eig(eigenvalues, q))


def certificate_cases(rng, epsilon, z, n=20_000):
    """Random 3x3 symmetric matrices across scales, gradings, signs and the
    edges of the box [max(epsilon, e^(-z/sqrt 3)), e^(z/sqrt 3)]."""
    t = z / np.sqrt(3.0)
    scale = np.exp(rng.uniform(-z, z, (n, 1)))
    graded = scale * np.exp(-rng.uniform(0.0, 2.0 * t, (n, 3)))
    # one eigenvalue just inside or just outside an edge, the others inside;
    # rotated, and unrotated where the rounding allowance is smallest
    edges = np.exp(rng.uniform(-t, t, (n, 3)))
    upper = rng.integers(0, 2, n) == 1
    rel = rng.choice([-1e-6, -1e-9, -1e-13, 1e-13, 1e-9, 1e-6], n)
    lo = max(epsilon, np.exp(-t))
    edges[:, 0] = np.where(upper, np.exp(t) * (1.0 - rel), lo * (1.0 + rel))
    signs = np.where(rng.uniform(size=(n, 3)) < 0.3, -1.0, 1.0)
    indefinite = np.exp(rng.uniform(-t, t, (n, 3))) * signs
    general = rng.standard_normal((n, 6)) * np.exp(rng.uniform(-t, t, (n, 1)))
    return np.concatenate([rotated(rng, graded), rotated(rng, edges), edges @ np.eye(3, 6),
                           rotated(rng, indefinite), general])


def exactly_in_box(coeffs, lo, hi):
    """lo <= every eigenvalue <= hi, decided in rational arithmetic: A - lo I
    and hi I - A must have no negative principal minor."""
    a = [[Fraction(float(v)) for v in row] for row in coeffs_to_matrices(coeffs)]
    for sign, shift in ((1, Fraction(float(lo))), (-1, -Fraction(float(hi)))):
        m = [[sign * a[i][j] - (shift if i == j else 0) for j in range(3)] for i in range(3)]
        minors = [m[i][i] for i in range(3)]
        minors += [m[i][i] * m[j][j] - m[i][j] ** 2 for i, j in ((0, 1), (0, 2), (1, 2))]
        minors.append(m[0][0] * (m[1][1] * m[2][2] - m[1][2] ** 2)
                      - m[0][1] * (m[0][1] * m[2][2] - m[0][2] * m[1][2])
                      + m[0][2] * (m[0][1] * m[1][2] - m[0][2] * m[1][1]))
        if min(minors) < 0:
            return False
    return True


@pytest.mark.parametrize("epsilon,z", [
    (EPSILON_DEFAULT, 36.0), (EPSILON_DEFAULT, 2.0), (1e-3, 36.0), (0.5, 2.0),
])
def test_feasibility_certificate_is_sound(epsilon, z):
    # epsilon 1e-3 and 0.5 lie above e^(-z/sqrt 3), so the floor is the lower edge
    rng = np.random.default_rng(round(z * 1000 - np.log(epsilon)))
    coeffs = certificate_cases(rng, epsilon, z)
    lo, hi = max(epsilon, np.exp(-z / np.sqrt(3.0))), np.exp(z / np.sqrt(3.0))
    certified = _certified_feasible(coeffs, epsilon, z)
    assert certified.sum() > 500 and not certified.all()
    vals = np.linalg.eigvalsh(coeffs_to_matrices(coeffs[certified]))
    # eigvalsh errs by a few ulps of the largest eigenvalue
    slack = 8 * np.finfo(float).eps * np.abs(vals).max(axis=-1)
    assert np.all(vals[:, 0] >= lo - slack) and np.all(vals[:, -1] <= hi + slack)
    near = (vals[:, 0] < lo + slack) | (vals[:, -1] > hi - slack)
    assert all(exactly_in_box(c, lo, hi) for c in coeffs[certified][near])


def test_projection_skips_only_certified_pixels():
    rng = np.random.default_rng(33)
    epsilon, z = EPSILON_DEFAULT, 2.0
    coeffs = certificate_cases(rng, epsilon, z, n=2000)
    rng.shuffle(coeffs)
    certified = _certified_feasible(coeffs, epsilon, z)
    assert certified.any() and not certified.all()
    out = project_full_coeffs(coeffs, epsilon, z)
    assert np.array_equal(out[certified], coeffs[certified])
    # the rest: clamp at epsilon, then rescale the log spectrum into the ball
    rest = coeffs[~certified]
    vals, vecs = np.linalg.eigh(coeffs_to_matrices(rest))
    logs = np.log(np.maximum(vals, epsilon))
    norms = np.sqrt((logs * logs).sum(axis=-1))
    logs *= np.minimum(1.0, z / norms)[:, None]
    expect = matrices_to_coeffs(assemble_from_eig(np.exp(logs), vecs))
    scale = np.abs(expect).max(axis=-1, keepdims=True)
    assert np.all(np.abs(out[~certified] - expect) <= 1e-9 * scale)


def test_log_domain_projection_ball_and_identity():
    rng = np.random.default_rng(31)
    logs = rng.standard_normal((200, 6))
    norms = np.sqrt(weighted_norm_sq(logs))
    logs = logs * (rng.uniform(0.5, 60.0, 200) / norms)[:, None]
    projected = project_log_coeffs(logs, EPSILON_DEFAULT, 36.0)
    # inside the ball: untouched
    inside = np.sqrt(weighted_norm_sq(logs)) <= 36.0
    assert np.array_equal(projected[inside], logs[inside])
    # all results inside the ball
    assert np.sqrt(weighted_norm_sq(projected)).max() <= 36.0 * (1 + 1e-12)


def test_log_domain_projection_matches_matrix_domain():
    # dual route at a radius where exp() keeps every eigenvalue faithful:
    # log norm <= 10 means eigenvalue spread <= e^14, well within float64
    rng = np.random.default_rng(32)
    logs = rng.standard_normal((200, 6))
    norms = np.sqrt(weighted_norm_sq(logs))
    logs = logs * (rng.uniform(0.5, 10.0, 200) / norms)[:, None]
    z = 4.0
    projected = project_log_coeffs(logs, EPSILON_DEFAULT, z)
    direct = log_coeffs(project_full_coeffs(exp_coeffs(logs), EPSILON_DEFAULT, z))
    assert np.abs(projected - direct).max() < 1e-9
    assert (np.sqrt(weighted_norm_sq(logs)) > z).any()  # the check did real work


def test_log_domain_projection_permissive_epsilon():
    # -log(epsilon) < z: the floor binds first.  Elements within both bounds
    # come back bit-identical; the rest match an eigendecomposition reference
    rng = np.random.default_rng(33)
    epsilon, z = 1e-3, 36.0
    log_eps = np.log(epsilon)
    logs = rng.standard_normal((300, 6))
    norms = np.sqrt(weighted_norm_sq(logs))
    logs = logs * (rng.uniform(0.5, 45.0, 300) / norms)[:, None]
    projected = project_log_coeffs(logs, epsilon, z)
    inside = np.sqrt(weighted_norm_sq(logs)) <= -log_eps
    assert inside.any() and (~inside).any()
    assert np.array_equal(projected[inside], logs[inside])
    vals, vecs = np.linalg.eigh(coeffs_to_matrices(logs[~inside], 3))
    vals = np.maximum(vals, log_eps)
    vnorm = np.sqrt((vals ** 2).sum(axis=-1, keepdims=True))
    vals = np.where(vnorm > z, vals * (z / vnorm), vals)
    expect = matrices_to_coeffs(np.einsum("nij,nj,nkj->nik", vecs, vals, vecs))
    assert np.abs(projected[~inside] - expect).max() < 1e-12 * z
    floor = np.linalg.eigvalsh(coeffs_to_matrices(projected, 3)).min()
    assert floor >= log_eps - 1e-12 * z


def test_log_domain_projection_deep_clamp_path():
    # one eigenvalue far below log(epsilon): the epsilon floor must engage
    logs = np.array([[-90.0, 1.0, 2.0, 0.0, 0.0, 0.0]])
    projected = project_log_coeffs(logs, EPSILON_DEFAULT, 36.0)
    log_eps = np.log(EPSILON_DEFAULT)
    clamped = np.array([log_eps, 1.0, 2.0])
    cnorm = np.sqrt((clamped ** 2).sum())
    expect = clamped * (36.0 / cnorm)
    assert np.allclose(projected[0, :3], expect, rtol=1e-12)
    assert np.abs(projected[0, 3:]).max() < 1e-12
