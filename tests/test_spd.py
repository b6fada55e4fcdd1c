"""Tests for the symmetric-matrix kernels: eigendecomposition, exp/log, the
log-Euclidean distance, projections, and fractional anisotropy."""
from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from dtfield import spd
from dtfield.analysis import log_distance_map
from dtfield.spd import (
    EPSILON_DEFAULT,
    LOG_BOUND_DEFAULT,
    NotPositiveDefiniteError,
    assemble_from_eig,
    coeffs_to_matrices,
    eigh_coeffs,
    exp_coeffs,
    fa_of_eigenvalues,
    jacobi_eigh,
    log_coeffs,
    matrices_to_coeffs,
    project_full_coeffs,
    project_log_coeffs,
    weighted_norm_sq,
    _COLS,
    _ROWS,
    _W3,
    _certified_feasible,
)


def random_symmat(rng, scale=1.0):
    """Coefficients of a random symmetric matrix."""
    return rng.standard_normal(6) * scale


def random_spd(rng, log_scale=1.0):
    return exp_coeffs(random_symmat(rng, scale=log_scale))


def frobenius(coeffs):
    """Full-matrix Frobenius norm of (6,) coefficients."""
    return float(np.sqrt(weighted_norm_sq(coeffs)))


def spd_in_log_ball(rng, z):
    """Random SPD tensor with ||Log||_F uniform in (0.05 z, z]."""
    s = random_symmat(rng)
    target = rng.uniform(0.05, 1.0) * z
    return exp_coeffs(s * (target / frobenius(s)))


def project(mats):
    """The full projection of (..., 3, 3) matrices at the default epsilon and z."""
    return project_full_coeffs(matrices_to_coeffs(mats), EPSILON_DEFAULT, LOG_BOUND_DEFAULT)


def dist_le(a, b):
    """Log-Euclidean distance of two (6,) tensors, through analysis.log_distance_map."""
    return float(log_distance_map(np.reshape(a, (1, 1, 6)), np.reshape(b, (1, 1, 6)))[0, 0])


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


# ---- eigendecomposition ----

def test_sym_eig_diagonal_matrix():
    values, vectors = eigh_coeffs(np.array([3.0, 2.0, 1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(values, [3.0, 2.0, 1.0])
    assert np.allclose(np.abs(vectors), np.eye(3), atol=1e-15)


def test_sym_eig_2x2_exchange():
    # the 2x2 exchange block of a 3x3 matrix: one rotation by pi/4
    values, vectors = jacobi_eigh(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert np.allclose(values, [1.0, 0.0, -1.0], atol=1e-15)
    h = np.sqrt(0.5)
    assert np.allclose(vectors, [[h, 0.0, h], [h, 0.0, -h], [0.0, 1.0, 0.0]], atol=1e-15)


def test_sym_eig_reconstruction_and_orthogonality():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = random_symmat(rng, scale=float(np.exp(rng.uniform(-3, 3))))
        values, vectors = eigh_coeffs(m)
        assert np.all(np.diff(values) <= 0)
        resid = assemble_from_eig(values, vectors) - coeffs_to_matrices(m)
        assert np.abs(resid).max() <= 1e-12 * max(1.0, frobenius(m))
        assert np.abs(vectors.T @ vectors - np.eye(3)).max() < 1e-13


def test_sym_eig_deterministic():
    rng = np.random.default_rng(2)
    m = random_symmat(rng)
    values1, vectors1 = eigh_coeffs(m)
    values2, vectors2 = eigh_coeffs(m)
    assert np.array_equal(values1, values2)
    assert np.array_equal(vectors1, vectors2)


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
    assert np.allclose(coeffs_to_matrices(exp_coeffs(np.zeros(6))), np.eye(3), atol=1e-15)
    d = coeffs_to_matrices(exp_coeffs(np.array([1.0, 0, 0, 0, 0, 0])))
    assert np.allclose(np.diag(d), [np.e, 1.0, 1.0], rtol=1e-15)


def test_mat_exp_bound_is_input_norm():
    # ||Log(Exp(S))||_F = ||S||_F: the log-norm bound of Exp(S) is ||S||_F
    rng = np.random.default_rng(5)
    s = random_symmat(rng)
    assert abs(frobenius(log_coeffs(exp_coeffs(s))) - frobenius(s)) <= 1e-14 * frobenius(s)


def test_mat_exp_overflow():
    with pytest.raises(OverflowError, match="^exp_coeffs overflow: eigenvalue 710 exceeds"):
        exp_coeffs(np.array([710.0, 0, 0, 0, 0, 0]))


def test_mat_log_identity_and_diagonal():
    ident = project(np.eye(3))
    assert np.abs(log_coeffs(ident)).max() < 1e-15
    back = log_coeffs(exp_coeffs(np.array([2.0, 1.0, 0.0, 0, 0, 0])))
    assert np.allclose(back, [2.0, 1.0, 0.0, 0, 0, 0], atol=1e-14)


def test_mat_log_requires_positive_definite():
    with pytest.raises(NotPositiveDefiniteError):
        log_coeffs(matrices_to_coeffs(np.diag([1.0, -1.0, 2.0])))


def test_log_norm_inside_stated_ball():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = spd_in_log_ball(rng, 3.0)
        assert frobenius(log_coeffs(a)) <= 3.0 + 1e-9


# ---- frobenius ----

def test_frobenius_values():
    assert frobenius(np.zeros(6)) == 0.0
    assert abs(frobenius(np.array([1.0, 1, 1, 0, 0, 0])) - np.sqrt(3.0)) < 1e-15
    # off-diagonals count twice
    assert abs(frobenius(np.array([0.0, 0, 0, 1.0, 0, 0])) - np.sqrt(2.0)) < 1e-15


def test_frobenius_unitary_invariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = random_symmat(rng)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = u @ coeffs_to_matrices(m) @ v.T
        direct = np.sqrt((rotated ** 2).sum())
        assert abs(direct - frobenius(m)) <= 1e-12 * max(1.0, frobenius(m))


# ---- the log-Euclidean distance (analysis.log_distance_map) ----

def test_dist_le_basics():
    rng = np.random.default_rng(10)
    a = random_spd(rng)
    assert dist_le(a, a) == 0.0
    e11 = exp_coeffs(np.array([1.0, 0, 0, 0, 0, 0]))
    assert abs(dist_le(e11, project(np.eye(3))) - 1.0) < 1e-12


def test_dist_le_scale_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_spd(rng)
        b = random_spd(rng)
        assert abs(dist_le(a * 7.0, b * 7.0) - dist_le(a, b)) < 1e-9


def test_dist_le_inversion_invariance():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = random_spd(rng)
        b = random_spd(rng)
        ia = project(np.linalg.inv(coeffs_to_matrices(a)))
        ib = project(np.linalg.inv(coeffs_to_matrices(b)))
        assert abs(dist_le(ia, ib) - dist_le(a, b)) < 1e-9


def test_dist_le_unitary_congruence_invariance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_spd(rng)
        b = random_spd(rng)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        ua = project(u @ coeffs_to_matrices(a) @ u.T)
        ub = project(u @ coeffs_to_matrices(b) @ u.T)
        assert abs(dist_le(ua, ub) - dist_le(a, b)) < 1e-9


def test_dist_le_metric_axioms():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a = random_spd(rng)
        b = random_spd(rng)
        c = random_spd(rng)
        dab = dist_le(a, b)
        assert dab == dist_le(b, a)
        assert dab > 0.0
        assert dist_le(a, c) <= dab + dist_le(b, c) + 1e-9
        assert dist_le(a, a) == 0.0


def test_dist_le_bilipschitz_vs_euclidean():
    # Log is bi-Lipschitz on the log-norm ball with constant e^z:
    # (1/e^z)||A-B||_F <= d_LE(A,B) <= e^z ||A-B||_F
    rng = np.random.default_rng(15)
    z = 3.0
    ez = np.exp(z)
    for _ in range(200):
        a = spd_in_log_ball(rng, z)
        b = spd_in_log_ball(rng, z)
        frob = frobenius(a - b)
        d = dist_le(a, b)
        assert frob / ez <= d + 1e-9
        assert d <= ez * frob + 1e-9
        # equivalently on squared norms with constant e^(2z)
        assert frob ** 2 / ez ** 2 <= d ** 2 + 1e-9
        assert d ** 2 <= ez ** 2 * frob ** 2 + 1e-9


# ---- projections ----

def test_project_full_analytic_diagonal():
    p = coeffs_to_matrices(project_full_coeffs(
        np.array([np.exp(40.0), 1.0, 1.0, 0, 0, 0]), EPSILON_DEFAULT, 36.0))
    assert abs(p[0, 0] - np.exp(36.0)) / np.exp(36.0) < 1e-12
    assert np.allclose(np.diag(p)[1:], 1.0, atol=1e-12)


def test_project_full_lands_on_sphere():
    # Exp(S) with ||S||_F in [37, 80] spans up to e^113: float64 coefficients
    # cannot hold it (ROADMAP item 1), so the draws are projected in log
    # coordinates, by project_full_coeffs' twin
    rng = np.random.default_rng(21)
    for _ in range(50):
        s = random_symmat(rng)
        s = s * (rng.uniform(37.0, 80.0) / frobenius(s))
        p = project_log_coeffs(s, EPSILON_DEFAULT, 36.0)
        assert abs(frobenius(p) - 36.0) < 1e-9
        again = project_log_coeffs(p, EPSILON_DEFAULT, 36.0)
        assert np.abs(again - p).max() <= 1e-12 * np.abs(p).max()


def test_project_full_identity_unchanged():
    assert np.allclose(coeffs_to_matrices(project(np.eye(3))), np.eye(3), rtol=1e-14)


def test_project_full_zero_matrix_seed_value():
    p = project(np.zeros((3, 3)))
    expected = np.exp(-LOG_BOUND_DEFAULT / np.sqrt(3.0))  # e^{-20.78...}
    assert np.allclose(p[:3], expected, rtol=1e-12)
    assert np.abs(p[3:]).max() < 1e-25
    assert abs(frobenius(log_coeffs(p)) - 36.0) < 1e-9


FLOORED = {  # a full projection of a small tensor, as coefficients
    "project_full_coeffs": lambda e, z: project_full_coeffs([1e-3] * 3 + [0.0] * 3, e, z),
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
    # a floor at 0 let log() meet a zero eigenvalue: "matrix log requires a
    # positive definite matrix (min eigenvalue 0)"
    for kernel in FLOORED.values():
        for epsilon, z in ((0.0, 36.0), (-1.0, 36.0), (np.nan, 36.0), (1e-3, 0.0),
                           (1e-3, -2.0)):
            with pytest.raises(ValueError, match="^epsilon and z must be > 0"):
                kernel(epsilon, z)


def test_project_full_idempotent():
    # at the default floor e^-36 the floored eigenvalues of these indefinite
    # draws lie below the rounding of the stored coefficients, and a second
    # pass moves 26 of the 50 by up to 6% (ROADMAP item 1); a floor of 1e-3
    # keeps every projected spectrum within e^12
    rng = np.random.default_rng(22)
    for _ in range(50):
        m = random_symmat(rng, scale=float(np.exp(rng.uniform(-2, 4))))
        p1 = project_full_coeffs(m, 1e-3, LOG_BOUND_DEFAULT)
        p2 = project_full_coeffs(p1, 1e-3, LOG_BOUND_DEFAULT)
        assert np.abs(p2 - p1).max() <= 1e-12 * max(1.0, np.abs(p1).max())


def test_spd_tensor_eigenvalue_corollary():
    # ||Log A||_F <= z confines every eigenvalue of A to [e^-z, e^z]
    rng = np.random.default_rng(23)
    for _ in range(50):
        a = spd_in_log_ball(rng, 5.0)
        z = frobenius(log_coeffs(a))
        vals = np.linalg.eigvalsh(coeffs_to_matrices(a))
        assert vals[0] >= np.exp(-z) * (1 - 1e-9)
        assert vals[-1] <= np.exp(z) * (1 + 1e-9)


# ---- fractional anisotropy ----

def fa_of_matrix(mat):
    return fa_of_eigenvalues(eigh_coeffs(matrices_to_coeffs(mat))[0])


def test_fa_isotropic_is_zero():
    for c in (1.0, 2.0, 1e-3):
        assert fa_of_matrix(np.eye(3) * c) < 1e-12


def test_fa_needle_limit_approaches_one():
    assert fa_of_matrix(np.diag([1.0, 1e-6, 1e-6])) > 1.0 - 3e-6


def test_fa_two_one_one():
    assert abs(fa_of_matrix(np.diag([2.0, 1.0, 1.0])) - np.sqrt(1.0 / 6.0)) < 1e-12


def test_fa_rotation_invariant():
    rng = np.random.default_rng(28)
    lam = np.array([3.0, 2.0, 0.5])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert abs(fa_of_matrix(np.diag(lam)) - fa_of_matrix((q * lam) @ q.T)) < 1e-10


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


def eigh_reference(coeffs, f):
    """f(A) for (n, 6) coefficients through numpy.linalg.eigh (LAPACK), a
    reference independent of the Jacobi solver."""
    vals, vecs = np.linalg.eigh(coeffs_to_matrices(coeffs))
    return matrices_to_coeffs(np.einsum("nik,nk,njk->nij", vecs, f(vals), vecs))


@pytest.mark.parametrize("kernel", ["exp", "log"])
def test_batched_kernels_match_numpy_eigh(kernel):
    rng = np.random.default_rng(30)
    spectra = graded_log_spectra(rng, 80)
    logs = rotated(rng, spectra)
    if kernel == "exp":
        batched, reference = exp_coeffs(logs), eigh_reference(logs, np.exp)
        tol = 1e-13
    else:
        # reassembled float64 coefficients keep the smallest eigenvalue
        # positive only while the spectrum spans less than about e^25
        keep = np.ptp(spectra, axis=1) <= 25.0
        spd = exp_coeffs(logs[keep])
        batched, reference = log_coeffs(spd), eigh_reference(spd, np.log)
        # either solver errs by about u * lambda_max in every eigenvalue, so
        # the log of the smallest errs by about u times the condition number
        tol = 1e-13 + 8 * np.finfo(float).eps * np.exp(np.ptp(spectra[keep], axis=1))
    scale = np.maximum(1.0, np.abs(reference).max(axis=1))
    assert (np.abs(batched - reference).max(axis=1) <= tol * scale).all()


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
