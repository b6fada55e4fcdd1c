"""Tests for phantom construction, DWI simulation, noise, and refitting."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from scipy.special import i0e, i1e

from dtfield.field import TensorField
from dtfield.spd import (
    assemble_from_eig,
    coeffs_to_matrices,
    eigh_coeffs,
    fa_of_eigenvalues,
    log_coeffs,
    matrices_to_coeffs,
    weighted_norm_sq,
)
from dtfield.synth import (
    A0_DEFAULT,
    B_VALUE_DEFAULT,
    DwiSet,
    NoiseSpec,
    apply_noise,
    corrupt_field,
    default_directions,
    design_matrix,
    fit_field,
    make_main_direction_phantom,
    make_staircase_phantom,
    simulate_dwis,
)


def random_dti_field(height, width, seed, lo=1e-4, hi=1e-2):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(lo, hi, size=(height * width, 3))
    q, _ = np.linalg.qr(rng.normal(size=(height * width, 3, 3)))
    coeffs = matrices_to_coeffs(assemble_from_eig(vals, q))
    return TensorField(coeffs.reshape(height, width, 6), 36.0)


# ---- forward model ----

def isotropic_row(*lams):
    """1 x len(lams) field of isotropic tensors lam * I."""
    coeffs = np.zeros((1, len(lams), 6))
    coeffs[..., :3] = np.array(lams)[:, None]
    return TensorField(coeffs, 36.0)


def test_forward_isotropic_example():
    # every unit direction sees g^T (lam I) g = lam
    dwis = simulate_dwis(isotropic_row(1e-3), 800.0, 1000.0)
    assert np.allclose(dwis.images, 1000.0 * math.exp(-0.8), rtol=1e-12, atol=0.0)


def test_forward_monotone_in_quadratic_form():
    dwis = simulate_dwis(isotropic_row(1e-4, 5e-4, 1e-3, 3e-3), 800.0, 1000.0,
                         directions=[[1.0, 0.0, 0.0]])
    signals = dwis.images[0, 0]
    assert all(b < a for a, b in zip(signals, signals[1:]))


def test_forward_rejects_non_unit_direction():
    with pytest.raises(ValueError, match="unit vectors"):
        simulate_dwis(isotropic_row(1e-3), 800.0, 1000.0, directions=[[1.0, 1.0, 0.0]])


# ---- direction set ----

def test_directions_are_unit_and_distinct():
    dirs = default_directions()
    assert dirs.shape == (12, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert len(np.unique(np.round(dirs, 9), axis=0)) == 12


def test_design_matrix_well_conditioned():
    design = design_matrix(default_directions())
    assert design.shape == (12, 6)
    assert np.linalg.matrix_rank(design) == 6
    assert np.linalg.cond(design) < 10.0


def test_design_matrix_reproduces_quadratic_form():
    rng = np.random.default_rng(1)
    coeffs = rng.normal(size=6)
    mat = np.array([[coeffs[0], coeffs[3], coeffs[4]],
                    [coeffs[3], coeffs[1], coeffs[5]],
                    [coeffs[4], coeffs[5], coeffs[2]]])
    dirs = default_directions()
    assert np.allclose(design_matrix(dirs) @ coeffs,
                       np.einsum("ki,ij,kj->k", dirs, mat, dirs), atol=1e-12)


# ---- Rician noise ----

def constant_dwis(value, k, width):
    """k x 1 x width images of one signal value along a repeated direction."""
    return DwiSet(np.tile([1.0, 0.0, 0.0], (k, 1)), B_VALUE_DEFAULT, A0_DEFAULT,
                  np.full((k, 1, width), value))


def test_rician_zero_variance_is_identity():
    dwis = constant_dwis(417.0, 12, 3)
    assert apply_noise(dwis, NoiseSpec(0.0, 1)) is dwis


def test_rician_output_nonnegative():
    # sigma = 30 against a signal of 10: about a third of the signal + n1 sums are negative
    draws = apply_noise(constant_dwis(10.0, 40, 50), NoiseSpec(900.0, 1)).images
    assert draws.min() >= 0.0


def test_rician_moments_match_rice_distribution():
    # Rice(nu, sigma) moments via exponentially scaled Bessel functions:
    # mean = sigma sqrt(pi/2) exp(x/2) [(1-x) I0(-x/2) - x I1(-x/2)], x = -nu^2/(2 sigma^2)
    sigma2 = 16.0
    sigma = 4.0
    spec = NoiseSpec(sigma2, 77)
    for nu in (0.0, 3.0, 12.0):
        draws = apply_noise(constant_dwis(nu, 1000, 1000), spec).images  # 10^6 draws
        x = nu ** 2 / (2.0 * sigma2)
        mean = sigma * math.sqrt(math.pi / 2.0) * (
            (1.0 + x) * i0e(x / 2.0) + x * i1e(x / 2.0))
        variance = 2.0 * sigma2 + nu ** 2 - mean ** 2
        assert abs(draws.mean() / mean - 1.0) < 0.01
        assert abs(draws.var() / variance - 1.0) < 0.01


def test_rician_mean_at_zero_signal_is_rayleigh():
    sigma2 = 4.0
    draws = apply_noise(constant_dwis(0.0, 400, 500), NoiseSpec(sigma2, 11)).images
    assert abs(draws.mean() / (math.sqrt(sigma2) * math.sqrt(math.pi / 2.0)) - 1.0) < 0.01


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-1.0, 0)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^sigma2 must be finite"):
            NoiseSpec(value, 0)
    with pytest.raises(TypeError):
        NoiseSpec(1.0, "seed")


# ---- fitting ----

def test_fit_roundtrip_noiseless():
    field = random_dti_field(10, 10, seed=9)
    dwis = simulate_dwis(field)
    refit = fit_field(dwis)
    dist = np.sqrt(weighted_norm_sq(log_coeffs(refit.coeffs) - log_coeffs(field.coeffs)))
    assert dist.max() < 1e-8


def test_fit_all_signals_at_a0_gives_projected_zero():
    dwis = DwiSet(default_directions(), 800.0, 1000.0,
                  np.full((12, 2, 2), 1000.0))
    tensor = coeffs_to_matrices(fit_field(dwis).coeffs[0, 0])
    assert np.allclose(np.diag(tensor), math.exp(-36.0 / math.sqrt(3.0)), rtol=1e-9)


def test_fit_rejects_floor_outside_log_ball():
    # every eigenvalue >= epsilon forces ||Log||_F >= sqrt(3) log(epsilon),
    # so above e^(z/sqrt 3) no tensor is feasible; a huge z must not overflow
    dwis = simulate_dwis(make_staircase_phantom(3))
    with pytest.raises(ValueError, match="^epsilon = 1.1e\\+09 leaves no feasible tensor"):
        fit_field(dwis, epsilon=1.1e9, z=36.0)
    with pytest.raises(ValueError, match="epsilon"):
        fit_field(dwis, epsilon=1e10)
    assert eigh_coeffs(fit_field(dwis, epsilon=1e9, z=36.0).coeffs)[0].min() > 0.99e9
    fit_field(dwis, epsilon=1e10, z=1e308)


def test_fit_rejects_rank_deficient_directions():
    dirs = np.tile(np.array([[1.0, 0.0, 0.0]]), (6, 1))
    dwis = DwiSet(dirs, 800.0, 1000.0, np.full((6, 2, 2), 500.0))
    with pytest.raises(ValueError, match="direction set"):
        fit_field(dwis)


def test_noisy_fit_stays_in_log_ball():
    field = random_dti_field(6, 6, seed=4)
    noisy = corrupt_field(field, NoiseSpec(8000.0, 3))
    norms = np.sqrt(weighted_norm_sq(log_coeffs(noisy.coeffs)))
    assert norms.max() <= 36.0 + 1e-9


# ---- end-to-end corruption ----

def test_corrupt_field_roundtrip_at_zero_noise():
    field = random_dti_field(5, 5, seed=9)
    rec = corrupt_field(field, NoiseSpec(0.0, 1))
    dist = np.sqrt(weighted_norm_sq(log_coeffs(rec.coeffs) - log_coeffs(field.coeffs)))
    assert dist.max() < 1e-8


def test_corrupt_field_deterministic_and_thread_invariant():
    field = make_staircase_phantom(8)
    a = corrupt_field(field, NoiseSpec(1600.0, 7))
    b = corrupt_field(field, NoiseSpec(1600.0, 7))
    assert np.array_equal(a.coeffs, b.coeffs)
    d = corrupt_field(field, NoiseSpec(1600.0, 8))
    assert not np.array_equal(a.coeffs, d.coeffs)


def test_noise_lowers_snr():
    field = make_staircase_phantom(10)
    w3 = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

    def snr(rec):
        num = np.sqrt((field.coeffs ** 2 * w3).sum())
        den = np.sqrt(((field.coeffs - rec.coeffs) ** 2 * w3).sum())
        return num / den

    clean = corrupt_field(field, NoiseSpec(0.0, 3))
    noisy = corrupt_field(field, NoiseSpec(1600.0, 3))
    assert snr(noisy) < snr(clean)


def per_pixel_noise(dwis, spec):
    """Reference loop: a fresh Philox(key=(seed mod 2**64, i * width + j)) per pixel."""
    k, height, width = dwis.images.shape
    sigma = math.sqrt(spec.sigma2)
    images = np.empty((k, height, width))
    for i in range(height):
        for j in range(width):
            key = np.array([int(spec.seed) % 2 ** 64, i * width + j], dtype=np.uint64)
            draws = np.random.Generator(np.random.Philox(key=key)).standard_normal(2 * k) * sigma
            images[:, i, j] = np.hypot(dwis.images[:, i, j] + draws[0::2], draws[1::2])
    return images


@pytest.mark.parametrize("seed", [np.int64(-1), np.uint64(2 ** 63 + 5), 0, 13], ids=str)
def test_apply_noise_bits_match_fresh_generator_per_pixel(seed):
    # one re-keyed Philox gives each pixel the stream of a fresh generator
    dwis = simulate_dwis(random_dti_field(5, 7, seed=6))
    spec = NoiseSpec(1600.0, seed)
    first = apply_noise(dwis, spec).images
    assert np.array_equal(first, per_pixel_noise(dwis, spec))
    # no generator state leaks from one call into the next
    assert np.array_equal(apply_noise(dwis, spec).images, first)


@pytest.mark.parametrize("seed", [np.int64(5), np.int64(-1), np.int32(-7),
                                  np.uint64(2 ** 63 + 5)], ids=str)
def test_apply_noise_numpy_seed_matches_python_int(seed):
    dwis = simulate_dwis(random_dti_field(2, 3, seed=6))
    noisy = apply_noise(dwis, NoiseSpec(400.0, seed))
    assert np.array_equal(noisy.images, apply_noise(dwis, NoiseSpec(400.0, int(seed))).images)
    assert not np.array_equal(noisy.images, dwis.images)


# ---- phantoms ----

def test_staircase_profile():
    field = make_staircase_phantom(10)
    fa = fa_of_eigenvalues(eigh_coeffs(field.coeffs)[0])
    assert fa[0, 0] == 0.0
    last = np.linalg.eigvalsh(coeffs_to_matrices(field.coeffs[5, 9]))
    assert math.isclose(last.max(), 3.5e-3, rel_tol=1e-12)
    assert math.isclose(last.min(), 0.5e-3, rel_tol=1e-12)
    # columns are constant; anisotropy grows left to right
    assert all(b > a for a, b in zip(fa[3], fa[3, 1:]))
    for i in range(1, 10):
        assert np.array_equal(field.coeffs[i], field.coeffs[0])


def test_staircase_needs_two_columns():
    with pytest.raises(ValueError):
        make_staircase_phantom(1)


def test_main_direction_band_geometry():
    field = make_main_direction_phantom(10)
    fa = fa_of_eigenvalues(eigh_coeffs(field.coeffs)[0])
    band = fa > 0.5
    assert band.sum() > 10
    assert fa[0, 0] == 0.0
    background = fa[~band]
    assert background.max() == 0.0
    # principal axis of the vertical leg points along rows, horizontal leg along columns
    vals, vecs = np.linalg.eigh(coeffs_to_matrices(field.coeffs[0, 1]))
    assert abs(vecs[:, -1] @ np.array([0.0, 1.0, 0.0])) > 0.999
    vals, vecs = np.linalg.eigh(coeffs_to_matrices(field.coeffs[8, 6]))
    assert abs(vecs[:, -1] @ np.array([1.0, 0.0, 0.0])) > 0.999


@pytest.mark.parametrize("call,message", [
    (lambda: DwiSet(np.ones((6, 2)), 800.0, 1000.0, np.ones((6, 2, 2))),
     "directions must be (k, 3), got (6, 2)"),
    (lambda: DwiSet(np.ones(3), 800.0, 1000.0, np.ones((1, 2, 2))),
     "directions must be (k, 3), got (3,)"),
    (lambda: make_main_direction_phantom(4), "main-direction phantom needs n >= 5, got 4"),
], ids=["directions-k-2", "directions-1-d", "main-direction-n-4"])
def test_synth_rejects_malformed_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_phantoms_live_in_log_ball():
    for field in (make_staircase_phantom(10), make_main_direction_phantom(12)):
        norms = np.sqrt(weighted_norm_sq(log_coeffs(field.coeffs)))
        assert norms.max() <= 36.0


# ---- container validation ----

def test_dwiset_validation():
    dirs = default_directions()
    good = np.ones((12, 2, 2))
    with pytest.raises(ValueError):
        DwiSet(dirs * 2.0, 800.0, 1000.0, good)
    with pytest.raises(ValueError):
        DwiSet(dirs, -1.0, 1000.0, good)
    with pytest.raises(ValueError):
        DwiSet(dirs, 800.0, 0.0, good)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^b_value must be finite"):
            DwiSet(dirs, value, 1000.0, good)
        with pytest.raises(ValueError, match="^a0 must be finite"):
            DwiSet(dirs, 800.0, value, good)
    with pytest.raises(ValueError):
        DwiSet(dirs, 800.0, 1000.0, np.ones((11, 2, 2)))
    with pytest.raises(ValueError):
        DwiSet(dirs, 800.0, 1000.0, -good)
    dwis = DwiSet(dirs, 800.0, 1000.0, good)
    assert dwis.height == 2 and dwis.width == 2
    with pytest.raises(ValueError):
        dwis.images[0, 0, 0] = 2.0
