"""Tests for tensor-field containers, the mollifier, and the energies."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from dtfield import field
from dtfield.field import (
    FunctionalParams,
    Mask,
    Objective,
    TensorField,
    build_mollifier,
    fidelity_energy,
    functional,
    pairwise_energy,
    phi_kernel_offsets,
    theta_energy,
)
from dtfield.spd import (
    _coeffs_from_eig,
    coeffs_to_matrices,
    eigh_coeffs,
    exp_coeffs,
    log_coeffs,
    matrices_to_coeffs,
    weighted_norm_sq,
)
from dtfield.synth import make_staircase_phantom


def random_field(rng, height, width, scale=0.7):
    logs = rng.standard_normal((height, width, 6)) * scale
    return TensorField(exp_coeffs(logs))


def identity_field(height, width):
    coeffs = np.zeros((height, width, 6))
    coeffs[..., :3] = 1.0
    return TensorField(coeffs)


def pair_field(first_coeffs, second_coeffs):
    """1x2 field from two coefficient vectors."""
    return TensorField(np.stack([first_coeffs, second_coeffs])[None, :, :])


E2_COEFFS = np.array([np.e ** 2, 1.0, 1.0, 0.0, 0.0, 0.0])
I_COEFFS = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def brute_force_phi(w: TensorField, params: FunctionalParams, metric: str) -> float:
    """Quadruple loop over all ordered pixel pairs; independent oracle, with
    matrix logs from numpy.linalg.eigh rather than dtfield's Jacobi."""
    n = params.n_rho
    moll = build_mollifier(n) if params.l == 1 else None
    mats = coeffs_to_matrices(w.coeffs)
    if metric == "log-euclidean":
        vals, vecs = np.linalg.eigh(mats)
        mats = np.einsum("...ik,...k,...jk->...ij", vecs, np.log(vals), vecs)
    total = 0.0
    for y1 in range(w.height):
        for x1 in range(w.width):
            for y2 in range(w.height):
                for x2 in range(w.width):
                    if (y1, x1) == (y2, x2):
                        continue
                    weight = 1.0
                    if moll is not None:
                        dx, dy = x2 - x1, y2 - y1
                        if max(abs(dx), abs(dy)) > n or moll[n + dy, n + dx] == 0.0:
                            continue
                        weight = moll[n + dy, n + dx]
                    d = math.sqrt(((mats[y1, x1] - mats[y2, x2]) ** 2).sum())
                    r = math.hypot(y1 - y2, x1 - x2)
                    total += weight * d ** params.p / r ** (2.0 + params.p * params.s)
    return total


# ---- mollifier ----

# build_mollifier(n)[n + dy, n + dx] is the weight of offset (dx, dy)

def test_mollifier_radius_one_support():
    m = build_mollifier(1)
    assert m.shape == (3, 3)
    assert (m > 0).sum() == 5
    assert m[0, 0] == 0.0  # corner outside the unit disk
    assert abs(m.sum() - 1.0) < 1e-12


def test_mollifier_radius_two_support():
    m = build_mollifier(2)
    assert m.shape == (5, 5)
    # offsets with dx^2+dy^2 <= 4: center, 4 axis units, 4 diagonals, 4 axis twos
    assert (m > 0).sum() == 13
    offs = np.arange(-2, 3)
    assert np.array_equal(m > 0, offs[:, None] ** 2 + offs[None, :] ** 2 <= 4)


def test_mollifier_symmetries():
    for n in (1, 2, 3):
        m = build_mollifier(n)
        # dx -> -dx, dy -> -dy, and the swap dx <-> dy
        assert np.array_equal(m, m[:, ::-1])
        assert np.array_equal(m, m[::-1, :])
        assert np.array_equal(m, m.T)


def test_mollifier_normalization_all_radii():
    for n in range(1, 10):
        m = build_mollifier(n)
        assert (m >= 0.0).all()
        assert abs(m.sum() - 1.0) < 1e-12


def test_mollifier_monotone_in_radius():
    m = build_mollifier(3)
    center = m[3, 3]
    assert center > m[3, 4] > m[3, 5] > m[3, 6] > 0.0


def test_mollifier_validation():
    for n_rho in (0, -1):
        with pytest.raises(ValueError, match="n_rho must be >= 1"):
            build_mollifier(n_rho)


# ---- containers ----

def test_tensor_field_accessors():
    rng = np.random.default_rng(40)
    w = random_field(rng, 3, 4)
    assert w.height == 3 and w.width == 4


def test_tensor_field_rejects_non_spd_pixel():
    coeffs = np.zeros((2, 2, 6))
    coeffs[..., :3] = 1.0
    coeffs[1, 0, 0] = -2.0
    with pytest.raises(ValueError, match=r"row 1, col 0"):
        TensorField(coeffs)


def test_tensor_field_rejects_out_of_ball_pixel():
    coeffs = np.zeros((1, 2, 6))
    coeffs[..., :3] = 1.0
    coeffs[0, 1, 0] = np.exp(4.0)
    with pytest.raises(ValueError, match="bound"):
        TensorField(coeffs, log_bound=3.0)


def full_validation_error(coeffs, bound):
    """The message TensorField(coeffs, bound) must raise, or None: the check
    with every pixel decomposed, as it read before the certificate."""
    vals, _ = eigh_coeffs(coeffs)
    if vals[..., -1].min() <= 0.0:
        bad = np.unravel_index(int(np.argmin(vals[..., -1])), coeffs.shape[:2])
        return (f"pixel (row {bad[0]}, col {bad[1]}) is not positive definite "
                f"(min eigenvalue {vals[..., -1].min():g}); project the field first")
    logs = np.log(vals)
    lognorms = np.sqrt((logs * logs).sum(axis=-1))
    if lognorms.max() > bound + 1e-9:
        bad = np.unravel_index(int(np.argmax(lognorms)), coeffs.shape[:2])
        return (f"pixel (row {bad[0]}, col {bad[1]}) has ||Log||_F = "
                f"{lognorms.max():.6g} > bound {bound:g}")
    return None


def spectral_field(rng, height, width, bound, kind):
    """Randomly rotated pixels with log-spectra of spread bound / 6; about
    15% of them are replaced by pixels of kind: on the bound's sphere up to
    1e-3 either side of it, near-singular, or indefinite or singular."""
    n = height * width
    vals = np.exp(rng.normal(scale=bound / 6, size=(n, 3)))
    special = rng.random(n) < 0.15
    k = int(special.sum())
    if kind == "near-bound":
        u = rng.standard_normal((k, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        offset = rng.choice([-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6, 1e-3], k)
        vals[special] = np.exp(u * (bound + offset)[:, None])
    elif kind == "near-singular":
        vals[special, 2] = 10.0 ** rng.uniform(-300, -8, k)
    elif kind == "indefinite":
        vals[special, 2] = -(10.0 ** rng.uniform(-300, 0, k)) * rng.choice([1.0, 0.0], k)
    q, r = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return _coeffs_from_eig(vals, q).reshape(height, width, 6)


@pytest.mark.parametrize("bound", [5.0, 36.0, 100.0])
@pytest.mark.parametrize("kind", ["in-ball", "near-bound", "near-singular", "indefinite"])
def test_tensor_field_validates_as_the_full_decomposition_does(kind, bound):
    # only the pixels the certificate cannot prove valid are decomposed; a
    # field is accepted or rejected as with every pixel decomposed, and a
    # rejection names the same pixel and value
    rng = np.random.default_rng([60, int(bound)])
    outcomes = set()
    for _ in range(40):
        coeffs = spectral_field(rng, 3, 4, bound, kind)
        expected = full_validation_error(coeffs, bound)
        if expected is None:
            TensorField(coeffs, bound)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                TensorField(coeffs, bound)
        outcomes.add(expected is None)
    assert outcomes == ({True} if (kind, bound) in {("in-ball", 5.0), ("in-ball", 36.0)}
                        else {True, False})


def test_tensor_field_decomposes_no_pixel_of_the_staircase(monkeypatch):
    coeffs = make_staircase_phantom(64).coeffs
    seen = []
    monkeypatch.setattr(field, "eigh_coeffs", lambda c: seen.append(c.shape) or eigh_coeffs(c))
    TensorField(coeffs)
    assert seen == []
    coeffs = coeffs.copy()
    coeffs[5, 7, 1] = -1.0
    with pytest.raises(ValueError, match=r"^pixel \(row 5, col 7\) is not positive definite"):
        TensorField(coeffs)
    assert seen == [(1, 6)]


@pytest.mark.parametrize("coeffs,log_bound,message", [
    (np.ones((2, 2, 5)), 36.0, "expected (height, width, 6) coefficients, got (2, 2, 5)"),
    (np.ones((2, 6)), 36.0, "expected (height, width, 6) coefficients, got (2, 6)"),
    (np.ones((0, 2, 6)), 36.0, "empty grid (0, 2)"),
    (np.full((1, 1, 6), np.nan), 36.0, "non-finite coefficients"),
    (np.ones((1, 1, 6)), -1.0, "log_bound must be finite and >= 0, got -1.0"),
    (np.ones((1, 1, 6)), np.inf, "log_bound must be finite and >= 0, got inf"),
], ids=["last-axis", "2-d", "empty", "nan", "bound-negative", "bound-inf"])
def test_tensor_field_rejects_malformed_input(coeffs, log_bound, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TensorField(coeffs, log_bound)


@pytest.mark.parametrize("call,message", [
    (lambda w: functional(w, identity_field(2, 3), Mask.full(2, 2), FunctionalParams()),
     "field 2x2 does not match data 2x3"),
    (lambda w: Mask(np.ones(3, dtype=bool)), "expected a 2-D mask, got shape (3,)"),
    (lambda w: functional(w, w, Mask.full(2, 2), FunctionalParams(), objective="affine"),
     "objective must be one of ('f-log-euclidean', 'f-euclidean', 'fc'), got 'affine'"),
], ids=["grid-shape", "mask-1-d", "objective"])
def test_field_functions_reject_malformed_input(call, message):
    w = TensorField(np.tile([1.0, 1.0, 1.0, 0.0, 0.0, 0.0], (2, 2, 1)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(w)


def test_mask_validation():
    with pytest.raises(ValueError):
        Mask(np.zeros((2, 2), dtype=bool))
    m = Mask.full(2, 3)
    assert m.height == 2 and m.width == 3 and m.values.all()
    with pytest.raises(ValueError):
        m.values[0, 0] = False


# ---- fidelity: functional at alpha = 0 ----

def test_fidelity_zero_on_equal_fields():
    rng = np.random.default_rng(41)
    w = random_field(rng, 3, 3)
    assert functional(w, w, Mask.full(3, 3), FunctionalParams(p=1.5, alpha=0.0)) == 0.0


def test_fidelity_single_pixel_analytic():
    w = identity_field(1, 1)
    data = TensorField(np.array([[[np.e, 1.0, 1.0, 0, 0, 0]]]))
    got = functional(w, data, Mask.full(1, 1), FunctionalParams(p=2.0, alpha=0.0))
    assert abs(got - 1.0) < 1e-12


def test_fidelity_all_false_mask_is_empty_sum():
    rng = np.random.default_rng(42)
    w = random_field(rng, 2, 2)
    data = random_field(rng, 2, 2)
    assert functional(w, data, np.zeros((2, 2), dtype=bool),
                      FunctionalParams(p=2.0, alpha=0.0)) == 0.0


def test_fidelity_euclidean_metric():
    w = identity_field(1, 1)
    data = TensorField(np.array([[[2.0, 1.0, 1.0, 0, 0, 0]]]))
    got = functional(w, data, Mask.full(1, 1), FunctionalParams(p=2.0, alpha=0.0),
                     objective="f-euclidean")
    assert abs(got - 1.0) < 1e-12  # Frobenius difference is the (1,1) entry


def test_fidelity_dimension_mismatch():
    rng = np.random.default_rng(43)
    params = FunctionalParams(p=2.0, alpha=0.0)
    with pytest.raises(ValueError):
        functional(random_field(rng, 2, 2), random_field(rng, 2, 3), Mask.full(2, 2), params)
    with pytest.raises(ValueError):
        functional(random_field(rng, 2, 2), random_field(rng, 2, 2), Mask.full(3, 3), params)


def test_fidelity_monotone_under_mask_removal():
    rng = np.random.default_rng(44)
    w = random_field(rng, 4, 4)
    data = random_field(rng, 4, 4)
    mask = np.ones((4, 4), dtype=bool)
    params = FunctionalParams(p=1.3, alpha=0.0)
    value = functional(w, data, mask, params)
    order = [(r, c) for r in range(4) for c in range(4)]
    rng.shuffle(order)
    for r, c in order[:10]:
        mask = mask.copy()
        mask[r, c] = False
        smaller = functional(w, data, mask, params)
        assert smaller <= value + 1e-15
        value = smaller


# ---- phi regularizer ----

def test_phi_constant_field_is_zero():
    w = identity_field(3, 3)
    params = FunctionalParams(p=1.1, s=0.5, l=0)
    assert pairwise_energy(log_coeffs(w.coeffs), phi_kernel_offsets(3, 3, params), params.p) == 0.0


def test_phi_single_pair_analytic():
    w = pair_field(I_COEFFS, E2_COEFFS)
    params = FunctionalParams(p=2.0, s=0.5, l=0)
    got = pairwise_energy(log_coeffs(w.coeffs), phi_kernel_offsets(1, 2, params), params.p)
    assert abs(got - 8.0) < 1e-12


def test_phi_matches_brute_force_all_pairs():
    rng = np.random.default_rng(45)
    w = random_field(rng, 4, 4)
    for p, s in ((1.1, 0.5), (2.0, 0.25)):
        params = FunctionalParams(p=p, s=s, l=0)
        offsets = phi_kernel_offsets(4, 4, params)
        for metric, rep in (("log-euclidean", log_coeffs(w.coeffs)), ("euclidean", w.coeffs)):
            got = pairwise_energy(rep, offsets, p)
            want = brute_force_phi(w, params, metric)
            assert abs(got - want) <= 1e-11 * max(1.0, want)


def test_phi_matches_brute_force_mollified():
    rng = np.random.default_rng(46)
    w = random_field(rng, 5, 4)
    params = FunctionalParams(p=1.5, s=0.4, l=1, n_rho=2)
    offsets = phi_kernel_offsets(5, 4, params)
    for metric, rep in (("log-euclidean", log_coeffs(w.coeffs)), ("euclidean", w.coeffs)):
        got = pairwise_energy(rep, offsets, params.p)
        want = brute_force_phi(w, params, metric)
        assert abs(got - want) <= 1e-11 * max(1.0, want)


def test_phi_scale_invariant_log_metric():
    rng = np.random.default_rng(47)
    w = random_field(rng, 3, 3)
    scaled = TensorField(w.coeffs * 3.0)
    params = FunctionalParams(p=1.1, s=0.5, l=1, n_rho=2)
    offsets = phi_kernel_offsets(3, 3, params)
    a = pairwise_energy(log_coeffs(w.coeffs), offsets, params.p)
    b = pairwise_energy(log_coeffs(scaled.coeffs), offsets, params.p)
    assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_phi_inversion_invariant_log_metric():
    rng = np.random.default_rng(48)
    w = random_field(rng, 3, 3)
    inverted = TensorField(exp_coeffs(-log_coeffs(w.coeffs)))
    params = FunctionalParams(p=1.4, s=0.5, l=0)
    offsets = phi_kernel_offsets(3, 3, params)
    a = pairwise_energy(log_coeffs(w.coeffs), offsets, params.p)
    b = pairwise_energy(log_coeffs(inverted.coeffs), offsets, params.p)
    assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_phi_unitary_invariant_both_metrics():
    rng = np.random.default_rng(49)
    w = random_field(rng, 3, 3)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    mats = np.einsum("ik,rckl,jl->rcij", u, coeffs_to_matrices(w.coeffs, 3), u)
    rotated = TensorField(matrices_to_coeffs(mats))
    offsets = phi_kernel_offsets(3, 3, FunctionalParams(p=1.1, s=0.5, l=1, n_rho=2))
    for rep, rotated_rep in ((log_coeffs(w.coeffs), log_coeffs(rotated.coeffs)),
                             (w.coeffs, rotated.coeffs)):
        a = pairwise_energy(rep, offsets, 1.1)
        b = pairwise_energy(rotated_rep, offsets, 1.1)
        assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_phi_euclidean_scale_invariance_fails():
    rng = np.random.default_rng(50)
    w = random_field(rng, 3, 3)
    scaled = TensorField(w.coeffs * 2.0)
    offsets = phi_kernel_offsets(3, 3, FunctionalParams(p=2.0, s=0.5, l=0))
    a = pairwise_energy(w.coeffs, offsets, 2.0)
    b = pairwise_energy(scaled.coeffs, offsets, 2.0)
    assert b > 1.5 * a  # scales like 2^p, so invariance is clearly violated


def test_phi_mollifier_gating_consistency():
    # a window covering the whole field gates no pair: with the mollifier
    # weights replaced by a constant, the windowed sum must equal the
    # all-pairs sum scaled by that constant
    rng = np.random.default_rng(51)
    w = random_field(rng, 3, 3)
    radius = 4  # covers the 3x3 diameter
    params1 = FunctionalParams(p=1.3, s=0.5, l=1, n_rho=radius)
    params0 = FunctionalParams(p=1.3, s=0.5, l=0)
    windowed = phi_kernel_offsets(3, 3, params1)
    rho = build_mollifier(radius)
    exponent = 2.0 + params1.p * params1.s
    for di, dj, kernel in windowed:
        expected = rho[radius + di, radius + dj] / math.hypot(di, dj) ** exponent
        assert kernel == pytest.approx(expected, rel=1e-14)
    weight = 1.0 / 41.0  # uniform over the 41 offsets of the radius-4 disk
    constant = [(di, dj, weight / math.hypot(di, dj) ** exponent) for di, dj, _ in windowed]
    gated = pairwise_energy(log_coeffs(w.coeffs), constant, params1.p)
    allpairs = pairwise_energy(log_coeffs(w.coeffs), phi_kernel_offsets(3, 3, params0), params0.p)
    assert abs(gated / weight - allpairs) <= 1e-11 * max(1.0, allpairs)


# ---- functional F ----

def test_functional_f_alpha_zero_equals_fidelity():
    rng = np.random.default_rng(52)
    w = random_field(rng, 3, 3)
    data = random_field(rng, 3, 3)
    params = FunctionalParams(p=1.1, s=0.5, alpha=0.0, l=0)
    mask = Mask.full(3, 3)
    fidelity = fidelity_energy(log_coeffs(w.coeffs), log_coeffs(data.coeffs), mask.values,
                               params.p)
    assert functional(w, data, mask, params) == fidelity
    assert functional(data, data, mask, params) == 0.0


def test_functional_f_single_pair_composite():
    w = pair_field(I_COEFFS, E2_COEFFS)
    params = FunctionalParams(p=2.0, s=0.5, alpha=0.5, l=0)
    got = functional(w, w, Mask.full(1, 2), params)
    assert abs(got - 4.0) < 1e-12


@pytest.mark.parametrize("kind", ["f-log-euclidean", "f-euclidean", "fc"])
def test_functional_is_the_objective_value_at_the_field(kind):
    rng = np.random.default_rng(63)
    w = random_field(rng, 3, 4)
    data = random_field(rng, 3, 4)
    mask = rng.random((3, 4)) > 0.4
    mask[0, 0], mask[1, 2] = True, False
    coords = log_coeffs(w.coeffs) if kind == "f-log-euclidean" else w.coeffs
    for p in (1.1, 2.0):
        for l in (0, 1):
            params = FunctionalParams(p=p, s=0.5, alpha=0.7, beta=0.4, l=l, n_rho=2)
            got = functional(w, data, Mask(mask), params, objective=kind)
            assert type(got) is float
            assert got == Objective(kind, data, mask, params).value(coords)


# ---- theta and F_C ----

def test_theta_constant_field_is_zero():
    assert theta_energy(identity_field(3, 3).coeffs, 2.0) == 0.0


def test_theta_single_difference_analytic():
    coeffs = np.zeros((1, 2, 6))
    coeffs[0, 1, :3] = 1.0
    assert abs(theta_energy(coeffs, 2.0) - 3.0) < 1e-15


def test_theta_translation_and_reflection_invariance():
    rng = np.random.default_rng(53)
    coeffs = rng.standard_normal((4, 5, 6))
    shift = rng.standard_normal(6)
    for p in (1.1, 2.0):
        base = theta_energy(coeffs, p)
        assert abs(theta_energy(coeffs + shift, p) - base) <= 1e-12 * max(1.0, base)
        assert abs(theta_energy(-coeffs, p) - base) <= 1e-12 * max(1.0, base)


def test_theta_brute_force():
    rng = np.random.default_rng(54)
    coeffs = rng.standard_normal((3, 4, 6))
    p = 1.7
    w = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    total = 0.0
    for r in range(3):
        for c in range(4):
            gsq = 0.0
            if c + 1 < 4:
                d = coeffs[r, c + 1] - coeffs[r, c]
                gsq += float((w * d * d).sum())
            if r + 1 < 3:
                d = coeffs[r + 1, c] - coeffs[r, c]
                gsq += float((w * d * d).sum())
            total += gsq ** (p / 2.0)
    assert abs(theta_energy(coeffs, p) - total) <= 1e-12 * max(1.0, total)


def test_functional_fc_zero_cases():
    rng = np.random.default_rng(55)
    data = random_field(rng, 3, 3)
    mask = Mask.full(3, 3)
    params = FunctionalParams(p=2.0, s=0.5, beta=0.0)
    assert functional(data, data, mask, params, objective="fc") == 0.0
    constant = identity_field(3, 3)
    params2 = FunctionalParams(p=2.0, s=0.5, beta=7.0)
    assert functional(constant, constant, mask, params2, objective="fc") == 0.0


def test_functional_fc_brute_force():
    rng = np.random.default_rng(56)
    w = random_field(rng, 3, 3)
    data = random_field(rng, 3, 3)
    mask_values = rng.random((3, 3)) > 0.3
    mask_values[0, 0] = True
    params = FunctionalParams(p=1.6, s=0.5, beta=0.8)
    got = functional(w, data, Mask(mask_values), params, objective="fc")
    expected = 0.0
    for r in range(3):
        for c in range(3):
            if mask_values[r, c]:
                diff = coeffs_to_matrices(w.coeffs[r, c] - data.coeffs[r, c])
                expected += ((diff ** 2).sum()) ** (params.p / 2.0)
    expected += params.beta * theta_energy(w.coeffs, params.p)
    assert abs(got - expected) <= 1e-11 * max(1.0, expected)


# ---- log coordinates ----

def test_log_coords_identity_field():
    assert np.abs(log_coeffs(identity_field(2, 2).coeffs)).max() < 1e-15


def test_log_coords_roundtrip():
    rng = np.random.default_rng(57)
    w = random_field(rng, 4, 4, scale=1.5)
    objective = Objective("f-log-euclidean", w, Mask.full(4, 4),
                          FunctionalParams(z=w.log_bound))
    back = objective.finish(log_coeffs(w.coeffs))
    assert np.abs(back.coeffs - w.coeffs).max() <= 1e-9 * max(1.0, np.abs(w.coeffs).max())


def test_finish_clamps_logs_to_ball():
    logs = np.zeros((1, 1, 6))
    logs[0, 0, :3] = [30.0, -20.0, 10.0]  # norm sqrt(1400) > 36... scaled
    logs *= 2.0
    objective = Objective("f-log-euclidean", identity_field(1, 1), Mask.full(1, 1),
                          FunctionalParams(z=36.0))
    w = objective.finish(logs)
    out_norm = np.sqrt(weighted_norm_sq(log_coeffs(w.coeffs)))
    assert abs(out_norm.max() - 36.0) < 1e-6


# ---- convexity in log coordinates ----

def test_functional_convex_along_segments():
    rng = np.random.default_rng(58)
    mask_values = np.ones((4, 4), dtype=bool)
    data_logs = rng.standard_normal((4, 4, 6))
    for p in (1.1, 2.0):
        params = FunctionalParams(p=p, s=0.5, alpha=0.7, l=1, n_rho=2)
        objective = Objective("f-log-euclidean", TensorField(exp_coeffs(data_logs)), mask_values,
                              params).value

        for _ in range(20):
            l1 = rng.standard_normal((4, 4, 6))
            l2 = rng.standard_normal((4, 4, 6))
            mid = objective(0.5 * (l1 + l2))
            assert mid <= 0.5 * objective(l1) + 0.5 * objective(l2) + 1e-9


# ---- batched evaluators ----

def test_batched_evaluators_match_per_element():
    rng = np.random.default_rng(59)
    batch = rng.standard_normal((5, 3, 4, 6))
    data = rng.standard_normal((3, 4, 6))
    mask = rng.random((3, 4)) > 0.4
    mask[0, 0] = True
    params = FunctionalParams(p=1.3, s=0.5, l=1, n_rho=2)
    offsets = phi_kernel_offsets(3, 4, params)
    fvals = fidelity_energy(batch, data, mask, params.p)
    pvals = pairwise_energy(batch, offsets, params.p)
    tvals = theta_energy(batch, params.p)
    assert fvals.shape == pvals.shape == tvals.shape == (5,)
    for i in range(5):
        assert fvals[i] == fidelity_energy(batch[i], data, mask, params.p)
        assert pvals[i] == pairwise_energy(batch[i], offsets, params.p)
        assert tvals[i] == theta_energy(batch[i], params.p)


def test_evaluator_gradients_match_finite_differences(fd_gradient):
    rng = np.random.default_rng(60)
    logs = rng.standard_normal((3, 3, 6))
    data = rng.standard_normal((3, 3, 6))
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 1] = False
    params = FunctionalParams(p=1.5, s=0.5, l=1, n_rho=2)
    offsets = phi_kernel_offsets(3, 3, params)

    value, grad = fidelity_energy(logs, data, mask, params.p, need_grad=True)
    fd = fd_gradient(lambda x: fidelity_energy(x, data, mask, params.p), logs)
    assert np.abs(grad - fd).max() < 1e-7 * max(1.0, np.abs(fd).max())

    value, grad = pairwise_energy(logs, offsets, params.p, need_grad=True)
    fd = fd_gradient(lambda x: pairwise_energy(x, offsets, params.p), logs)
    assert np.abs(grad - fd).max() < 1e-7 * max(1.0, np.abs(fd).max())

    value, grad = theta_energy(logs, params.p, need_grad=True)
    fd = fd_gradient(lambda x: theta_energy(x, params.p), logs)
    assert np.abs(grad - fd).max() < 1e-7 * max(1.0, np.abs(fd).max())


# Reference gradients written the direct way: the Frobenius weights applied
# to every pair term before it is summed.  The evaluators apply them once to
# the sum; the weights are 1 and 2, so the bits must be the same.
W3 = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])


def reference_grad_factor(nsq, p):
    safe = np.where(nsq > 0.0, nsq, 1.0)
    return np.where(nsq > 0.0, np.power(safe, 0.5 * p - 1.0), 0.0)


def reference_fidelity(rep, data_rep, mask, p):
    diff = rep - data_rep
    nsq = weighted_norm_sq(diff)
    energy = np.where(mask, np.power(nsq, 0.5 * p), 0.0).sum(axis=(-2, -1))
    h = reference_grad_factor(nsq, p)
    return energy, (p * np.where(mask, h, 0.0))[..., None] * (W3 * diff)


def reference_pairwise(rep, offsets, p):
    height, width = rep.shape[-3], rep.shape[-2]
    energy = np.zeros(rep.shape[:-3])
    grad = np.zeros_like(rep)
    for di, dj, kernel in offsets:
        if di >= height or abs(dj) >= width:
            continue
        rows_a, rows_b = slice(0, height - di), slice(di, height)
        if dj >= 0:
            cols_a, cols_b = slice(0, width - dj), slice(dj, width)
        else:
            cols_a, cols_b = slice(-dj, width), slice(0, width + dj)
        diff = rep[..., rows_a, cols_a, :] - rep[..., rows_b, cols_b, :]
        nsq = weighted_norm_sq(diff)
        energy = energy + 2.0 * kernel * np.power(nsq, 0.5 * p).sum(axis=(-2, -1))
        t = (2.0 * kernel * p * reference_grad_factor(nsq, p))[..., None] * (W3 * diff)
        grad[..., rows_a, cols_a, :] += t
        grad[..., rows_b, cols_b, :] -= t
    return energy, grad


def reference_theta(coeffs, p):
    gsq = np.zeros(coeffs.shape[:-1])
    dx = coeffs[..., :, 1:, :] - coeffs[..., :, :-1, :]
    gsq[..., :, :-1] += weighted_norm_sq(dx)
    dy = coeffs[..., 1:, :, :] - coeffs[..., :-1, :, :]
    gsq[..., :-1, :] += weighted_norm_sq(dy)
    energy = np.power(gsq, 0.5 * p).sum(axis=(-2, -1))
    h = reference_grad_factor(gsq, p)
    grad = np.zeros_like(coeffs)
    t = (p * h[..., :, :-1])[..., None] * (W3 * dx)
    grad[..., :, 1:, :] += t
    grad[..., :, :-1, :] -= t
    t = (p * h[..., :-1, :])[..., None] * (W3 * dy)
    grad[..., 1:, :, :] += t
    grad[..., :-1, :, :] -= t
    return energy, grad


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
def test_evaluator_gradients_bit_match_reference(p, batch):
    rng = np.random.default_rng(62)
    shape = batch + (5, 6, 6)
    rep = rng.standard_normal(shape)
    # repeated pixels and constant rows: pair, forward and fidelity
    # differences of exactly zero (the nsq == 0 branch)
    rep[..., 1, :, :] = rep[..., 0, :, :]
    rep[..., 3, :, :] = rep[..., 3, :1, :]
    data = rng.standard_normal(shape[-3:])
    data[2:4] = rep[(0,) * len(batch) + (slice(2, 4),)]
    mask = rng.random((5, 6)) > 0.3
    mask[0, 0] = True
    offsets = phi_kernel_offsets(5, 6, FunctionalParams(p=p, s=0.5, l=1, n_rho=3))
    for got, want in [
        (fidelity_energy(rep, data, mask, p, need_grad=True),
         reference_fidelity(rep, data, mask, p)),
        (pairwise_energy(rep, offsets, p, need_grad=True), reference_pairwise(rep, offsets, p)),
        (theta_energy(rep, p, need_grad=True), reference_theta(rep, p)),
    ]:
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[1].shape == shape


# ---- the Objective bundle ----

def test_objective_value_grad_and_batches_agree_for_every_kind(fd_gradient):
    # the solver takes a trial's value from value_grad when it evaluates the
    # trial with its gradient, and from value otherwise: the two must agree to
    # the bit, or accepted steps would depend on which one ran
    rng = np.random.default_rng(61)
    data = random_field(rng, 3, 3)
    point = random_field(rng, 3, 3)
    mask = np.ones((3, 3), dtype=bool)
    mask[2, 0] = False
    for p in (1.1, 1.5, 2.0, 3.0):
        for l in (0, 1):
            params = FunctionalParams(p=p, s=0.5, alpha=0.7, beta=0.4, l=l, n_rho=2)
            for kind in ("f-log-euclidean", "f-euclidean", "fc"):
                objective = Objective(kind, data, mask, params)
                x = objective.start(point)
                value, grad = objective.value_grad(x)
                assert value == float(objective.value(x))
                batch = objective.value(np.stack([x, 0.9 * x]))
                assert batch[0] == objective.value(x) and batch[1] == objective.value(0.9 * x)
                fd = fd_gradient(objective.value, x)
                assert np.abs(grad - fd).max() < 1e-6 * max(1.0, np.abs(fd).max())


def test_objective_rejects_mismatched_mask():
    with pytest.raises(ValueError, match="does not match"):
        Objective("fc", identity_field(2, 3), Mask.full(3, 2), FunctionalParams())
