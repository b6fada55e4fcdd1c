"""Tests for tensor-field containers, the mollifier, and the energies."""
from __future__ import annotations

import math

import numpy as np
import pytest

from dtfield.field import (
    FunctionalParams,
    Mask,
    Mollifier,
    Objective,
    TensorField,
    build_mollifier,
    fidelity,
    fidelity_energy,
    from_log_coords,
    functional_F,
    functional_FC,
    pairwise_energy,
    phi_kernel_offsets,
    phi_regularizer,
    theta_energy,
    theta_regularizer,
    to_log_coords,
)
from dtfield.spd import (
    EPSILON_DEFAULT,
    coeff_weights,
    coeffs_to_matrices,
    dist_log_euclidean,
    exp_coeffs,
    log_coeffs,
    matrices_to_coeffs,
    weighted_norm_sq,
)


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
    """Quadruple loop over all ordered pixel pairs; independent oracle."""
    moll = build_mollifier(params.n_rho) if params.l == 1 else None
    tensors = [[w.tensor_at(r, c) for c in range(w.width)] for r in range(w.height)]
    total = 0.0
    for y1 in range(w.height):
        for x1 in range(w.width):
            for y2 in range(w.height):
                for x2 in range(w.width):
                    if (y1, x1) == (y2, x2):
                        continue
                    weight = 1.0
                    if moll is not None:
                        weight = moll.weight(x2 - x1, y2 - y1)
                        if weight == 0.0:
                            continue
                    a, b = tensors[y1][x1], tensors[y2][x2]
                    if metric == "log-euclidean":
                        d = dist_log_euclidean(a, b)
                    else:
                        d = math.sqrt(((a.matrix - b.matrix) ** 2).sum())
                    r = math.hypot(y1 - y2, x1 - x2)
                    total += weight * d ** params.p / r ** (2.0 + params.p * params.s)
    return total


# ---- mollifier ----

def test_mollifier_radius_one_support():
    m = build_mollifier(1)
    assert (m.weights > 0).sum() == 5
    assert m.weights[0, 0] == 0.0  # corner outside the unit disk
    assert abs(m.weights.sum() - 1.0) < 1e-12


def test_mollifier_radius_two_support():
    m = build_mollifier(2)
    # offsets with dx^2+dy^2 <= 4: center, 4 axis units, 4 diagonals, 4 axis twos
    assert (m.weights > 0).sum() == 13


def test_mollifier_symmetries():
    for n in (1, 2, 3):
        m = build_mollifier(n)
        for dx in range(-n, n + 1):
            for dy in range(-n, n + 1):
                w = m.weight(dx, dy)
                assert w == m.weight(-dx, dy) == m.weight(dx, -dy) == m.weight(dy, dx)


def test_mollifier_normalization_all_radii():
    for n in range(1, 10):
        assert abs(build_mollifier(n).weights.sum() - 1.0) < 1e-12


def test_mollifier_monotone_in_radius():
    m = build_mollifier(3)
    center = m.weight(0, 0)
    assert center > m.weight(1, 0) > m.weight(2, 0) > m.weight(3, 0) > 0.0


def test_mollifier_validation():
    with pytest.raises(ValueError):
        Mollifier(1, np.full((3, 3), 1.0 / 9.0))  # corners break disk support
    bad = build_mollifier(1).weights.copy()
    bad[1, 1] += 0.1
    with pytest.raises(ValueError):
        Mollifier(1, bad)  # sum != 1


# ---- containers ----

def test_tensor_field_accessors():
    rng = np.random.default_rng(40)
    w = random_field(rng, 3, 4)
    assert w.height == 3 and w.width == 4
    tensors = w.tensors
    assert len(tensors) == 12
    t = w.tensor_at(1, 2)
    assert np.array_equal(t.mat.coeffs, w.coeffs[1, 2])
    rebuilt = TensorField.from_tensors(tensors, 3, 4)
    assert np.array_equal(rebuilt.coeffs, w.coeffs)


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


def test_mask_validation():
    with pytest.raises(ValueError):
        Mask(np.zeros((2, 2), dtype=bool))
    m = Mask.full(2, 3)
    assert m.height == 2 and m.width == 3 and m.values.all()
    with pytest.raises(ValueError):
        m.values[0, 0] = False


# ---- fidelity ----

def test_fidelity_zero_on_equal_fields():
    rng = np.random.default_rng(41)
    w = random_field(rng, 3, 3)
    assert fidelity(w, w, Mask.full(3, 3), p=1.5) == 0.0


def test_fidelity_single_pixel_analytic():
    w = identity_field(1, 1)
    data = TensorField(np.array([[[np.e, 1.0, 1.0, 0, 0, 0]]]))
    got = fidelity(w, data, Mask.full(1, 1), p=2.0, metric="log-euclidean")
    assert abs(got - 1.0) < 1e-12


def test_fidelity_all_false_mask_is_empty_sum():
    rng = np.random.default_rng(42)
    w = random_field(rng, 2, 2)
    data = random_field(rng, 2, 2)
    assert fidelity(w, data, np.zeros((2, 2), dtype=bool), p=2.0) == 0.0


def test_fidelity_euclidean_metric():
    w = identity_field(1, 1)
    data = TensorField(np.array([[[2.0, 1.0, 1.0, 0, 0, 0]]]))
    got = fidelity(w, data, Mask.full(1, 1), p=2.0, metric="euclidean")
    assert abs(got - 1.0) < 1e-12  # Frobenius difference is the (1,1) entry


def test_fidelity_dimension_mismatch():
    rng = np.random.default_rng(43)
    with pytest.raises(ValueError):
        fidelity(random_field(rng, 2, 2), random_field(rng, 2, 3), Mask.full(2, 2), 2.0)
    with pytest.raises(ValueError):
        fidelity(random_field(rng, 2, 2), random_field(rng, 2, 2), Mask.full(3, 3), 2.0)


def test_fidelity_monotone_under_mask_removal():
    rng = np.random.default_rng(44)
    w = random_field(rng, 4, 4)
    data = random_field(rng, 4, 4)
    mask = np.ones((4, 4), dtype=bool)
    value = fidelity(w, data, mask, p=1.3)
    order = [(r, c) for r in range(4) for c in range(4)]
    rng.shuffle(order)
    for r, c in order[:10]:
        mask = mask.copy()
        mask[r, c] = False
        smaller = fidelity(w, data, mask, p=1.3)
        assert smaller <= value + 1e-15
        value = smaller


# ---- phi regularizer ----

def test_phi_constant_field_is_zero():
    w = identity_field(3, 3)
    params = FunctionalParams(p=1.1, s=0.5, l=0)
    assert phi_regularizer(w, params) == 0.0


def test_phi_single_pair_analytic():
    w = pair_field(I_COEFFS, E2_COEFFS)
    params = FunctionalParams(p=2.0, s=0.5, l=0)
    assert abs(phi_regularizer(w, params) - 8.0) < 1e-12


def test_phi_matches_brute_force_all_pairs():
    rng = np.random.default_rng(45)
    w = random_field(rng, 4, 4)
    for p, s in ((1.1, 0.5), (2.0, 0.25)):
        params = FunctionalParams(p=p, s=s, l=0)
        for metric in ("log-euclidean", "euclidean"):
            got = phi_regularizer(w, params, metric=metric)
            want = brute_force_phi(w, params, metric)
            assert abs(got - want) <= 1e-11 * max(1.0, want)


def test_phi_matches_brute_force_mollified():
    rng = np.random.default_rng(46)
    w = random_field(rng, 5, 4)
    params = FunctionalParams(p=1.5, s=0.4, l=1, n_rho=2)
    for metric in ("log-euclidean", "euclidean"):
        got = phi_regularizer(w, params, metric=metric)
        want = brute_force_phi(w, params, metric)
        assert abs(got - want) <= 1e-11 * max(1.0, want)


def test_phi_scale_invariant_log_metric():
    rng = np.random.default_rng(47)
    w = random_field(rng, 3, 3)
    scaled = TensorField(w.coeffs * 3.0)
    params = FunctionalParams(p=1.1, s=0.5, l=1, n_rho=2)
    a = phi_regularizer(w, params)
    b = phi_regularizer(scaled, params)
    assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_phi_inversion_invariant_log_metric():
    rng = np.random.default_rng(48)
    w = random_field(rng, 3, 3)
    inverted = TensorField(exp_coeffs(-log_coeffs(w.coeffs)))
    params = FunctionalParams(p=1.4, s=0.5, l=0)
    a = phi_regularizer(w, params)
    b = phi_regularizer(inverted, params)
    assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_phi_unitary_invariant_both_metrics():
    rng = np.random.default_rng(49)
    w = random_field(rng, 3, 3)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    mats = np.einsum("ik,rckl,jl->rcij", u, coeffs_to_matrices(w.coeffs, 3), u)
    rotated = TensorField(matrices_to_coeffs(mats))
    params = FunctionalParams(p=1.1, s=0.5, l=1, n_rho=2)
    for metric in ("log-euclidean", "euclidean"):
        a = phi_regularizer(w, params, metric=metric)
        b = phi_regularizer(rotated, params, metric=metric)
        assert abs(a - b) <= 1e-9 * max(1.0, a)


def test_phi_euclidean_scale_invariance_fails():
    rng = np.random.default_rng(50)
    w = random_field(rng, 3, 3)
    scaled = TensorField(w.coeffs * 2.0)
    params = FunctionalParams(p=2.0, s=0.5, l=0)
    a = phi_regularizer(w, params, metric="euclidean")
    b = phi_regularizer(scaled, params, metric="euclidean")
    assert b > 1.5 * a  # scales like 2^p, so invariance is clearly violated


def test_phi_mollifier_gating_consistency():
    # constant kernel on a disk covering the whole field: the windowed sum
    # must equal the all-pairs sum scaled by the constant weight
    rng = np.random.default_rng(51)
    w = random_field(rng, 3, 3)
    radius = 4  # covers the 3x3 diameter
    side = 2 * radius + 1
    offs = np.arange(side) - radius
    inside = (offs[:, None] ** 2 + offs[None, :] ** 2) <= radius ** 2
    constant = Mollifier(radius, np.where(inside, 1.0 / inside.sum(), 0.0))
    params1 = FunctionalParams(p=1.3, s=0.5, l=1, n_rho=radius)
    params0 = FunctionalParams(p=1.3, s=0.5, l=0)
    windowed = phi_regularizer(w, params1, mollifier=constant)
    allpairs = phi_regularizer(w, params0)
    assert abs(windowed * inside.sum() - allpairs) <= 1e-11 * max(1.0, allpairs)


# ---- functional F ----

def test_functional_f_alpha_zero_equals_fidelity():
    rng = np.random.default_rng(52)
    w = random_field(rng, 3, 3)
    data = random_field(rng, 3, 3)
    params = FunctionalParams(p=1.1, s=0.5, alpha=0.0, l=0)
    mask = Mask.full(3, 3)
    assert functional_F(w, data, mask, params) == fidelity(w, data, mask, params.p)
    assert functional_F(data, data, mask, params) == 0.0


def test_functional_f_single_pair_composite():
    w = pair_field(I_COEFFS, E2_COEFFS)
    params = FunctionalParams(p=2.0, s=0.5, alpha=0.5, l=0)
    got = functional_F(w, w, Mask.full(1, 2), params)
    assert abs(got - 4.0) < 1e-12


# ---- theta and F_C ----

def test_theta_constant_field_is_zero():
    assert theta_regularizer(identity_field(3, 3), p=2.0) == 0.0


def test_theta_single_difference_analytic():
    coeffs = np.zeros((1, 2, 6))
    coeffs[0, 1, :3] = 1.0
    assert abs(theta_regularizer(coeffs, p=2.0) - 3.0) < 1e-15


def test_theta_translation_and_reflection_invariance():
    rng = np.random.default_rng(53)
    coeffs = rng.standard_normal((4, 5, 6))
    shift = rng.standard_normal(6)
    for p in (1.1, 2.0):
        base = theta_regularizer(coeffs, p)
        assert abs(theta_regularizer(coeffs + shift, p) - base) <= 1e-12 * max(1.0, base)
        assert abs(theta_regularizer(-coeffs, p) - base) <= 1e-12 * max(1.0, base)


def test_theta_brute_force():
    rng = np.random.default_rng(54)
    coeffs = rng.standard_normal((3, 4, 6))
    p = 1.7
    w = coeff_weights(3)
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
    assert abs(theta_regularizer(coeffs, p) - total) <= 1e-12 * max(1.0, total)


def test_functional_fc_zero_cases():
    rng = np.random.default_rng(55)
    data = random_field(rng, 3, 3)
    mask = Mask.full(3, 3)
    params = FunctionalParams(p=2.0, s=0.5, beta=0.0)
    assert functional_FC(data, data, mask, params) == 0.0
    constant = identity_field(3, 3)
    params2 = FunctionalParams(p=2.0, s=0.5, beta=7.0)
    assert functional_FC(constant, constant, mask, params2) == 0.0


def test_functional_fc_brute_force():
    rng = np.random.default_rng(56)
    w = random_field(rng, 3, 3)
    data = random_field(rng, 3, 3)
    mask_values = rng.random((3, 3)) > 0.3
    mask_values[0, 0] = True
    params = FunctionalParams(p=1.6, s=0.5, beta=0.8)
    got = functional_FC(w, data, Mask(mask_values), params)
    expected = 0.0
    for r in range(3):
        for c in range(3):
            if mask_values[r, c]:
                diff = w.tensor_at(r, c).matrix - data.tensor_at(r, c).matrix
                expected += ((diff ** 2).sum()) ** (params.p / 2.0)
    expected += params.beta * theta_regularizer(w.coeffs, params.p)
    assert abs(got - expected) <= 1e-11 * max(1.0, expected)


# ---- log coordinates ----

def test_log_coords_identity_field():
    assert np.abs(to_log_coords(identity_field(2, 2))).max() < 1e-15


def test_log_coords_roundtrip():
    rng = np.random.default_rng(57)
    w = random_field(rng, 4, 4, scale=1.5)
    back = from_log_coords(to_log_coords(w), w.log_bound, EPSILON_DEFAULT)
    assert np.abs(back.coeffs - w.coeffs).max() <= 1e-9 * max(1.0, np.abs(w.coeffs).max())


def test_from_log_coords_clamps_to_ball():
    logs = np.zeros((1, 1, 6))
    logs[0, 0, :3] = [30.0, -20.0, 10.0]  # norm sqrt(1400) > 36... scaled
    logs *= 2.0
    w = from_log_coords(logs, 36.0, EPSILON_DEFAULT)
    out_norm = np.sqrt(weighted_norm_sq(to_log_coords(w)))
    assert abs(out_norm.max() - 36.0) < 1e-6


# ---- convexity in log coordinates ----

def test_functional_convex_along_segments():
    rng = np.random.default_rng(58)
    mask_values = np.ones((4, 4), dtype=bool)
    data_logs = rng.standard_normal((4, 4, 6))
    for p in (1.1, 2.0):
        params = FunctionalParams(p=p, s=0.5, alpha=0.7, l=1, n_rho=2)
        objective = Objective("f-log-euclidean", data_logs, mask_values, params).value

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


def finite_difference_gradient(func, point, step=1e-6):
    grad = np.zeros_like(point)
    it = np.nditer(point, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        plus = point.copy()
        plus[idx] += step
        minus = point.copy()
        minus[idx] -= step
        grad[idx] = (func(plus) - func(minus)) / (2.0 * step)
    return grad


def test_evaluator_gradients_match_finite_differences():
    rng = np.random.default_rng(60)
    logs = rng.standard_normal((3, 3, 6))
    data = rng.standard_normal((3, 3, 6))
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 1] = False
    params = FunctionalParams(p=1.5, s=0.5, l=1, n_rho=2)
    offsets = phi_kernel_offsets(3, 3, params)

    value, grad = fidelity_energy(logs, data, mask, params.p, need_grad=True)
    fd = finite_difference_gradient(lambda x: float(fidelity_energy(x, data, mask, params.p)), logs)
    assert np.abs(grad - fd).max() < 1e-7 * max(1.0, np.abs(fd).max())

    value, grad = pairwise_energy(logs, offsets, params.p, need_grad=True)
    fd = finite_difference_gradient(lambda x: float(pairwise_energy(x, offsets, params.p)), logs)
    assert np.abs(grad - fd).max() < 1e-7 * max(1.0, np.abs(fd).max())

    value, grad = theta_energy(logs, params.p, need_grad=True)
    fd = finite_difference_gradient(lambda x: float(theta_energy(x, params.p)), logs)
    assert np.abs(grad - fd).max() < 1e-7 * max(1.0, np.abs(fd).max())


# ---- the Objective bundle ----

def test_objective_value_grad_and_batches_agree_for_every_kind():
    rng = np.random.default_rng(61)
    data = random_field(rng, 3, 3)
    point = random_field(rng, 3, 3)
    mask = np.ones((3, 3), dtype=bool)
    mask[2, 0] = False
    params = FunctionalParams(p=1.5, s=0.5, alpha=0.7, beta=0.4, l=1, n_rho=2)
    for kind in ("f-log-euclidean", "f-euclidean", "fc"):
        objective = Objective(kind, data, mask, params)
        x = objective.start(point)
        value, grad = objective.value_grad(x)
        assert value == float(objective.value(x))
        batch = objective.value(np.stack([x, 0.9 * x]))
        assert batch[0] == objective.value(x) and batch[1] == objective.value(0.9 * x)
        fd = finite_difference_gradient(lambda y: float(objective.value(y)), x)
        assert np.abs(grad - fd).max() < 1e-6 * max(1.0, np.abs(fd).max())


def test_objective_rejects_mismatched_mask():
    with pytest.raises(ValueError, match="does not match"):
        Objective("fc", identity_field(2, 3), Mask.full(3, 2), FunctionalParams())
