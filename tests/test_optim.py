"""Tests for the projected gradient solver and its gradients."""
from __future__ import annotations

import numpy as np
import pytest

from dtfield.field import (
    FunctionalParams,
    Mask,
    Objective,
    TensorField,
    functional_F,
    functional_FC,
)
from dtfield.optim import (
    LineSearchError,
    SolveReport,
    SolverConfig,
    default_init,
    grad_F_fd,
    grad_F_log,
    solve,
)
from dtfield.spd import (
    coeff_weights,
    dist_log_euclidean,
    exp_coeffs,
    log_coeffs,
    weighted_norm_sq,
)
from dtfield.synth import (
    NoiseSpec,
    corrupt_field,
    make_main_direction_phantom,
    make_staircase_phantom,
)

W3 = coeff_weights(3)


def random_field(height, width, seed, scale=0.8):
    rng = np.random.default_rng(seed)
    logs = rng.normal(scale=scale, size=(height, width, 6))
    return TensorField(exp_coeffs(logs), 36.0)


def constant_field(height, width, coeffs):
    return TensorField(np.tile(np.asarray(coeffs, dtype=np.float64), (height, width, 1)), 36.0)


def summed_log_distance(a, b):
    diff = log_coeffs(a.coeffs) - log_coeffs(b.coeffs)
    return float(np.sqrt(weighted_norm_sq(diff)).sum())


# ---- configuration and report containers ----

def test_config_defaults():
    config = SolverConfig()
    assert config.max_iters == 50
    assert config.armijo_c == 1e-4
    assert config.backtrack_factor == 0.5
    assert config.init_step == 1.0
    assert config.rel_tol == 1e-8


@pytest.mark.parametrize("kwargs", [
    {"max_iters": 0},
    {"max_iters": 2.5},
    {"armijo_c": -1.0},
    {"backtrack_factor": 1.0},
    {"backtrack_factor": 0.0},
    {"init_step": 0.0},
    {"rel_tol": -1e-8},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("cls,name", [
    (SolverConfig, "armijo_c"), (SolverConfig, "init_step"), (SolverConfig, "rel_tol"),
    (FunctionalParams, "p"), (FunctionalParams, "s"), (FunctionalParams, "alpha"),
    (FunctionalParams, "beta"), (FunctionalParams, "z"), (FunctionalParams, "epsilon"),
])
def test_parameters_reject_non_finite_values(cls, name):
    # a NaN weight used to switch its regularizer off silently, and an
    # infinite one to fail later through numpy warnings
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            cls(**{name: value})


def test_report_json_keys():
    report = SolveReport(iterations=2, objective_trajectory=[3.0, 2.0, 1.5],
                         final_objective=1.5, converged=True, seconds=0.25, evaluations=5,
                         restarts=1)
    payload = report.to_json_dict()
    assert list(payload) == ["iterations", "objective_trajectory", "final_objective",
                             "converged", "seconds", "evaluations", "restarts"]
    assert payload["objective_trajectory"] == [3.0, 2.0, 1.5]
    assert payload["converged"] is True
    assert payload["evaluations"] == 5
    assert payload["restarts"] == 1


def test_report_rejects_increasing_trajectory():
    with pytest.raises(ValueError):
        SolveReport(iterations=1, objective_trajectory=[1.0, 2.0],
                    final_objective=2.0, converged=False, seconds=0.0)


def test_report_rejects_inconsistent_lengths():
    with pytest.raises(ValueError):
        SolveReport(iterations=3, objective_trajectory=[1.0, 0.5],
                    final_objective=0.5, converged=False, seconds=0.0)
    with pytest.raises(ValueError):
        SolveReport(iterations=1, objective_trajectory=[1.0, 0.5],
                    final_objective=0.4, converged=False, seconds=0.0)


# ---- analytic gradient ----

def test_gradient_zero_at_data_for_constant_field():
    w = constant_field(4, 4, [2.0, 1.5, 1.0, 0.2, 0.1, -0.1])
    params = FunctionalParams(p=1.1, alpha=0.7, s=0.5, l=1, n_rho=2)
    grad = grad_F_log(log_coeffs(w.coeffs), w, Mask.full(4, 4), params)
    assert np.all(grad == 0.0)


def test_gradient_alpha_zero_p2_closed_form():
    data = random_field(5, 4, seed=3)
    w = random_field(5, 4, seed=4)
    L = log_coeffs(w.coeffs)
    Ld = log_coeffs(data.coeffs)
    mask = np.ones((5, 4), dtype=bool)
    mask[2, 1] = False
    params = FunctionalParams(p=2.0, alpha=0.0)
    grad = grad_F_log(L, data, mask, params)
    expected = 2.0 * W3 * (L - Ld)
    expected[~mask] = 0.0
    assert np.allclose(grad, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("p,tol", [(2.0, 1e-5), (1.1, 1e-4)])
def test_gradient_matches_finite_differences(p, tol):
    data = random_field(6, 6, seed=10)
    w = random_field(6, 6, seed=11)
    L = log_coeffs(w.coeffs)
    mask = Mask.full(6, 6)
    params = FunctionalParams(p=p, alpha=0.4, s=0.5, l=1, n_rho=2)
    analytic = grad_F_log(L, data, mask, params)
    numeric = grad_F_fd(L, data, mask, params)
    rel = np.abs(analytic - numeric).max() / np.abs(analytic).max()
    assert rel < tol


def test_gradient_matches_finite_differences_all_pairs_kernel():
    data = random_field(4, 5, seed=20)
    w = random_field(4, 5, seed=21)
    L = log_coeffs(w.coeffs)
    params = FunctionalParams(p=1.3, alpha=0.2, s=0.7, l=0)
    analytic = grad_F_log(L, data, Mask.full(4, 5), params)
    numeric = grad_F_fd(L, data, Mask.full(4, 5), params)
    rel = np.abs(analytic - numeric).max() / np.abs(analytic).max()
    assert rel < 1e-5


def test_fd_error_scales_quadratically_in_step():
    # central differences have O(h^2) truncation error; p must be far from 2
    # because the p=2 objective is quadratic and centrals are then exact
    data = random_field(6, 6, seed=30)
    w = random_field(6, 6, seed=31)
    L = log_coeffs(w.coeffs)
    mask = Mask.full(6, 6)
    params = FunctionalParams(p=1.1, alpha=0.4, s=0.5, l=1, n_rho=2)
    analytic = grad_F_log(L, data, mask, params)
    err_h = np.abs(grad_F_fd(L, data, mask, params, fd_step=1e-3) - analytic).max()
    err_2h = np.abs(grad_F_fd(L, data, mask, params, fd_step=2e-3) - analytic).max()
    assert 3.0 < err_2h / err_h < 5.5


def test_fd_one_sided_fallback_at_ball_boundary():
    # a pixel sitting exactly on the log-norm sphere forces one-sided
    # differences for the coordinates whose central stencil would leave the ball
    z = 4.0
    logs = np.zeros((2, 2, 6))
    logs[0, 0, :3] = z / np.sqrt(3.0)
    logs[1, 1, :3] = -0.3
    logs[0, 1, 3] = 0.2
    w = TensorField(exp_coeffs(logs), z)
    data = TensorField(exp_coeffs(np.full((2, 2, 6), 0.1) * np.array([1, 1, 1, 0, 0, 0])), z)
    params = FunctionalParams(p=1.5, alpha=0.3, s=0.5, l=1, n_rho=1, z=z)
    analytic = grad_F_log(logs, data, Mask.full(2, 2), params)
    numeric = grad_F_fd(logs, data, Mask.full(2, 2), params)
    rel = np.abs(analytic - numeric).max() / np.abs(analytic).max()
    assert rel < 1e-4


# ---- solver examples with known answers ----

def test_alpha_zero_full_mask_returns_data():
    data = random_field(4, 5, seed=1)
    out, report = solve(data, Mask.full(4, 5), FunctionalParams(alpha=0.0))
    assert report.iterations <= 1
    assert report.converged
    assert report.final_objective <= 1e-12
    worst = max(dist_log_euclidean(out.tensor_at(i, j), data.tensor_at(i, j))
                for i in range(4) for j in range(5))
    assert worst < 1e-8


def test_one_by_two_closed_form_log_metric():
    # p=2 log-metric objective on a 1x2 field is per-coefficient quadratic:
    # (1+g) L0 - g L1 = L0_data, -g L0 + (1+g) L1 = L1_data with g = 2*alpha
    alpha = 0.7
    data = random_field(1, 2, seed=40)
    params = FunctionalParams(p=2.0, alpha=alpha, s=0.5, l=0)
    config = SolverConfig(max_iters=2000, rel_tol=1e-14)
    out, report = solve(data, Mask.full(1, 2), params, config=config)
    Ld = log_coeffs(data.coeffs)
    g = 2.0 * alpha
    system = np.array([[1.0 + g, -g], [-g, 1.0 + g]])
    expected = np.linalg.solve(system, Ld[0])
    assert np.abs(log_coeffs(out.coeffs)[0] - expected).max() < 1e-6
    assert report.converged


def test_one_by_two_closed_form_sobolev():
    # FC with p=2 on a 1x2 field: (1+b) C0 - b C1 = C0_data per coefficient
    beta = 0.4
    data = random_field(1, 2, seed=41, scale=0.4)
    params = FunctionalParams(p=2.0, beta=beta)
    config = SolverConfig(max_iters=2000, rel_tol=1e-14)
    out, report = solve(data, Mask.full(1, 2), params, objective="fc", config=config)
    system = np.array([[1.0 + beta, -beta], [-beta, 1.0 + beta]])
    expected = np.linalg.solve(system, data.coeffs[0])
    assert np.abs(out.coeffs[0] - expected).max() < 1e-6
    assert report.converged


def test_two_initializations_agree():
    data = random_field(5, 5, seed=11)
    params = FunctionalParams(p=1.1, alpha=0.3, s=0.5, l=1, n_rho=2)
    config = SolverConfig(max_iters=20000, rel_tol=1e-12)
    out_a, rep_a = solve(data, Mask.full(5, 5), params, config=config)
    init_b = constant_field(5, 5, [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    out_b, rep_b = solve(data, Mask.full(5, 5), params, config=config, init=init_b)
    assert rep_a.converged and rep_b.converged
    assert summed_log_distance(out_a, out_b) < 1e-4


# ---- solver invariants ----

def test_trajectory_non_increasing_and_consistent():
    data = random_field(5, 5, seed=50)
    params = FunctionalParams(p=2.0, alpha=0.3, s=0.5, l=1, n_rho=2)
    out, report = solve(data, Mask.full(5, 5), params, config=SolverConfig(max_iters=300))
    traj = report.objective_trajectory
    assert len(traj) == report.iterations + 1
    assert all(b <= a for a, b in zip(traj, traj[1:]))
    assert report.final_objective == traj[-1]
    assert report.seconds >= 0.0


def random_5x5():
    return random_field(5, 5, seed=51, scale=0.5), Mask.full(5, 5)


def noisy_staircase_8x8():
    return corrupt_field(make_staircase_phantom(8), NoiseSpec(1600, 0)), Mask.full(8, 8)


def noisy_band_16x16_with_hole():
    """16x16 main-direction phantom with rows 5-10, columns 0-5 missing."""
    present = np.ones((16, 16), dtype=bool)
    present[5:11, 0:6] = False
    data = corrupt_field(make_main_direction_phantom(16), NoiseSpec(1600, 0))
    return data, Mask(present)


def test_momentum_cuts_iterations_to_tolerance():
    # plain projected gradient took 190 iterations on this p = 2 inpainting
    # problem; the momentum steps reach the same tolerance in about 52, and
    # the function-value restart runs along the way
    data, mask = noisy_band_16x16_with_hole()
    _, report = solve(data, mask, FunctionalParams(p=2.0, alpha=1.0, n_rho=2),
                      config=SolverConfig(max_iters=100_000, rel_tol=1e-10))
    assert report.converged
    assert report.iterations <= 95
    assert report.restarts >= 1


@pytest.mark.parametrize("objective,params", [
    ("f-euclidean", FunctionalParams(p=1.1, alpha=2.75, n_rho=3)),
    ("fc", FunctionalParams(p=1.1, beta=2.0)),
])
def test_warm_ladder_keeps_evaluations_per_iteration_low(objective, params):
    # each ladder starts one factor above the last accepted step instead of
    # re-climbing to init_step; the re-climbing solver spent about 18
    # objective evaluations per iteration on these solves
    data = corrupt_field(make_staircase_phantom(10), NoiseSpec(1600, 0))
    _, report = solve(data, Mask.full(10, 10), params, objective=objective,
                      config=SolverConfig(max_iters=80, rel_tol=1e-15))
    assert report.iterations == 80
    assert report.evaluations <= 4 * report.iterations
    assert report.restarts == 0  # momentum runs in log coordinates only


@pytest.mark.parametrize("objective", ["f-log-euclidean", "f-euclidean", "fc"])
def test_evaluations_count_every_objective_value(objective, monkeypatch):
    # the initial value and one per trial of every ladder, momentum ladders
    # included; the value that comes with each gradient is not counted
    calls = []
    value = Objective.value

    def counted(self, x):
        calls.append(None)
        return value(self, x)

    monkeypatch.setattr(Objective, "value", counted)
    data, _ = noisy_staircase_8x8()
    present = np.ones((8, 8), dtype=bool)
    present[2:5, 3:6] = False
    _, report = solve(data, Mask(present), FunctionalParams(p=2.0, alpha=2.75, beta=2.0),
                      objective=objective, config=SolverConfig(max_iters=100_000))
    assert report.converged
    assert report.evaluations == len(calls)
    assert (report.restarts >= 1) == (objective == "f-log-euclidean")


@pytest.mark.parametrize("objective,params,make_data,config", [
    pytest.param("f-log-euclidean", FunctionalParams(p=1.1, alpha=0.3, s=0.5, l=1, n_rho=2),
                 random_5x5, SolverConfig(max_iters=5000), id="f-log-euclidean-params0"),
    pytest.param("f-euclidean", FunctionalParams(p=1.3, alpha=0.2, s=0.5, l=1, n_rho=2),
                 random_5x5, SolverConfig(max_iters=5000), id="f-euclidean-params1"),
    pytest.param("fc", FunctionalParams(p=2.0, beta=0.5),
                 random_5x5, SolverConfig(max_iters=5000), id="fc-params2"),
    # a p = 1.1 denoise whose last ladder used to end on a large
    # Armijo-failing trial, from which a fresh ladder still descended
    pytest.param("f-log-euclidean", FunctionalParams(p=1.1, alpha=2.75, n_rho=3),
                 noisy_staircase_8x8, SolverConfig(max_iters=100_000, rel_tol=1e-8),
                 id="staircase8"),
    # the comparison objectives stop only after a fresh ladder also fails
    pytest.param("f-euclidean", FunctionalParams(p=1.1, alpha=2.75, n_rho=3),
                 noisy_staircase_8x8, SolverConfig(max_iters=100_000, rel_tol=1e-8),
                 id="staircase8-f-euclidean"),
    pytest.param("fc", FunctionalParams(p=1.1, beta=2.0),
                 noisy_staircase_8x8, SolverConfig(max_iters=100_000, rel_tol=1e-8),
                 id="staircase8-fc"),
    # momentum steps with restarts, and a mask
    pytest.param("f-log-euclidean", FunctionalParams(p=2.0, alpha=1.0, n_rho=2),
                 noisy_band_16x16_with_hole, SolverConfig(max_iters=100_000, rel_tol=1e-10),
                 id="band16-hole"),
])
def test_resolving_from_solution_is_a_fixed_point(objective, params, make_data, config):
    data, mask = make_data()
    out, report = solve(data, mask, params, objective=objective, config=config)
    assert report.converged
    again, report2 = solve(data, mask, params, objective=objective, config=config, init=out)
    change = report2.objective_trajectory[0] - report2.final_objective
    assert change < config.rel_tol * max(1.0, abs(report2.objective_trajectory[0]))


@pytest.mark.parametrize("objective", ["f-log-euclidean", "f-euclidean", "fc"])
def test_final_objective_matches_public_functionals(objective):
    data = random_field(4, 4, seed=52, scale=0.5)
    mask = np.ones((4, 4), dtype=bool)
    mask[1, 2] = False
    params = FunctionalParams(p=1.3, alpha=0.4, beta=0.6, s=0.5, l=1, n_rho=2)
    out, report = solve(data, Mask(mask), params, objective=objective,
                        config=SolverConfig(max_iters=20))
    if objective == "fc":
        assert report.final_objective == functional_FC(out, data, mask, params)
    elif objective == "f-euclidean":
        assert report.final_objective == functional_F(out, data, mask, params, metric="euclidean")
    else:
        # the returned field is Exp of the solver's log coordinates, and
        # Log(Exp(L)) is not bit-exact
        got = functional_F(out, data, mask, params)
        assert abs(got - report.final_objective) <= 1e-12 * abs(report.final_objective)


def test_p2_solutions_nonexpansive_in_data():
    params = FunctionalParams(p=2.0, alpha=0.4, s=0.5, l=1, n_rho=2)
    config = SolverConfig(max_iters=3000, rel_tol=1e-13)
    for seed in (60, 61):
        data_a = random_field(4, 4, seed=seed)
        data_b = random_field(4, 4, seed=seed + 100)
        out_a, _ = solve(data_a, Mask.full(4, 4), params, config=config)
        out_b, _ = solve(data_b, Mask.full(4, 4), params, config=config)
        la, lb = log_coeffs(data_a.coeffs), log_coeffs(data_b.coeffs)
        oa, ob = log_coeffs(out_a.coeffs), log_coeffs(out_b.coeffs)
        dist_data = np.sqrt(weighted_norm_sq(la - lb).sum())
        dist_out = np.sqrt(weighted_norm_sq(oa - ob).sum())
        assert dist_out <= dist_data + 1e-6


def test_returned_tensors_stay_in_log_ball():
    z = 2.0
    rng = np.random.default_rng(70)
    logs = rng.normal(scale=1.5, size=(4, 4, 6))
    data = TensorField(exp_coeffs(logs), 36.0)
    params = FunctionalParams(p=1.5, alpha=0.2, s=0.5, l=1, n_rho=1, z=z)
    out, _ = solve(data, Mask.full(4, 4), params, config=SolverConfig(max_iters=50))
    assert out.log_bound == z
    norms = np.sqrt(weighted_norm_sq(log_coeffs(out.coeffs)))
    assert norms.max() <= z + 1e-9


def test_masked_pixels_move_toward_neighbors():
    data = random_field(4, 4, seed=80, scale=0.3)
    mask = np.ones((4, 4), dtype=bool)
    mask[1:3, 1:3] = False
    params = FunctionalParams(p=1.1, alpha=0.5, s=0.5, l=1, n_rho=2)
    init = default_init(data, mask, params)
    out, report = solve(data, mask, params, config=SolverConfig(max_iters=400))
    init_logs = log_coeffs(init.coeffs)
    out_logs = log_coeffs(out.coeffs)
    data_logs = log_coeffs(data.coeffs)
    before = np.sqrt(weighted_norm_sq(init_logs - data_logs))[~mask]
    after = np.sqrt(weighted_norm_sq(out_logs - data_logs))[~mask]
    assert np.all(after < before)
    # observed pixels must not be abandoned: fidelity stays bounded by alpha-z scale
    assert report.objective_trajectory[-1] < report.objective_trajectory[0]


def test_default_init_seeds_masked_pixels():
    data = random_field(3, 3, seed=95)
    mask = np.ones((3, 3), dtype=bool)
    mask[0, 2] = False
    params = FunctionalParams()
    init = default_init(data, mask, params)
    seed_diag = np.exp(-36.0 / np.sqrt(3.0))
    assert np.allclose(init.coeffs[0, 2, :3], seed_diag, rtol=1e-12)
    assert np.all(init.coeffs[0, 2, 3:] == 0.0)
    assert np.array_equal(init.coeffs[mask], data.coeffs[mask])


def test_line_search_error_on_ill_scaled_weight():
    data = random_field(4, 4, seed=2)
    params = FunctionalParams(p=2.0, alpha=1e28, s=0.5, l=0)
    with pytest.raises(LineSearchError):
        solve(data, Mask.full(4, 4), params, config=SolverConfig(max_iters=5))


def test_unknown_objective_rejected():
    data = random_field(2, 2, seed=4)
    with pytest.raises(ValueError):
        solve(data, Mask.full(2, 2), FunctionalParams(), objective="huber")


def test_init_shape_mismatch_rejected():
    data = random_field(2, 2, seed=4)
    init = random_field(3, 2, seed=5)
    with pytest.raises(ValueError):
        solve(data, Mask.full(2, 2), FunctionalParams(), init=init)
