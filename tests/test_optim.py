"""Tests for the projected gradient solver and its gradients."""
from __future__ import annotations

import re

import numpy as np
import pytest
from scipy.optimize import minimize

from dtfield.field import (
    FunctionalParams,
    Mask,
    Objective,
    TensorField,
    functional,
)
from dtfield import optim
from dtfield.optim import (
    LineSearchError,
    SolveReport,
    SolverConfig,
    solve,
)
from dtfield.spd import (
    exp_coeffs,
    log_coeffs,
    project_full_coeffs,
    project_log_coeffs,
    weighted_norm_sq,
)
from dtfield.synth import (
    NoiseSpec,
    corrupt_field,
    make_main_direction_phantom,
    make_staircase_phantom,
)

W3 = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])  # full-matrix Frobenius weights


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
    assert config.init_step == 1.0
    assert config.rel_tol == 1e-8


@pytest.mark.parametrize("kwargs", [
    {"max_iters": 0},
    {"max_iters": 2.5},
    {"init_step": 0.0},
    {"rel_tol": -1e-8},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("cls,name", [
    (SolverConfig, "init_step"), (SolverConfig, "rel_tol"),
    (FunctionalParams, "p"), (FunctionalParams, "s"), (FunctionalParams, "alpha"),
    (FunctionalParams, "beta"), (FunctionalParams, "n_rho"), (FunctionalParams, "z"),
    (FunctionalParams, "epsilon"),
])
def test_parameters_reject_non_finite_values(cls, name):
    # a NaN weight used to switch its regularizer off silently, and an
    # infinite one to fail later through numpy warnings
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            cls(**{name: value})


@pytest.mark.parametrize("kwargs,message", [
    ({"p": 1.0}, "p must be > 1, got 1.0"),
    ({"s": 0.0}, "s must lie in (0, 1), got 0.0"),
    ({"s": 1.0}, "s must lie in (0, 1), got 1.0"),
    ({"alpha": -1.0}, "alpha must be >= 0, got -1.0"),
    ({"beta": -0.5}, "beta must be >= 0, got -0.5"),
    ({"l": 2}, "l must be 0 or 1, got 2"),
    ({"n_rho": 2.5}, "n_rho must be an integer >= 1, got 2.5"),
    ({"n_rho": 0}, "n_rho must be an integer >= 1, got 0"),
    ({"z": 0.0}, "z must be > 0, got 0.0"),
    ({"epsilon": 0.0}, "epsilon must be > 0, got 0.0"),
    ({"epsilon": -1.0}, "epsilon must be > 0, got -1.0"),
])
def test_functional_params_reject_out_of_range_values(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FunctionalParams(**kwargs)


def test_parameters_reject_floor_outside_log_ball():
    # sqrt(3) log(1.1e9) = 36.06 > z = 36: no tensor has every eigenvalue >= epsilon
    with pytest.raises(ValueError, match="^epsilon = 1.1e\\+09 leaves no feasible tensor"):
        FunctionalParams(epsilon=1.1e9)
    FunctionalParams(epsilon=1e9)
    FunctionalParams(epsilon=1e10, z=1e308)  # compared in log form: no overflow


def test_report_json_keys():
    report = SolveReport(iterations=2, objective_trajectory=[3.0, 2.0, 1.5],
                         final_objective=1.5, converged=True, seconds=0.25, evaluations=5,
                         quasi_newton_steps=1)
    payload = report.to_json_dict()
    assert list(payload) == ["iterations", "objective_trajectory", "final_objective",
                             "converged", "seconds", "evaluations", "quasi_newton_steps",
                             "stop_reason"]
    assert payload["objective_trajectory"] == [3.0, 2.0, 1.5]
    assert payload["converged"] is True
    assert payload["evaluations"] == 5
    assert payload["quasi_newton_steps"] == 1


@pytest.mark.parametrize("stop_reason,converged", [
    ("max_iters", True), ("tolerance", False), ("stationary", False)])
def test_report_rejects_a_stop_reason_that_contradicts_converged(stop_reason, converged):
    with pytest.raises(ValueError, match="contradicts converged"):
        SolveReport(0, [1.0], 1.0, converged, 0.0, stop_reason=stop_reason)


@pytest.mark.parametrize("converged", [True, False])
def test_report_rejects_an_unknown_stop_reason(converged):
    with pytest.raises(ValueError, match="'plateau' is not 'stationary', 'tolerance', "
                                         "'max_iters' or None"):
        SolveReport(0, [1.0], 1.0, converged, 0.0, stop_reason="plateau")


def test_stop_reason_names_each_exit():
    # alpha = 0 on a full mask starts at the minimizer, where the gradient is zero
    data = random_field(4, 5, seed=1)
    _, report = solve(data, Mask.full(4, 5), FunctionalParams(alpha=0.0))
    assert (report.stop_reason, report.iterations, report.converged) == ("stationary", 0, True)
    data, mask = noisy_staircase_8x8()
    params = FunctionalParams(p=1.1, alpha=2.75)
    _, report = solve(data, mask, params, config=SolverConfig(max_iters=3))
    assert (report.stop_reason, report.iterations, report.converged) == ("max_iters", 3, False)
    _, report = solve(data, mask, params, config=SolverConfig(max_iters=100_000))
    assert (report.stop_reason, report.converged) == ("tolerance", True)
    assert report.to_json_dict()["stop_reason"] == "tolerance"


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

def log_objective(data, mask, params):
    return Objective("f-log-euclidean", data, mask, params)


def test_gradient_zero_at_data_for_constant_field():
    w = constant_field(4, 4, [2.0, 1.5, 1.0, 0.2, 0.1, -0.1])
    params = FunctionalParams(p=1.1, alpha=0.7, s=0.5, l=1, n_rho=2)
    grad = log_objective(w, Mask.full(4, 4), params).value_grad(log_coeffs(w.coeffs))[1]
    assert np.all(grad == 0.0)


def test_gradient_alpha_zero_p2_closed_form():
    data = random_field(5, 4, seed=3)
    w = random_field(5, 4, seed=4)
    L = log_coeffs(w.coeffs)
    Ld = log_coeffs(data.coeffs)
    mask = np.ones((5, 4), dtype=bool)
    mask[2, 1] = False
    params = FunctionalParams(p=2.0, alpha=0.0)
    grad = log_objective(data, mask, params).value_grad(L)[1]
    expected = 2.0 * W3 * (L - Ld)
    expected[~mask] = 0.0
    assert np.allclose(grad, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("p,tol", [(2.0, 1e-5), (1.1, 1e-4)])
def test_gradient_matches_finite_differences(p, tol, fd_gradient):
    data = random_field(6, 6, seed=10)
    w = random_field(6, 6, seed=11)
    L = log_coeffs(w.coeffs)
    objective = log_objective(data, Mask.full(6, 6), FunctionalParams(
        p=p, alpha=0.4, s=0.5, l=1, n_rho=2))
    analytic = objective.value_grad(L)[1]
    numeric = fd_gradient(objective.value, L)
    rel = np.abs(analytic - numeric).max() / np.abs(analytic).max()
    assert rel < tol


def test_gradient_matches_finite_differences_all_pairs_kernel(fd_gradient):
    data = random_field(4, 5, seed=20)
    w = random_field(4, 5, seed=21)
    L = log_coeffs(w.coeffs)
    objective = log_objective(data, Mask.full(4, 5), FunctionalParams(
        p=1.3, alpha=0.2, s=0.7, l=0))
    analytic = objective.value_grad(L)[1]
    numeric = fd_gradient(objective.value, L)
    rel = np.abs(analytic - numeric).max() / np.abs(analytic).max()
    assert rel < 1e-5


def test_fd_error_scales_quadratically_in_step(fd_gradient):
    # central differences have O(h^2) truncation error; p must be far from 2
    # because the p=2 objective is quadratic and centrals are then exact
    data = random_field(6, 6, seed=30)
    w = random_field(6, 6, seed=31)
    L = log_coeffs(w.coeffs)
    objective = log_objective(data, Mask.full(6, 6), FunctionalParams(
        p=1.1, alpha=0.4, s=0.5, l=1, n_rho=2))
    analytic = objective.value_grad(L)[1]
    err_h = np.abs(fd_gradient(objective.value, L, step=1e-3) - analytic).max()
    err_2h = np.abs(fd_gradient(objective.value, L, step=2e-3) - analytic).max()
    assert 3.0 < err_2h / err_h < 5.5


def test_fd_central_differences_at_ball_boundary(fd_gradient):
    # a pixel exactly on the log-norm sphere: the objective is defined off
    # the ball too, so central stencils that leave it still match
    z = 4.0
    logs = np.zeros((2, 2, 6))
    logs[0, 0, :3] = z / np.sqrt(3.0)
    logs[1, 1, :3] = -0.3
    logs[0, 1, 3] = 0.2
    data = TensorField(exp_coeffs(np.full((2, 2, 6), 0.1) * np.array([1, 1, 1, 0, 0, 0])), z)
    objective = log_objective(data, Mask.full(2, 2), FunctionalParams(
        p=1.5, alpha=0.3, s=0.5, l=1, n_rho=1, z=z))
    assert abs(np.sqrt(weighted_norm_sq(logs[0, 0])) - z) < 1e-12
    analytic = objective.value_grad(logs)[1]
    numeric = fd_gradient(objective.value, logs)
    rel = np.abs(analytic - numeric).max() / np.abs(analytic).max()
    assert rel < 1e-8


# ---- solver examples with known answers ----

def test_alpha_zero_full_mask_returns_data():
    data = random_field(4, 5, seed=1)
    out, report = solve(data, Mask.full(4, 5), FunctionalParams(alpha=0.0))
    assert report.iterations <= 1
    assert report.converged
    assert report.final_objective <= 1e-12
    worst = np.sqrt(weighted_norm_sq(log_coeffs(out.coeffs) - log_coeffs(data.coeffs))).max()
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


def inpainting_10x10_hole():
    """test_07's seed-0 inpainting: p = 1.1, a 4x4 hole in the 10x10 staircase."""
    present = np.ones((10, 10), dtype=bool)
    present[3:7, 3:7] = False
    return (corrupt_field(make_staircase_phantom(10), NoiseSpec(1600.0, 0)), Mask(present),
            FunctionalParams(p=1.1, s=0.5, alpha=0.5, n_rho=2))


def denoise_32():
    """perfbench denoise-tol's problem: the 32x32 staircase at p = 1.1."""
    return (corrupt_field(make_staircase_phantom(32), NoiseSpec(1600.0, 1)), Mask.full(32, 32),
            FunctionalParams(p=1.1, s=0.5, alpha=2.75, n_rho=3))


def test_quasi_newton_cuts_iterations_to_tolerance():
    # plain projected gradient took 190 iterations on this p = 2 inpainting
    # problem and monotone FISTA momentum 48; the L-BFGS steps reach the same
    # tolerance in 31
    data, mask = noisy_band_16x16_with_hole()
    _, report = solve(data, mask, FunctionalParams(p=2.0, alpha=1.0, n_rho=2),
                      config=SolverConfig(max_iters=100_000, rel_tol=1e-10))
    assert report.converged
    assert report.iterations <= 40
    assert report.quasi_newton_steps >= 1


def test_inpainting_near_p_one_converges_near_the_reference_minimum():
    # test_07's seed-0 problem: momentum ended its 4,000 iterations
    # unconverged at 53.63; the L-BFGS steps converge in about 1,700 to
    # 10.16447, and a run to rel_tol 1e-14 reached 10.1642720165
    data, mask, params = inpainting_10x10_hole()
    _, report = solve(data, mask, params, config=SolverConfig(max_iters=4000, rel_tol=1e-8))
    assert report.converged
    reference = 10.1642720165
    assert abs(report.final_objective - reference) <= 1e-4 * reference


def test_p2_minimizer_matches_scipy_lbfgsb():
    # an independent reference: scipy's L-BFGS-B on the same log-coordinate
    # objective, at p = 2 (smooth) with a log ball far from binding
    data = random_field(5, 5, seed=97, scale=0.6)
    present = np.ones((5, 5), dtype=bool)
    present[1:3, 2:4] = False
    params = FunctionalParams(p=2.0, alpha=0.7, s=0.5, l=1, n_rho=2)
    out, report = solve(data, Mask(present), params,
                        config=SolverConfig(max_iters=10_000, rel_tol=1e-14))
    pack = Objective("f-log-euclidean", data, Mask(present), params)
    x0 = pack.start()

    def fun(flat):
        value, grad = pack.value_grad(flat.reshape(x0.shape))
        return float(value), grad.ravel()

    reference = minimize(fun, x0.ravel(), jac=True, method="L-BFGS-B",
                         options={"maxiter": 10_000, "ftol": 1e-15, "gtol": 1e-11})
    assert reference.success
    expected = reference.x.reshape(x0.shape)
    assert np.sqrt(weighted_norm_sq(expected)).max() < 0.5 * params.z  # the ball does not bind
    assert report.converged
    gap = np.sqrt(weighted_norm_sq(log_coeffs(out.coeffs) - expected)).max()
    assert gap < 1e-6
    assert abs(report.final_objective - reference.fun) <= 1e-10 * reference.fun


@pytest.mark.parametrize("objective,params", [
    ("f-euclidean", FunctionalParams(p=1.1, alpha=2.75, n_rho=3)),
    ("fc", FunctionalParams(p=1.1, beta=2.0)),
])
def test_warm_ladder_keeps_evaluations_per_iteration_low(objective, params):
    # each ladder starts at the last accepted step, grown only after a
    # first-trial acceptance, instead of re-climbing to init_step; the
    # re-climbing solver spent about 18 objective evaluations per iteration
    # on these solves, and always starting at twice the last step 179 in 80
    # iterations; this rule takes 117 and 118
    data = corrupt_field(make_staircase_phantom(10), NoiseSpec(1600, 0))
    _, report = solve(data, Mask.full(10, 10), params, objective=objective,
                      config=SolverConfig(max_iters=80, rel_tol=1e-15))
    assert report.iterations == 80
    assert report.evaluations <= 2 * report.iterations
    assert report.quasi_newton_steps == 0  # L-BFGS runs in log coordinates only


def test_steady_steps_cost_about_one_evaluation_per_iteration():
    # a ladder that starts at twice the last accepted step first evaluates a
    # trial bound to fail whenever the step is steady: 170 evaluations in 80
    # iterations of this log-mode solve; growing the step only after a
    # first-trial acceptance takes 113
    data = corrupt_field(make_staircase_phantom(10), NoiseSpec(1600, 0))
    _, report = solve(data, Mask.full(10, 10), FunctionalParams(p=1.1, alpha=2.75, n_rho=3),
                      config=SolverConfig(max_iters=80, rel_tol=1e-15))
    assert report.iterations == 80
    assert report.evaluations <= 1.6 * report.iterations


@pytest.mark.parametrize("objective", ["f-log-euclidean", "f-euclidean", "fc"])
def test_line_search_step_grows_from_a_tiny_start(objective):
    # from init_step 1e-6 the step must climb six decades; growing by 1.25
    # per first-trial acceptance converges in 56-60 iterations, while a step
    # that never grows takes 6,054 iterations in log mode and does not
    # converge in 100,000 in the other two
    data, mask = noisy_staircase_8x8()
    params = FunctionalParams(p=2.0, alpha=1.0, beta=1.0, n_rho=2)
    _, reference = solve(data, mask, params, objective=objective,
                         config=SolverConfig(max_iters=100_000, rel_tol=1e-12))
    _, report = solve(data, mask, params, objective=objective,
                      config=SolverConfig(max_iters=100, init_step=1e-6, rel_tol=1e-12))
    assert report.converged
    gap = abs(report.final_objective - reference.final_objective)
    assert gap <= 1e-9 * max(1.0, reference.final_objective)


def recording_evaluations(monkeypatch):
    """Patch Objective.value and value_grad to append every point they are
    called at, in call order, to the returned list as (method name, point)."""
    calls = []
    for name in ("value", "value_grad"):
        def recorded(self, x, _name=name, _method=getattr(Objective, name)):
            calls.append((_name, x))
            return _method(self, x)
        monkeypatch.setattr(Objective, name, recorded)
    return calls


def first_calls(calls):
    """The calls of recording_evaluations at a point not seen before: the
    start value and the trials.  The ladder's candidates are fresh arrays, so
    a later call at the same array is a gradient at an accepted iterate."""
    seen, first = [], []
    for name, x in calls:
        if not any(x is y for y in seen):
            seen.append(x)
            first.append(name)
    return first


@pytest.mark.parametrize("objective", ["f-log-euclidean", "f-euclidean", "fc"])
def test_evaluations_count_every_objective_value(objective, monkeypatch):
    # the initial value and one per evaluated trial of every ladder,
    # quasi-Newton ladders included; a first trial evaluated with its
    # gradient counts once, and a gradient at an iterate is not counted
    calls = recording_evaluations(monkeypatch)
    data, _ = noisy_staircase_8x8()
    present = np.ones((8, 8), dtype=bool)
    present[2:5, 3:6] = False
    _, report = solve(data, Mask(present), FunctionalParams(p=2.0, alpha=2.75, beta=2.0),
                      objective=objective, config=SolverConfig(max_iters=100_000))
    assert report.converged
    trials = first_calls(calls)
    assert report.evaluations == len(trials)
    assert trials[0] == "value"  # the start point
    # a gradient is computed apart only at the start and after a later-rung
    # acceptance: at most once per point evaluated without its gradient
    gradients_apart = len(calls) - len(trials)
    assert 1 <= gradients_apart <= trials.count("value")
    assert (report.quasi_newton_steps >= 1) == (objective == "f-log-euclidean")


def test_reused_trial_gradients_equal_fresh_gradients(monkeypatch):
    # every gradient the L-BFGS history sees is the gradient at its iterate,
    # to the bit, whether the accepted first trial supplied it or it was
    # computed apart after a later rung was accepted
    data, mask = noisy_staircase_8x8()
    params = FunctionalParams(p=1.1, alpha=2.75, n_rho=3)
    pack = Objective("f-log-euclidean", data, mask, params)
    pushed = []
    push, value_grad = optim._History.push, Objective.value_grad  # unrecorded

    def checked_push(self, x, x_prev, grad, grad_prev):
        pushed.append(x)
        assert np.array_equal(grad, value_grad(pack, x)[1])
        assert np.array_equal(grad_prev, value_grad(pack, x_prev)[1])
        return push(self, x, x_prev, grad, grad_prev)

    monkeypatch.setattr(optim._History, "push", checked_push)
    calls = recording_evaluations(monkeypatch)
    _, report = solve(data, mask, params, config=SolverConfig(max_iters=100_000, rel_tol=1e-8))
    assert report.converged
    assert len(pushed) == report.iterations  # the last, failed iteration pushes too
    # both kinds of iterate occur: one whose first trial was accepted and one
    # accepted at a later rung, evaluated without its gradient
    evaluated_by = {}
    for name, x in calls:
        evaluated_by.setdefault(id(x), name)
    kinds = {evaluated_by[id(x)] for x in pushed}
    assert kinds == {"value", "value_grad"}


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
    # quasi-Newton steps, and a mask
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
    got = functional(out, data, mask, params, objective=objective)
    if objective == "f-log-euclidean":
        # the returned field is Exp of the solver's log coordinates, and
        # Log(Exp(L)) is not bit-exact
        assert abs(got - report.final_objective) <= 1e-12 * abs(report.final_objective)
    else:
        assert got == report.final_objective


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
    init_logs = Objective("f-log-euclidean", data, mask, params).start()
    out, report = solve(data, mask, params, config=SolverConfig(max_iters=400))
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
    # a solve without init starts at the data, masked-out pixels at the floor seed
    start = Objective("f-euclidean", data, mask, FunctionalParams()).start()
    seed_diag = np.exp(-36.0 / np.sqrt(3.0))
    assert np.allclose(start[0, 2, :3], seed_diag, rtol=1e-12)
    assert np.all(start[0, 2, 3:] == 0.0)
    assert np.array_equal(start[mask], data.coeffs[mask])


@pytest.mark.parametrize("epsilon", [None, 1e-3], ids=["default-eps", "eps-1e-3"])
@pytest.mark.parametrize("masked", [False, True], ids=["full", "hole"])
def test_default_start_bit_equals_default_init(masked, epsilon):
    # a solve without init builds its start from the target's logs instead
    # of decomposing the floor-seeded field again: the same start, to the bit
    data, mask = noisy_band_16x16_with_hole()
    if not masked:
        mask = Mask.full(16, 16)
    kwargs = {} if epsilon is None else {"epsilon": epsilon}
    params = FunctionalParams(p=1.1, alpha=2.75, beta=2.0, n_rho=3, **kwargs)
    seeded = data.coeffs.copy()
    seeded[~mask.values] = project_full_coeffs(np.zeros(6), params.epsilon, params.z)
    init = TensorField(seeded, max(data.log_bound, params.z))
    for objective in ("f-log-euclidean", "f-euclidean", "fc"):
        pack = Objective(objective, data, mask, params)
        assert np.array_equal(pack.start(), pack.start(init))
    expected = log_coeffs(init.coeffs)
    if epsilon is not None:
        # -log(epsilon) < z: pixels below the floor leave the feasible set
        expected = project_log_coeffs(expected, params.epsilon, params.z)
    assert np.array_equal(Objective("f-log-euclidean", data, mask, params).start(), expected)


@pytest.mark.parametrize("epsilon,z", [(None, 36.0), (1e-3, 5.0), (1e-8, 3.0)],
                         ids=["default", "eps-1e-3-z-5", "eps-1e-8-z-3"])
def test_log_start_is_a_fixed_point_of_project(epsilon, z):
    # start decides feasibility by project alone: at epsilon 1e-3 and z 5 the
    # floor seed of a hole lies 8.9e-16 past the ball, and is projected
    data = constant_field(6, 6, [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    present = np.ones((6, 6), dtype=bool)
    present[2:4, 2:4] = False
    kwargs = {"z": z} if epsilon is None else {"epsilon": epsilon, "z": z}
    pack = Objective("f-log-euclidean", data, present, FunctionalParams(**kwargs))
    x = pack.start()
    assert np.array_equal(pack.project(x), x)


def test_overflowing_start_objective_raises():
    # an infinite start objective passed the plateau test: this solve was
    # reported as converged after 0 iterations, with final_objective inf
    data = corrupt_field(make_staircase_phantom(6), NoiseSpec(1600, 0))
    with pytest.raises(OverflowError, match="^objective inf at the start point"):
        solve(data, Mask.full(6, 6), FunctionalParams(alpha=1.7e308))


def test_overflowing_trial_point_is_a_rejected_rung():
    # a finite start objective and gradient with a huge weight: base - step *
    # direction overflowed to inf, and projecting it raised "ValueError:
    # non-finite entries in symmetric matrix input"; such a trial is now
    # rejected unprojected, and no finite step exists here
    data, mask = noisy_staircase_8x8()
    with pytest.raises(LineSearchError, match="best trial inf"):
        solve(data, mask, FunctionalParams(beta=6e307), objective="fc")


@pytest.mark.parametrize("objective,weight,error,message", [
    ("fc", {"beta": 1.7e308}, OverflowError, "^gradient not finite at iteration 1 "),
    ("f-euclidean", {"alpha": 1e307}, LineSearchError, "best trial inf"),
    ("f-log-euclidean", {"alpha": 1e307}, LineSearchError, "best trial inf"),
], ids=["sobolev", "euclid", "loglog"])
def test_huge_weights_raise_solver_errors(objective, weight, error, message):
    # the staircase of `dtfield generate --n 5 --sigma2 900 --seed 3`: numpy's
    # overflow warnings escaped solve (errors under this suite's warning
    # filter), and an infinite gradient was blamed on the line search
    data = corrupt_field(make_staircase_phantom(5), NoiseSpec(900, 3))
    with pytest.raises(error, match=message):
        solve(data, Mask.full(5, 5), FunctionalParams(**weight), objective=objective)


def dense_lbfgs_matrix(pairs, weights):
    """H of the BFGS updates H <- (I - r s y^T) H (I - r y s^T) + r s s^T, oldest
    pair first, from H0 = gamma diag(1 / weights) with the newest pair's gamma."""
    s, y = pairs[-1]
    h = np.diag(float(s @ y) / float(y @ (y / weights)) / weights)
    eye = np.eye(len(weights))
    for s, y in pairs:
        r = 1.0 / float(s @ y)
        h = (eye - r * np.outer(s, y)) @ h @ (eye - r * np.outer(y, s)) + r * np.outer(s, s)
    return h


def test_lbfgs_direction_matches_dense_bfgs_updates():
    # the two-loop recursion against the dense BFGS matrix of the same pairs:
    # a pair with negative curvature pushed into a history that is not full
    # is dropped and loses no pair; after the history fills, the oldest pair
    # goes; a pair dropped from a full history drops the oldest pair too
    rng = np.random.default_rng(96)
    shape = (2, 2, 6)
    weights = np.tile(W3, 4)
    basis = rng.standard_normal((24, 24))
    hessian = basis @ basis.T + np.eye(24)
    history = optim._History()
    xs = [rng.standard_normal(24) for _ in range(9)]
    kept = []
    dropped = {3, 8}  # these pairs have <s, y> < 0
    for k in range(1, 9):
        s = xs[k] - xs[k - 1]
        grad_prev = rng.standard_normal(24)
        y = -s if k in dropped else hessian @ s
        history.push(xs[k].reshape(shape), xs[k - 1].reshape(shape),
                     (grad_prev + y).reshape(shape), grad_prev.reshape(shape))
        if k in dropped:
            if len(kept) == optim._HISTORY:
                kept.pop(0)
        else:
            kept = (kept + [(s, y)])[-optim._HISTORY:]
        assert len(history.pairs) == len(kept)
        grad = rng.standard_normal(24)
        got = history.direction(grad.reshape(shape)).ravel()
        expected = dense_lbfgs_matrix(kept, weights) @ grad
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()
    assert len(kept) == optim._HISTORY - 1  # the last drop hit a full history


def test_lbfgs_directions_are_new_arrays():
    # two successive directions stay valid side by side, and neither the
    # gradient nor a stored pair is written to
    rng = np.random.default_rng(97)
    shape = (3, 2, 6)
    history = optim._History()
    for _ in range(3):
        x, x_prev, grad_prev = (rng.standard_normal(shape) for _ in range(3))
        history.push(x, x_prev, grad_prev + 2.0 * (x - x_prev), grad_prev)
    stored = [tuple(np.copy(a) for a in pair[:2]) for pair in history.pairs]
    g1, g2 = rng.standard_normal(shape), rng.standard_normal(shape)
    g1_copy = g1.copy()
    d1 = history.direction(g1)
    d1_copy = d1.copy()
    d2 = history.direction(g2)
    assert np.array_equal(d1, d1_copy) and np.array_equal(g1, g1_copy)
    assert not np.shares_memory(d1, d2) and not np.shares_memory(d1, g1)
    assert np.array_equal(d2, history.direction(g2))
    for (s, y, _), (s0, y0) in zip(history.pairs, stored):
        assert np.array_equal(s, s0) and np.array_equal(y, y0)


@pytest.mark.parametrize("spoil", ["value-inf", "value-nan", "direction-inf", "direction-nan"])
def test_non_finite_quasi_newton_trial_falls_back_to_plain_steps(spoil, monkeypatch):
    # a quasi-Newton trial whose value or point is inf or NaN is a rejected
    # rung; with every such rung rejected, each iteration takes the plain
    # ladders, so the run is the plain-step run to the bit
    data, mask = noisy_staircase_8x8()
    params = FunctionalParams(p=1.1, alpha=2.75, n_rho=3)
    config = SolverConfig(max_iters=20)
    with monkeypatch.context() as patch:
        patch.setattr(optim._History, "push", lambda *args: None)  # no pairs: plain steps only
        plain_out, plain = solve(data, mask, params, config=config)
    assert plain.quasi_newton_steps == 0

    push, direction, value, value_grad = (optim._History.push, optim._History.direction,
                                          Objective.value, Objective.value_grad)
    state, spoiled = {}, []

    def recording_push(self, x, *args):
        state.clear()
        state["x"] = x
        return push(self, x, *args)

    def spoiled_direction(self, grad):
        d = direction(self, grad)
        if spoil.startswith("direction"):
            k = int(np.argmax(np.abs(grad)))  # keeps <grad, d> > 0 for inf
            d.flat[k] = np.inf * np.sign(grad.flat[k]) if spoil == "direction-inf" else np.nan
        state["ray"] = d.copy()
        return d

    def is_quasi_newton_trial(self, candidate):
        return "ray" in state and spoil.startswith("value") and any(
            np.array_equal(candidate, self.project(state["x"] - 0.5 ** k * state["ray"]))
            for k in range(optim._QN_HALVINGS + 1))

    def spoiled_trial():
        spoiled.append(None)
        return np.inf if spoil == "value-inf" else np.nan

    def spoiled_value(self, candidate):
        if is_quasi_newton_trial(self, candidate):
            return spoiled_trial()
        return value(self, candidate)

    def spoiled_value_grad(self, candidate):
        v, g = value_grad(self, candidate)
        if is_quasi_newton_trial(self, candidate):
            return spoiled_trial(), g
        return v, g

    # in log mode every iteration after the first pushes its iterate before
    # any quasi-Newton ladder, so state["x"] is that ladder's x
    monkeypatch.setattr(optim._History, "push", recording_push)
    monkeypatch.setattr(optim._History, "direction", spoiled_direction)
    monkeypatch.setattr(Objective, "value", spoiled_value)
    monkeypatch.setattr(Objective, "value_grad", spoiled_value_grad)
    out, report = solve(data, mask, params, config=config)
    assert report.quasi_newton_steps == 0
    assert report.objective_trajectory == plain.objective_trajectory
    assert np.array_equal(out.coeffs, plain_out.coeffs)
    assert report.evaluations == plain.evaluations + len(spoiled)
    assert (len(spoiled) > 0) == spoil.startswith("value")


@pytest.mark.parametrize("objective", ["f-log-euclidean", "f-euclidean", "fc"])
@pytest.mark.parametrize("masked", [False, True], ids=["full", "hole"])
def test_convexity_skip_changes_only_the_evaluation_count(objective, masked, monkeypatch):
    # a plain-ladder trial that convexity rules out is not evaluated; an
    # evaluation would have rejected it, so the run is the same to the bit
    data, mask = noisy_staircase_8x8()
    if masked:
        present = np.ones((8, 8), dtype=bool)
        present[2:5, 3:6] = False
        mask = Mask(present)
    params = FunctionalParams(p=1.1, alpha=2.75, beta=2.0, n_rho=3)
    config = SolverConfig(max_iters=100_000, rel_tol=1e-8)
    out, report = solve(data, mask, params, objective=objective, config=config)
    monkeypatch.setattr(optim, "_ruled_out", lambda lin, threshold, current: False)
    out_all, report_all = solve(data, mask, params, objective=objective, config=config)
    assert report.converged and report_all.converged
    assert np.array_equal(out.coeffs, out_all.coeffs)
    assert report.objective_trajectory == report_all.objective_trajectory
    assert report.iterations == report_all.iterations
    assert report.quasi_newton_steps == report_all.quasi_newton_steps
    assert report.evaluations < report_all.evaluations


def recorded_solve(monkeypatch, data, mask, params, config):
    """solve with Objective.value, value_grad and project and _History.push
    and direction patched to log each call in order, as (name, argument
    bytes, value) for the first three and (name, array, gradient) for the
    last two.  Returns the result, the report and the log split at each push:
    in log mode every iteration after the first begins with one."""
    log = []
    for name in ("value", "value_grad", "project"):
        def recorded(self, x, _name=name, _method=getattr(Objective, name)):
            out = _method(self, x)
            value = float(out) if _name == "value" else out[0] if _name == "value_grad" else None
            log.append((_name, x.tobytes(), value))
            return out
        monkeypatch.setattr(Objective, name, recorded)
    push, direction = optim._History.push, optim._History.direction

    def recorded_push(self, x, x_prev, grad, grad_prev):
        log.append(("push", x, grad))
        return push(self, x, x_prev, grad, grad_prev)

    def recorded_direction(self, grad):
        log.append(("direction", direction(self, grad), None))
        return log[-1][1]

    monkeypatch.setattr(optim._History, "push", recorded_push)
    monkeypatch.setattr(optim._History, "direction", recorded_direction)
    out, report = solve(data, mask, params, config=config)
    iterations = [[]]
    for entry in log:
        if entry[0] == "push":
            iterations.append([])
        iterations[-1].append(entry)
    return out, report, iterations


def trials(iteration):
    """(index, point bytes, value) of the trials evaluated in one iteration's
    log: a value_grad right after a value at the same point is the gradient
    at an iterate accepted at a later rung, not a trial."""
    out = []
    for i, (name, point, value) in enumerate(iteration):
        if name == "value_grad" and i and iteration[i - 1][:2] == ("value", point):
            continue
        if name in ("value", "value_grad"):
            out.append((i, point, value))
    return out


@pytest.mark.parametrize("problem", [inpainting_10x10_hole, denoise_32],
                         ids=["test_07", "denoise32"])
def test_plain_ladders_share_one_iterations_trials(problem, monkeypatch):
    # the warm and fresh plain ladders of an iteration share x and direction:
    # no point is evaluated twice within an iteration, and once the last
    # iteration's warm ladder has failed, its first trial ascending, the
    # fresh ladder evaluates only steps longer than the warm start: the
    # shorter ones are the warm ladder's, tried or ruled out
    data, mask, params = problem()
    config = SolverConfig(max_iters=100_000, rel_tol=1e-8)
    out, report, iterations = recorded_solve(monkeypatch, data, mask, params, config)
    assert report.stop_reason == "tolerance"
    assert len(iterations) == report.iterations + 1  # the last, failed iteration pushes too
    for k, iteration in enumerate(iterations):
        points = [point for _, point, _ in trials(iteration)[k == 0:]]  # not the start value
        repeated = len(points) - len(set(points))
        assert repeated == 0, f"iteration {k + 1}"
    last = iterations[-1]
    _, x, grad = last[0]
    fresh = [i for i, (name, point, _) in enumerate(last)
             if name == "project" and point == (x - 2.0 * (grad / W3)).tobytes()]
    assert len(fresh) == 1  # the fresh ladder ran: the warm one started elsewhere
    (q,) = [array for name, array, _ in last if name == "direction"]
    quasi_newton = {(x - 0.5 ** k * q).tobytes() for k in range(optim._QN_HALVINGS + 1)}
    plain = [(i, value) for i, _, value in trials(last) if last[i - 1][1] not in quasi_newton]
    d = grad / W3

    def step(i):  # the step of the plain trial evaluated at log entry i
        point = np.frombuffer(last[i - 1][1]).reshape(x.shape)
        return float(((x - point) * d).sum() / (d * d).sum())

    (warm, first), fresh_steps = plain[0], [step(i) for i, _ in plain if i > fresh[0]]
    assert warm < fresh[0]
    assert first > report.final_objective  # the warm ladder's first trial ascended
    assert fresh_steps and min(fresh_steps) > step(warm) * (1 + 1e-9)
    # a re-solve from the result changes the objective by less than the tolerance
    _, again = solve(data, mask, params, config=config, init=out)
    change = again.objective_trajectory[0] - again.final_objective
    assert change < config.rel_tol * max(1.0, abs(again.objective_trajectory[0]))


def test_warm_ladder_below_the_threshold_leaves_the_fresh_ladder_to_run(monkeypatch):
    # every plain step here is warm-started 2^40 times below the step it
    # accepted, so the warm ladder's linear bound cannot reach half the
    # threshold: it evaluates only its last rung, at a step that leaves f(x)
    # unchanged to rounding, and the fresh ladder must still run and accept.
    # The trajectory is that of a solve with no trial skipped (_ruled_out off)
    data, mask = noisy_staircase_8x8()
    params = FunctionalParams(p=1.1, alpha=2.75)
    config = SolverConfig(max_iters=200, rel_tol=1e-5)
    monkeypatch.setattr(optim, "_GROW", 2.0 ** -40)
    monkeypatch.setattr(optim._History, "direction", lambda self, grad: -grad)  # no L-BFGS step
    out, report = solve(data, mask, params, config=config)
    monkeypatch.setattr(optim, "_ruled_out", lambda lin, threshold, current: False)
    out_all, report_all = solve(data, mask, params, config=config)
    assert report_all.iterations > 20
    assert report.objective_trajectory == report_all.objective_trajectory
    assert np.array_equal(out.coeffs, out_all.coeffs)
    assert report.stop_reason == report_all.stop_reason == "tolerance"
    assert report.evaluations < report_all.evaluations


@pytest.mark.parametrize("objective", ["f-log-euclidean", "f-euclidean", "fc"])
def test_objectives_lie_above_their_tangent_planes(objective):
    # the premise of the skip: f(trial) >= f(x) - <grad f(x), x - trial>
    # for any two points, up to rounding
    rng = np.random.default_rng(90)
    data = random_field(5, 6, seed=91)
    mask = np.ones((5, 6), dtype=bool)
    mask[1:3, 2:4] = False
    params = FunctionalParams(p=1.1, alpha=2.75, beta=2.0, n_rho=2)
    pack = Objective(objective, data, mask, params)
    for _ in range(20):
        x = pack.start(random_field(5, 6, seed=int(rng.integers(1 << 30))))
        value, grad = pack.value_grad(x)
        for step in (1e-9, 1e-5, 1e-2, 1.0):
            for trial in (pack.project(x - step * grad / W3),
                          pack.project(x + step * rng.standard_normal(x.shape))):
                lin = float((grad * (x - trial)).sum())
                assert float(pack.value(trial)) >= value - lin - 1e-12 * abs(value)


def test_ladder_of_skipped_trials_still_stops_on_a_plateau():
    # steps this short cannot lower f by half of it: every trial is ruled
    # out, and the last one is evaluated so the run stops as converged (not
    # with a LineSearchError for want of any trial value)
    data = random_field(4, 4, seed=3)
    config = SolverConfig(max_iters=10, init_step=1e-12, rel_tol=0.5)
    _, report = solve(data, Mask.full(4, 4), FunctionalParams(p=1.1, alpha=0.5, n_rho=2),
                      config=config)
    assert report.converged
    assert report.iterations == 0
    assert report.evaluations == 2


def test_convexity_bound_never_skips_on_non_finite_values():
    assert optim._ruled_out(0.0, 1.0, 100.0)
    assert not optim._ruled_out(0.5, 1.0, 100.0)
    for lin in (float("nan"), float("inf"), float("-inf")):
        assert not optim._ruled_out(lin, 1.0, 100.0)
    # half the threshold is below the rounding slack of f(x): only trials the
    # linear model says ascend past that slack are ruled out
    assert not optim._ruled_out(0.0, 1e-13, 100.0)
    assert optim._ruled_out(-1e-9, 1e-13, 100.0)


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
