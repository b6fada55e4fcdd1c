"""Projected gradient descent for the tensor-field objectives.

solve minimizes one of the three objectives of field.Objective.  In
"f-log-euclidean" the iterate holds per-pixel matrix-log coefficients; in
these coordinates the objective is convex and the feasible set is the
Frobenius log-norm ball, so each iteration is a gradient step followed by
the ball projection.  "f-euclidean" and "fc" iterate on raw coefficients
with the full SPD projection after each step.

Steps use Armijo backtracking: a trial point is accepted when it satisfies the
sufficient-decrease inequality f(trial) <= f(x) + c * <grad, trial - x>
and decreases the objective by at least rel_tol * max(1, |f(x)|).  Ladders
are warm, starting one backtracking factor above the last accepted step (the
first at the fresh step init_step / factor).  A run stops only after a fresh
ladder from the current point also fails; that is the first ladder of a
re-solve from the result, so re-solving changes the objective by less than
the tolerance.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .field import (
    FunctionalParams,
    Mollifier,
    Objective,
    TensorField,
    _mask_values,
)
from .spd import coeff_weights, project_full, weighted_norm_sq

_W3 = coeff_weights(3)

_GRAD_MODES = ("analytic", "finite-difference")
_MAX_BACKTRACKS = 60

# an unaccepted line search whose best trial does not ascend past this
# relative slack is a floating-point plateau, i.e. convergence
_PLATEAU_REL = 1e-12


class LineSearchError(RuntimeError):
    """Backtracking found no acceptable step (objective or alpha ill-scaled)."""


@dataclass(frozen=True)
class SolverConfig:
    """Projected-gradient solver knobs."""

    max_iters: int = 50
    grad_mode: str = "analytic"
    fd_step: float = 1e-6
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    init_step: float = 1.0
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_mode not in _GRAD_MODES:
            raise ValueError(f"grad_mode must be one of {_GRAD_MODES}, got {self.grad_mode!r}")
        for name in ("fd_step", "armijo_c", "init_step", "rel_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError(
                f"backtrack_factor must lie in (0, 1), got {self.backtrack_factor}"
            )


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solver run.

    objective_trajectory[0] is the objective at the initial point; one entry
    follows per accepted iteration, never increasing.  evaluations counts the
    objective values: the initial one and one per line-search trial.
    """

    iterations: int
    objective_trajectory: list[float]
    final_objective: float
    converged: bool
    seconds: float
    evaluations: int = 0

    def __post_init__(self):
        traj = [float(v) for v in self.objective_trajectory]
        if len(traj) != self.iterations + 1:
            raise ValueError(
                f"{self.iterations} iterations need {self.iterations + 1} trajectory "
                f"entries, got {len(traj)}"
            )
        if any(b > a for a, b in zip(traj, traj[1:])):
            raise ValueError("objective trajectory is not non-increasing")
        if traj[-1] != self.final_objective:
            raise ValueError("final_objective does not match the trajectory")
        object.__setattr__(self, "objective_trajectory", traj)

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "objective_trajectory": self.objective_trajectory,
            "final_objective": self.final_objective,
            "converged": self.converged,
            "seconds": self.seconds,
            "evaluations": self.evaluations,
        }


_FD_CHUNK = 512


def _fd_gradient(value, x: np.ndarray, step: float, ball_z: float | None) -> np.ndarray:
    """Componentwise finite differences of a batched objective evaluator.

    Central differences everywhere except where a perturbation would leave
    the per-pixel log-norm ball of radius ball_z; there the difference is
    one-sided toward the interior.  Perturbed evaluations run in batches of
    _FD_CHUNK coordinates to bound memory.
    """
    n = x.size
    flat = x.reshape(-1)
    f_plus = np.empty(n)
    f_minus = np.empty(n)
    for lo in range(0, n, _FD_CHUNK):
        hi = min(lo + _FD_CHUNK, n)
        rows = np.arange(hi - lo)
        block = np.repeat(flat[None, :], hi - lo, axis=0)
        block[rows, lo + rows] += step
        f_plus[lo:hi] = value(block.reshape((-1,) + x.shape))
        block[rows, lo + rows] -= 2.0 * step
        f_minus[lo:hi] = value(block.reshape((-1,) + x.shape))
    if ball_z is None:
        return ((f_plus - f_minus) / (2.0 * step)).reshape(x.shape)
    # closed-form perturbed norms: ||L +- h e_k||^2 = ||L||^2 +- 2 w_k L_k h + w_k h^2
    base = weighted_norm_sq(x)[..., None]            # (H, W, 1)
    cross = 2.0 * step * (_W3 * x)                   # (H, W, 6)
    wh2 = _W3 * step * step
    ok_plus = (base + cross + wh2 <= ball_z ** 2).reshape(-1)
    ok_minus = (base - cross + wh2 <= ball_z ** 2).reshape(-1)
    if (ok_plus & ok_minus).all():
        return ((f_plus - f_minus) / (2.0 * step)).reshape(x.shape)
    f_zero = float(value(x))
    central = (f_plus - f_minus) / (2.0 * step)
    forward = (f_plus - f_zero) / step
    backward = (f_zero - f_minus) / step
    grad = np.where(ok_plus & ok_minus, central,
                    np.where(ok_minus, backward, forward))
    return grad.reshape(x.shape)


def grad_F_log(log_field: np.ndarray, data, mask, params: FunctionalParams,
               mollifier: Mollifier | None = None) -> np.ndarray:
    """Exact gradient of the log-coordinate objective fidelity + alpha * Phi.

    log_field is a (height, width, 6) array of matrix-log coefficients; data
    is the observed TensorField (or its log coefficients).  The result holds
    the partial derivatives with respect to each independent coefficient, so
    off-diagonal entries carry the Frobenius chain-rule factor 2.
    """
    L = np.asarray(log_field, dtype=np.float64)
    return Objective("f-log-euclidean", data, mask, params, mollifier).value_grad(L)[1]


def grad_F_fd(log_field: np.ndarray, data, mask, params: FunctionalParams,
              mollifier: Mollifier | None = None, fd_step: float = 1e-6) -> np.ndarray:
    """Finite-difference gradient of the same objective as grad_F_log.

    Uses only objective evaluations (an independent route from the analytic
    gradient): central differences of step fd_step, falling back to one-sided
    differences where a perturbation would leave the log-norm ball.
    """
    L = np.asarray(log_field, dtype=np.float64)
    pack = Objective("f-log-euclidean", data, mask, params, mollifier)
    return _fd_gradient(pack.value, L, fd_step, params.z)


def default_init(data: TensorField, mask, params: FunctionalParams) -> TensorField:
    """Observed data with every masked-out pixel replaced by project_full(0)."""
    mask_values = _mask_values(mask, (data.height, data.width))
    coeffs = data.coeffs.copy()
    seed = project_full(np.zeros((3, 3)), params.epsilon, params.z)
    coeffs[~mask_values] = seed.mat.coeffs
    return TensorField(coeffs, max(data.log_bound, params.z))


def solve(data: TensorField, mask, params: FunctionalParams,
          objective: str = "f-log-euclidean",
          config: SolverConfig | None = None,
          init: TensorField | None = None,
          mollifier: Mollifier | None = None) -> tuple[TensorField, SolveReport]:
    """Minimize the chosen objective by projected gradient descent.

    Runs until max_iters, or until no step of the fresh line-search ladder
    (tried after a failed warm one) both satisfies the Armijo condition and
    decreases the objective by rel_tol * max(1, |objective|).  The returned
    trajectory starts at the initial objective and is non-increasing.
    """
    config = config if config is not None else SolverConfig()
    mask_values = _mask_values(mask, (data.height, data.width))
    if init is None:
        init = default_init(data, mask_values, params)
    elif (init.height, init.width) != (data.height, data.width):
        raise ValueError(
            f"init {init.height}x{init.width} does not match data {data.height}x{data.width}"
        )
    started = time.perf_counter()
    pack = Objective(objective, data, mask_values, params, mollifier)
    ball_z = params.z if pack.log_mode else None
    x = pack.start(init)
    current = float(pack.value(x))
    trajectory = [current]
    converged = False
    evaluations = 1
    start = fresh = config.init_step / config.backtrack_factor
    for iteration in range(config.max_iters):
        if config.grad_mode == "analytic":
            _, grad = pack.value_grad(x)
        else:
            grad = _fd_gradient(pack.value, x, config.fd_step, ball_z)
        direction = grad / _W3  # Frobenius-geometry descent direction
        if not np.abs(direction).max() > 0.0:
            converged = True  # exact stationary point of a convex objective
            break
        threshold = config.rel_tol * max(1.0, abs(current))
        accepted = None
        best_trial = np.inf
        for step in (start,) if start == fresh else (start, fresh):  # warm, then fresh
            for _ in range(_MAX_BACKTRACKS + 1):
                candidate = pack.project(x - step * direction)
                trial = float(pack.value(candidate))
                evaluations += 1
                best_trial = min(best_trial, trial)
                armijo = current + config.armijo_c * float((grad * (candidate - x)).sum())
                if current - trial >= threshold and trial <= armijo:
                    accepted = (candidate, trial, step / config.backtrack_factor)
                    break
                step *= config.backtrack_factor
            if accepted is not None:
                break
        if accepted is None:
            # the fresh ladder failed too, as a re-solve from x would: stop.  That is
            # convergence unless every trial ascended past rounding (ill-scaled weight)
            if best_trial <= current + _PLATEAU_REL * max(1.0, abs(current)):
                converged = True
                break
            raise LineSearchError(
                f"no acceptable step after {_MAX_BACKTRACKS} backtracks at iteration "
                f"{iteration + 1} (objective {current:.6g}, best trial {best_trial:.6g}); "
                f"the regularization weight may be ill-scaled"
            )
        x, current, start = accepted
        trajectory.append(current)
    result = pack.finish(x)
    report = SolveReport(
        iterations=len(trajectory) - 1,
        objective_trajectory=trajectory,
        final_objective=trajectory[-1],
        converged=converged,
        seconds=time.perf_counter() - started,
        evaluations=evaluations,
    )
    return result, report
