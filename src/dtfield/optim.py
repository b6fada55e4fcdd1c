"""Projected gradient descent for the tensor-field objectives.

solve minimizes one of the three objectives of field.Objective with the
analytic gradient of Objective.value_grad.  In "f-log-euclidean" the iterate
holds per-pixel matrix-log coefficients; in these coordinates the objective
is convex and the feasible set is a product of Frobenius log-norm balls, so
iterations carry momentum: monotone FISTA (Beck & Teboulle) with
function-value restart (O'Donoghue & Candes).  "f-euclidean" and "fc"
iterate on raw coefficients with the full SPD projection after each step;
that set is not convex, so they take plain steps only.

Every step is one backtracking ladder: trials P(base - step * grad / W),
the step halving (_BACKTRACK) until an acceptance rule stops the ladder;
the stopping trial is accepted if it lowers f(x) by at least
rel_tol * max(1, |f(x)|).  A momentum step's ladder runs from
y = x + ((t - 1) / t_next) (x - x_prev) and stops at the descent-lemma bound
f(trial) <= f(y) + <grad, d> + ||d||_F^2 / (2 step), d = trial - y; when that
trial is not accepted, no step meets the bound or f(y) or its gradient is not
finite, t restarts at 1 and the iteration is redone as a plain step from x.
A plain step's ladder runs from x and stops at a trial that satisfies the
Armijo condition f(trial) <= f(x) + c * <grad, trial - x> (c = _ARMIJO_C)
and the decrease.  Ladders are warm: the next one starts at _GROW times the
accepted step when a ladder's first trial was accepted, and at the accepted
step otherwise, so a steady step costs one evaluation and a short one can
still grow (the backtracking of Scheinberg, Goldfarb & Bai).  The first
ladder starts at twice init_step.  A run stops only after a plain step's
fresh ladder from the current point, also at twice init_step, fails too;
that is the first ladder of a re-solve from the result, so re-solving
changes the objective by less than the tolerance.

All three objectives are convex in the iterate's coordinates, so
f(x) - f(trial) <= <grad, x - trial>.  A plain ladder therefore skips,
unevaluated, every trial whose bound falls short of the decrease threshold
by half of it (_ruled_out): the run would have rejected it anyway, so
accepted steps and results are unchanged and only evaluations fall.  A
ladder that would end on a skipped trial evaluates it, for the plateau test.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass

import numpy as np

from .field import FunctionalParams, Objective, TensorField
from .spd import _W3, weighted_norm_sq


_MAX_BACKTRACKS = 60
_ARMIJO_C = 1e-4  # sufficient-decrease constant of plain steps
_BACKTRACK = 0.5  # step shrink factor of every ladder
_GROW = 1.25  # next start over the accepted step, after a first-trial acceptance

# relative rounding slack of objective values: an unaccepted line search
# whose best trial does not ascend past it is a floating-point plateau, i.e.
# convergence
_PLATEAU_REL = 1e-12


def _ruled_out(lin: float, threshold: float, current: float) -> bool:
    """Whether convexity rules out a trial's decrease of threshold.

    lin = <grad f(x), x - trial>; every objective is convex in the iterate's
    coordinates, so f(x) - f(trial) <= lin.  The trial is ruled out when lin
    falls short of threshold by half of it, and by no less than the rounding
    slack of f(x), so that a computed decrease cannot reach threshold either.
    A NaN or infinite lin rules nothing out.
    """
    slack = max(0.5 * threshold, _PLATEAU_REL * abs(current))
    return -math.inf < lin < threshold - slack


class LineSearchError(RuntimeError):
    """Backtracking found no acceptable step (objective or alpha ill-scaled)."""


@dataclass(frozen=True)
class SolverConfig:
    """Projected-gradient solver knobs."""

    max_iters: int = 50
    init_step: float = 1.0
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        for name in ("init_step", "rel_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solver run.

    objective_trajectory[0] is the objective at the initial point; one entry
    follows per accepted iteration, never increasing.  evaluations counts the
    objective values: the initial one and one per evaluated line-search
    trial (plain-step trials that convexity rules out are skipped and not
    counted); restarts counts the momentum steps redone as plain steps.
    """

    iterations: int
    objective_trajectory: list[float]
    final_objective: float
    converged: bool
    seconds: float
    evaluations: int = 0
    restarts: int = 0

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
        return asdict(self)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing trial is a rejected rung
def solve(data: TensorField, mask, params: FunctionalParams,
          objective: str = "f-log-euclidean",
          config: SolverConfig | None = None,
          init: TensorField | None = None) -> tuple[TensorField, SolveReport]:
    """Minimize the chosen objective by projected gradient descent.

    Runs until max_iters, or until no step of a plain step's fresh ladder
    (tried after a failed warm one) both satisfies the Armijo condition and
    decreases the objective by rel_tol * max(1, |objective|); momentum steps
    in log coordinates restart to such plain steps.  All three ladders
    (momentum, warm plain, fresh plain) are one backtracking loop with its own
    acceptance rule.  The returned trajectory starts at the initial objective
    and is non-increasing.  Without init the solve starts at Objective.start():
    the data, with every masked-out pixel at project_full_coeffs(0).  Overflow
    never warns: a start objective or a gradient at x that is not finite
    raises OverflowError, and a trial that overflows is rejected.
    """
    config = config if config is not None else SolverConfig()
    if init is not None and (init.height, init.width) != (data.height, data.width):
        raise ValueError(
            f"init {init.height}x{init.width} does not match data {data.height}x{data.width}"
        )
    started = time.perf_counter()
    pack = Objective(objective, data, mask, params)

    def ladder(base, grad, step, stops, plain=False):
        """Backtrack over the trials P(base - step * grad / W) until
        stops(trial point - base, <grad, trial point - base>, trial value,
        step); that trial is accepted if it lowers f(x) by the threshold.  A
        plain ladder (base = x) skips the trials that convexity rules out,
        but evaluates its last trial if it would otherwise end on a skip; a
        trial point that overflows is rejected unprojected.  The next start
        step is _GROW times the accepted step if the first trial was evaluated
        and accepted, else the accepted step.  Returns the accepted (point,
        value, next start step) or None, and the best trial value."""
        nonlocal evaluations
        direction = grad / _W3  # Frobenius-geometry descent direction
        best = np.inf
        for rung in range(_MAX_BACKTRACKS + 1):
            point = base - step * direction
            if not np.isfinite(point).all():  # overflowed: a rejected rung, not projected
                step *= _BACKTRACK
                continue
            candidate = pack.project(point)
            d = candidate - base
            slope = float((grad * d).sum())
            if plain and rung < _MAX_BACKTRACKS and _ruled_out(-slope, threshold, current):
                step *= _BACKTRACK
                continue
            trial = float(pack.value(candidate))
            evaluations += 1
            best = min(best, trial)
            if stops(d, slope, trial, step):
                if current - trial >= threshold:
                    return (candidate, trial, step * _GROW if rung == 0 else step), best
                break
            step *= _BACKTRACK
        return None, best

    x = x_prev = pack.start(init)
    current = float(pack.value(x))
    if not math.isfinite(current):
        raise OverflowError(f"objective {current} at the start point; "
                            f"alpha, beta or p may be too large")
    trajectory = [current]
    converged = False
    evaluations = 1
    restarts = 0
    t = 1.0  # momentum weight; stays 1 (plain steps only) outside log mode
    start = fresh = config.init_step / _BACKTRACK
    for iteration in range(config.max_iters):
        threshold = config.rel_tol * max(1.0, abs(current))
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        accepted = None
        if t > 1.0:
            # momentum step from y, stopped by the descent-lemma bound at y
            y = x + ((t - 1.0) / t_next) * (x - x_prev)
            f_y, grad = pack.value_grad(y)  # comes with the gradient: not counted
            if math.isfinite(f_y) and np.isfinite(grad).all():
                accepted, _ = ladder(y, grad, start, lambda d, slope, trial, step: (
                    trial <= f_y + float(slope + weighted_norm_sq(d).sum() / (2 * step))))
            if accepted is None:  # restart: redo this iteration as a plain step
                restarts += 1
                t = 1.0
                t_next = (1.0 + math.sqrt(5.0)) / 2.0
        if accepted is None:
            grad = pack.value_grad(x)[1]
            if not np.isfinite(grad).all():
                raise OverflowError(f"gradient not finite at iteration {iteration + 1} (objective "
                                    f"{current:.6g}); alpha, beta or p may be too large")
            if not np.abs(grad / _W3).max() > 0.0:
                converged = True  # exact stationary point of a convex objective
                break
            best_trial = np.inf
            for step in (start,) if start == fresh else (start, fresh):  # warm, then fresh
                accepted, best = ladder(x, grad, step, lambda d, slope, trial, _: (
                    current - trial >= threshold
                    and trial <= current + _ARMIJO_C * slope), plain=True)
                best_trial = min(best_trial, best)
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
        x_prev = x
        x, current, start = accepted
        if pack.log_mode:
            t = t_next
        trajectory.append(current)
    result = pack.finish(x)
    report = SolveReport(
        iterations=len(trajectory) - 1,
        objective_trajectory=trajectory,
        final_objective=trajectory[-1],
        converged=converged,
        seconds=time.perf_counter() - started,
        evaluations=evaluations,
        restarts=restarts,
    )
    return result, report
