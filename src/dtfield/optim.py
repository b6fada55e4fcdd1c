"""Projected descent for the tensor-field objectives.

solve minimizes one of the three objectives of field.Objective with the
analytic gradient of Objective.value_grad.  In "f-log-euclidean" the iterate
holds per-pixel matrix-log coefficients; in these coordinates the objective
is convex and the feasible set is a product of Frobenius log-norm balls, so
iterations first try a projected L-BFGS step (Liu & Nocedal; projected
quasi-Newton as in Schmidt, van den Berg, Friedlander & Murphy).
"f-euclidean" and "fc" iterate on raw coefficients with the full SPD
projection after each step; that set is not convex, so they take plain steps
only.

Every step is one backtracking ladder: trials P(x - step * direction), the
step halving (_BACKTRACK) until a trial satisfies the Armijo condition
f(trial) <= f(x) + c * <grad, trial - x> (c = _ARMIJO_C) and lowers f(x) by
at least rel_tol * max(1, |f(x)|); that trial is accepted.  A quasi-Newton
ladder takes direction = H grad from step 1, halving at most _QN_HALVINGS
times.  H is the L-BFGS inverse-Hessian estimate of the last _HISTORY pairs
s = x+ - x, y = grad f(x+) - grad f(x) of accepted steps (a pair with
<s, y> <= _CURVATURE_SKIP ||s|| ||y|| is dropped), with H0 = gamma W^-1,
W the Frobenius weights of the coefficients and gamma = <s, y> / <y, W^-1 y>
of the newest pair.  An iteration whose history is empty, whose <grad, H grad>
is not positive or whose quasi-Newton ladder accepts no trial takes a plain
step instead: ladders with direction = grad / W.  Plain ladders are warm: the
next one starts at _GROW times the accepted step when a ladder's first trial
was accepted, and at the accepted step otherwise, so a steady step costs one
evaluation and a short one can still grow (the backtracking of Scheinberg,
Goldfarb & Bai); a quasi-Newton acceptance leaves that start alone.  The
first plain ladder starts at twice init_step.  A run stops only after a
plain step's fresh ladder from the current point, also at twice init_step,
fails too; a re-solve from the result starts with an empty history, so that
is its first ladder, and re-solving changes the objective by less than the
tolerance.

All three objectives are convex in the iterate's coordinates, so
f(x) - f(trial) <= <grad, x - trial>.  A ladder therefore skips,
unevaluated, every trial whose bound falls short of the decrease threshold
by half of it (_ruled_out).  The warm and fresh ladders of one iteration
share x and direction, so a step one of them evaluated is not evaluated
again.  The run would have rejected every skipped trial anyway, so accepted
steps and results are unchanged and only evaluations fall.  A plain ladder
that would end on a skipped trial evaluates it for the plateau test, unless
a trial of the iteration already passes that test.

A ladder's first trial, the one most iterations accept, is evaluated
together with its gradient (Objective.value_grad, whose value has the bits of
Objective.value), and the next iteration reuses that gradient; later trials
are evaluated without one.  So the gradient at an iterate is computed apart
only at the start point and after an acceptance at a later rung.
"""
from __future__ import annotations

import collections
import math
import numbers
import time
from dataclasses import asdict, dataclass

import numpy as np

from .field import FunctionalParams, Objective, TensorField
from .spd import _W3


_MAX_BACKTRACKS = 60
_ARMIJO_C = 1e-4  # sufficient-decrease constant of every ladder
_BACKTRACK = 0.5  # step shrink factor of every ladder
_GROW = 1.25  # next plain start over the accepted step, after a first-trial acceptance
_HISTORY = 5  # L-BFGS pairs kept
_QN_HALVINGS = 20  # quasi-Newton ladder: trials at steps 1, 1/2, ..., 2^-20
_CURVATURE_SKIP = 1e-12  # a pair with <s, y> <= this * ||s|| ||y|| is dropped

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


def _dot(a, b) -> float:
    """<a, b> as an elementwise product summed by np.sum: no BLAS call, whose
    summation order depends on the CPU kernel."""
    return float((a * b).sum())


class _History:
    """The last _HISTORY curvature pairs of accepted steps, and the L-BFGS
    two-loop recursion on them.

    pairs holds (s, y, 1 / <s, y>) tuples, oldest first; gamma, of H0 =
    gamma W^-1, comes from the newest pair.
    """

    def __init__(self):
        self.pairs = collections.deque(maxlen=_HISTORY)
        self.gamma = 1.0

    def push(self, x, x_prev, grad, grad_prev):
        """Store s = x - x_prev, y = grad - grad_prev unless <s, y> is too small.

        A dropped pair also drops the oldest pair of a full history."""
        s, y = x - x_prev, grad - grad_prev
        sy = _dot(s, y)
        if not sy > _CURVATURE_SKIP * math.sqrt(_dot(s, s) * _dot(y, y)):
            if len(self.pairs) == _HISTORY:
                self.pairs.popleft()
            return
        self.pairs.append((s, y, 1.0 / sy))
        self.gamma = sy / _dot(y, y / _W3)

    def direction(self, grad):
        """H grad, a new array."""
        q, alphas = grad.copy(), []
        for s, y, rho in reversed(self.pairs):  # newest first
            alphas.append(rho * _dot(s, q))
            q -= y * alphas[-1]
        q *= self.gamma / _W3
        for (s, y, rho), alpha in zip(self.pairs, reversed(alphas)):
            q += s * (alpha - rho * _dot(y, q))
        return q


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
    trial (skipped trials are not counted); a first trial evaluated with its
    gradient counts once, and a gradient at an iterate that no trial supplied
    is not counted; quasi_newton_steps counts the iterations whose accepted
    step came from the L-BFGS ladder, always 0 outside log mode.  solve sets
    stop_reason: "stationary" (zero gradient), "tolerance" (the fresh plain
    ladder failed at a plateau) or "max_iters"; converged is stop_reason !=
    "max_iters".
    """

    iterations: int
    objective_trajectory: list[float]
    final_objective: float
    converged: bool
    seconds: float
    evaluations: int = 0
    quasi_newton_steps: int = 0
    stop_reason: str | None = None

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
        if self.stop_reason not in (None, "stationary", "tolerance", "max_iters"):
            raise ValueError(f"stop_reason {self.stop_reason!r} is not 'stationary', "
                             f"'tolerance', 'max_iters' or None")
        if self.stop_reason is not None and self.converged == (self.stop_reason == "max_iters"):
            raise ValueError(f"stop_reason {self.stop_reason!r} contradicts converged = "
                             f"{self.converged}")
        object.__setattr__(self, "objective_trajectory", traj)

    def to_json_dict(self) -> dict:
        return asdict(self)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing trial is a rejected rung
def solve(data: TensorField, mask, params: FunctionalParams,
          objective: str = "f-log-euclidean",
          config: SolverConfig | None = None,
          init: TensorField | None = None) -> tuple[TensorField, SolveReport]:
    """Minimize the chosen objective by projected descent.

    Runs until max_iters, or until no step of a plain step's fresh ladder
    (tried after a failed warm one) both satisfies the Armijo condition and
    decreases the objective by rel_tol * max(1, |objective|).  In log
    coordinates an iteration first tries a projected L-BFGS step with the
    same acceptance test, and takes the plain ladders when it fails.  All
    ladders are one backtracking loop.  The returned trajectory starts at the
    initial objective and is non-increasing.  Without init the solve starts
    at Objective.start(): the data, with every masked-out pixel at
    project_full_coeffs(0).  Overflow never warns: a start objective or a
    gradient at x that is not finite raises OverflowError, and a trial that
    overflows is rejected.
    """
    config = config if config is not None else SolverConfig()
    if init is not None and (init.height, init.width) != (data.height, data.width):
        raise ValueError(
            f"init {init.height}x{init.width} does not match data {data.height}x{data.width}"
        )
    started = time.perf_counter()
    pack = Objective(objective, data, mask, params)

    def flat(tried):
        """The plateau test: some trial of tried does not ascend past rounding."""
        return any(v <= current + _PLATEAU_REL * max(1.0, abs(current)) for v in tried.values())

    def ladder(direction, step, rungs, tried):
        """Backtrack over the trials P(x - step * direction), halving step at
        most rungs times, until a trial satisfies the Armijo condition and
        lowers f(x) by the threshold.  tried maps each step this iteration
        evaluated along direction to its value; steps in it, and trials that
        convexity rules out, are skipped (module docstring); a trial point
        that overflows is rejected unprojected.  The first trial is evaluated
        with its gradient.  The next start step is _GROW times the accepted
        step if the first trial was evaluated and accepted, else the accepted
        step.  Returns the accepted (point, value, next start
        step, gradient at the point or None), or None."""
        nonlocal evaluations
        for rung in range(rungs + 1):
            point = None if step in tried else x - step * direction
            if point is None or not np.isfinite(point).all():  # seen, or overflowed
                step *= _BACKTRACK
                continue
            candidate = pack.project(point)
            slope = _dot(grad, candidate - x)
            if _ruled_out(-slope, threshold, current) and (rung < _MAX_BACKTRACKS or flat(tried)):
                step *= _BACKTRACK
                continue
            if rung == 0:
                trial, trial_grad = pack.value_grad(candidate)
            else:
                trial, trial_grad = float(pack.value(candidate)), None
            evaluations += 1
            tried[step] = trial
            if current - trial >= threshold and trial <= current + _ARMIJO_C * slope:
                return candidate, trial, step * _GROW if rung == 0 else step, trial_grad
            step *= _BACKTRACK
        return None

    x = pack.start(init)
    current = float(pack.value(x))
    if not math.isfinite(current):
        raise OverflowError(f"objective {current} at the start point; "
                            f"alpha, beta or p may be too large")
    trajectory = [current]
    stop_reason = "max_iters"
    evaluations = 1
    quasi_newton_steps = 0
    history = _History() if pack.log_mode else None
    x_prev = grad_prev = grad = None
    start = fresh = config.init_step / _BACKTRACK
    for iteration in range(config.max_iters):
        threshold = config.rel_tol * max(1.0, abs(current))
        if grad is None:  # no accepted first trial supplied it
            grad = pack.value_grad(x)[1]
        if not np.isfinite(grad).all():
            raise OverflowError(f"gradient not finite at iteration {iteration + 1} (objective "
                                f"{current:.6g}); alpha, beta or p may be too large")
        if not grad.any():
            stop_reason = "stationary"  # exact stationary point of a convex objective
            break
        accepted = None
        if history is not None:
            if x_prev is not None:
                history.push(x, x_prev, grad, grad_prev)
            if history.pairs:
                direction = history.direction(grad)
                if _dot(grad, direction) > 0.0:  # -H grad is a descent direction
                    accepted = ladder(direction, 1.0, _QN_HALVINGS, {})
        if accepted is not None:
            quasi_newton_steps += 1
        else:
            direction = grad / _W3  # Frobenius-geometry gradient
            tried = {}  # shared by the warm and the fresh ladder
            for step in (start,) if start == fresh else (start, fresh):  # warm, then fresh
                accepted = ladder(direction, step, _MAX_BACKTRACKS, tried)
                if accepted is not None:
                    break
            if accepted is None:
                # the fresh ladder failed too, as a re-solve from x would: stop.  That is
                # convergence unless every trial ascended past rounding (ill-scaled weight)
                if flat(tried):
                    stop_reason = "tolerance"
                    break
                best_trial = min(tried.values(), default=np.inf)
                raise LineSearchError(
                    f"no acceptable step after {_MAX_BACKTRACKS} backtracks at iteration "
                    f"{iteration + 1} (objective {current:.6g}, best trial {best_trial:.6g}); "
                    f"the regularization weight may be ill-scaled"
                )
            start = accepted[2]
        x_prev, grad_prev = x, grad
        x, current, _, grad = accepted
        trajectory.append(current)
    result = pack.finish(x)
    report = SolveReport(
        iterations=len(trajectory) - 1,
        objective_trajectory=trajectory,
        final_objective=trajectory[-1],
        converged=stop_reason != "max_iters",
        seconds=time.perf_counter() - started,
        evaluations=evaluations,
        quasi_newton_steps=quasi_newton_steps,
        stop_reason=stop_reason,
    )
    return result, report
