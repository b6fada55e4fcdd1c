"""Tensor fields on a 2-D pixel grid and the variational energies on them.

A field is a height x width grid of 3x3 SPD matrices stored as a
(height, width, 6) coefficient array, one pixel per grid point with unit
spacing.  The paper's two functionals are F = fidelity + alpha * Phi, with
Phi the metric double-integral regularizer (a discretized fractional Sobolev
semi-norm), and the comparison functional F_C = Frobenius fidelity + beta *
Theta, with Theta the forward-difference Sobolev semi-norm.  Objective is
their one implementation: values, gradients, feasible-set projections and
the map between fields and coordinates.  The solver evaluates through it,
and functional gives its value at a field.

The batched evaluators accept arrays with arbitrary leading axes in front
of (height, width, 6) and return one energy per leading index; gradients
are with respect to the independent coefficients (so off-diagonal partials
carry the Frobenius factor 2).  All reductions run in a fixed index order,
so results are bit-deterministic.  pairwise_energy takes offset (di, dj) as
the shift di * width + dj of the row-major pixels, one contiguous slice pair
that the first pixel's column splits between (di, dj) and (di + 1, dj - width).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spd import (
    EPSILON_DEFAULT,
    LOG_BOUND_DEFAULT,
    _W3,
    _certified_feasible,
    _check_floor_in_ball,
    eigh_coeffs,
    exp_coeffs,
    log_coeffs,
    project_full_coeffs,
    project_log_coeffs,
    weighted_norm_sq,
)

# absolute slack on per-pixel log-norms: reassembled float64 coefficients of
# a tensor on the ball boundary can overshoot the bound by rounding
_BOUND_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class TensorField:
    """A height x width grid of 3x3 SPD tensors with a common log-norm bound.

    coeffs has shape (height, width, 6) in the layout
    [a11, a22, a33, a12, a13, a23]; every pixel must be strictly positive
    definite with ||Log||_F <= log_bound (small absolute rounding slack).
    Only pixels that spd._certified_feasible cannot prove valid are decomposed.
    """

    coeffs: np.ndarray
    log_bound: float = LOG_BOUND_DEFAULT

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=np.float64)
        if coeffs.ndim != 3 or coeffs.shape[-1] != 6:
            raise ValueError(f"expected (height, width, 6) coefficients, got {coeffs.shape}")
        if coeffs.shape[0] < 1 or coeffs.shape[1] < 1:
            raise ValueError(f"empty grid {coeffs.shape[:2]}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite coefficients")
        bound = float(self.log_bound)
        if not np.isfinite(bound) or bound < 0.0:
            raise ValueError(f"log_bound must be finite and >= 0, got {bound}")
        # selection keeps row-major order: a message names the first bad pixel
        todo = np.flatnonzero(~_certified_feasible(coeffs, 0.0, bound))
        if todo.size:
            vals, _ = eigh_coeffs(coeffs.reshape(-1, 6)[todo])
            if vals[:, -1].min() <= 0.0:
                bad = np.unravel_index(todo[np.argmin(vals[:, -1])], coeffs.shape[:2])
                raise ValueError(
                    f"pixel (row {bad[0]}, col {bad[1]}) is not positive definite "
                    f"(min eigenvalue {vals[:, -1].min():g}); project the field first"
                )
            logs = np.log(vals)  # every eigenvalue is > 0, checked above
            lognorms = np.sqrt((logs * logs).sum(axis=-1))
            if lognorms.max() > bound + _BOUND_SLACK:
                bad = np.unravel_index(todo[np.argmax(lognorms)], coeffs.shape[:2])
                raise ValueError(
                    f"pixel (row {bad[0]}, col {bad[1]}) has ||Log||_F = "
                    f"{lognorms.max():.6g} > bound {bound:g}"
                )
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "log_bound", bound)

    @property
    def height(self) -> int:
        return self.coeffs.shape[0]

    @property
    def width(self) -> int:
        return self.coeffs.shape[1]


def _grid_coeffs(w) -> np.ndarray:
    """(height, width, 6) coefficients of a TensorField or a raw array."""
    coeffs = w.coeffs if isinstance(w, TensorField) else np.asarray(w, dtype=np.float64)
    if coeffs.ndim != 3 or coeffs.shape[-1] != 6:
        raise ValueError(f"expected (height, width, 6) coefficients, got {coeffs.shape}")
    return coeffs


@dataclass(frozen=True, eq=False)
class Mask:
    """Boolean per-pixel indicator: true = data present at that pixel."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=bool)
        if values.ndim != 2:
            raise ValueError(f"expected a 2-D mask, got shape {values.shape}")
        if not values.any():
            raise ValueError("mask has no true pixels")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @classmethod
    def full(cls, height: int, width: int) -> "Mask":
        return cls(np.ones((height, width), dtype=bool))


def _mask_values(mask, shape) -> np.ndarray:
    """Boolean (height, width) array from a Mask or a raw boolean array."""
    values = mask.values if isinstance(mask, Mask) else np.asarray(mask, dtype=bool)
    if values.shape != shape:
        raise ValueError(f"mask shape {values.shape} does not match field {shape}")
    return values


def build_mollifier(n_rho: int) -> np.ndarray:
    """Bump-profile mollifier weights on the discrete disk of radius n_rho.

    Returns a (2 n_rho + 1, 2 n_rho + 1) array whose entry
    [n_rho + dy, n_rho + dx] is the weight of offset (dx, dy):
    exp(-1/(1 - r^2)) with
    r = sqrt(dx^2 + dy^2)/(n_rho + 1/2) inside the disk dx^2 + dy^2 <= n_rho^2
    and 0 outside, normalized to total mass 1.  The half-pixel margin keeps
    every weight on the disk strictly positive.
    """
    n_rho = int(n_rho)
    if n_rho < 1:
        raise ValueError(f"n_rho must be >= 1, got {n_rho}")
    offs = np.arange(-n_rho, n_rho + 1)
    rsq = offs[:, None] ** 2 + offs[None, :] ** 2
    inside = rsq <= n_rho ** 2
    r2 = rsq / (n_rho + 0.5) ** 2
    with np.errstate(divide="ignore", over="ignore"):
        bump = np.exp(-1.0 / (1.0 - r2))
    weights = np.where(inside, bump, 0.0)
    return weights / weights.sum()


@dataclass(frozen=True)
class FunctionalParams:
    """Weights and exponents of the variational functionals.

    p, s are the fidelity/regularity exponents; alpha weighs the metric
    double-integral regularizer Phi, beta the Sobolev comparison term Theta;
    l toggles the mollifier window in Phi (0 = all pixel pairs); n_rho is the
    mollifier radius in pixels; z and epsilon parametrize the SPD projection.
    """

    p: float = 1.1
    s: float = 0.5
    alpha: float = 1.0
    beta: float = 1.0
    l: int = 1
    n_rho: int = 3
    z: float = LOG_BOUND_DEFAULT
    epsilon: float = EPSILON_DEFAULT

    def __post_init__(self):
        for name in ("p", "s", "alpha", "beta", "n_rho"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.p > 1.0:
            raise ValueError(f"p must be > 1, got {self.p}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.l not in (0, 1):
            raise ValueError(f"l must be 0 or 1, got {self.l}")
        if int(self.n_rho) != self.n_rho or self.n_rho < 1:
            raise ValueError(f"n_rho must be an integer >= 1, got {self.n_rho}")
        _check_floor_in_ball(self.epsilon, self.z)


def _power(norm_sq: np.ndarray, p: float) -> np.ndarray:
    """norm^p from the squared norm; at p = 2 the squared norm itself, the
    bits of np.power(norm_sq, 1.0)."""
    return norm_sq if p == 2.0 else np.power(norm_sq, 0.5 * p)


def _power_grad_factor(norm_sq: np.ndarray, p: float):
    """d/dnorm factor norm^(p-2), with the 0/0 limit resolved to 0.  At p = 2
    it is the numpy scalar 1.0, which broadcasts against norm_sq's shape: a
    difference whose norm_sq is 0 is itself 0 unless its squares underflow,
    so the gradient keeps the bits of the array factor."""
    if p == 2.0:
        return np.float64(1.0)
    return np.power(norm_sq, 0.5 * p - 1.0, out=np.zeros_like(norm_sq), where=norm_sq > 0.0)


# ---- batched evaluators (leading axes allowed before (height, width, 6)) ----

def fidelity_energy(rep: np.ndarray, data_rep: np.ndarray, mask_values: np.ndarray,
                    p: float, need_grad: bool = False):
    """Masked p-th-power distance sum in coordinate space.

    rep may carry leading batch axes; data_rep and mask_values are broadcast.
    Returns energy with the leading batch shape, and optionally the gradient
    with respect to rep (independent coefficients, Frobenius-weighted).
    """
    diff = rep - data_rep
    nsq = weighted_norm_sq(diff)
    masked = np.where(mask_values, _power(nsq, p), 0.0)
    energy = masked.sum(axis=(-2, -1))
    if not need_grad:
        return energy
    diff *= (p * np.where(mask_values, _power_grad_factor(nsq, p), 0.0))[..., None]
    diff *= _W3
    return energy, diff


def phi_kernel_offsets(height: int, width: int,
                       params: FunctionalParams) -> list[tuple[int, int, float]]:
    """Half-plane offset list [(di, dj, kernel)] for the pairwise regularizer.

    Each unordered pixel-pair offset appears once (di > 0, or di = 0 and
    dj > 0); evaluators double the contribution to account for both ordered
    pairs of the underlying double integral.  kernel is
    rho^l(offset) / |offset|^(n + p s) with n = 2 and unit pixel spacing.
    """
    exponent = 2.0 + params.p * params.s
    if params.l == 1:
        n = int(params.n_rho)
        weights = build_mollifier(n)
    else:  # all pairs: a constant window covering every offset of the grid
        n = max(height, width) - 1
        weights = np.ones((2 * n + 1, 2 * n + 1))
    reach_i, reach_j = min(n, height - 1), min(n, width - 1)
    offsets = []
    for di in range(0, reach_i + 1):
        for dj in range(-reach_j, reach_j + 1):
            if di == 0 and dj <= 0:
                continue
            rho = float(weights[n + di, n + dj])
            if rho == 0.0:
                continue
            dist = math.sqrt(di * di + dj * dj)
            offsets.append((di, dj, rho / dist ** exponent))
    return offsets


def pairwise_energy(rep: np.ndarray, offsets: list[tuple[int, int, float]],
                    p: float, need_grad: bool = False):
    """Sum over ordered pixel pairs of kernel * distance^p in coordinate space.

    rep is (..., height, width, 6); offsets is phi_kernel_offsets(height,
    width, ...), in any order.  Offset (di, dj) is the shift s = di * width +
    dj of the row-major pixels, a zero row appended: its pairs (q, q + s), q <
    (height - di) * width, are one contiguous slice pair, split by q's column
    c: c < width - (s mod width) belongs to (s // width, s mod width), the
    rest to (s // width + 1, s mod width - width), served too while pending.
    Pairs of unlisted offsets get no weight; each offset's energy sums its
    pairs as one (rows, cols) block, in list order.  The gradient applies the
    Frobenius weights (1 and 2, so the bits are the same) once at the end.
    """
    height, width = rep.shape[-3], rep.shape[-2]
    lead, n = rep.shape[:-3], height * width
    flat = np.concatenate((rep.reshape(lead + (n, 6)), np.zeros(lead + (width, 6))), axis=-2)
    pending = {(di, dj): kernel for di, dj, kernel in offsets}  # no pass run yet
    deferred = {}  # energies of offsets taken in a partner's pass
    energy = np.zeros(lead)
    grad = np.zeros(lead + (n, 6)) if need_grad else None
    for di, dj, kernel in offsets:
        if pending.pop((di, dj), None) is None:  # taken in its partner's pass
            energy = energy + deferred.pop((di, dj))
            continue
        size, shift = (height - di) * width, di * width + dj
        diff = flat[..., :size, :] - flat[..., shift:shift + size, :]
        nsq = weighted_norm_sq(diff).reshape(lead + (height - di, width))
        cut = width - dj if dj >= 0 else -dj
        own, rest = (slice(0, cut), slice(cut, width)) if dj >= 0 else \
            (slice(cut, width), slice(0, cut))
        # np.power copies the block contiguous, summed as a lone block; exact at p = 2
        energy = energy + 2.0 * kernel * np.power(nsq[..., own], 0.5 * p).sum(axis=(-2, -1))
        partner = pending.pop((di + 1, dj - width), None) if dj > 0 else None
        if partner is not None:
            deferred[di + 1, dj - width] = 2.0 * partner * np.power(
                nsq[..., :-1, rest], 0.5 * p).sum(axis=(-2, -1))
        if need_grad:
            scale = 2.0 * kernel * p
            if partner is not None:
                scale = np.full(width, 2.0 * partner * p)
                scale[own] = 2.0 * kernel * p
            pairs = diff.reshape(nsq.shape + (6,))
            pairs *= (scale * _power_grad_factor(nsq, p))[..., None]
            pairs[..., slice(None) if partner is None else -1, rest, :] = 0.0  # no weight
            grad[..., :size, :] += diff
            grad[..., shift:shift + size, :] -= diff[..., :n - shift, :]
    if need_grad:
        grad *= _W3
        return energy, grad.reshape(rep.shape)
    return energy


def theta_energy(coeffs: np.ndarray, p: float, need_grad: bool = False):
    """Forward-difference Sobolev energy sum_x ||grad w(x)||_F^p.

    The gradient norm at a pixel stacks the forward differences toward the
    right and bottom neighbors (full-matrix Frobenius); a difference is
    dropped where the neighbor does not exist.
    """
    height, width = coeffs.shape[-3], coeffs.shape[-2]
    gsq = np.zeros(coeffs.shape[:-1])
    dx = dy = None
    if width > 1:
        dx = coeffs[..., :, 1:, :] - coeffs[..., :, :-1, :]
        gsq[..., :, :-1] += weighted_norm_sq(dx)
    if height > 1:
        dy = coeffs[..., 1:, :, :] - coeffs[..., :-1, :, :]
        gsq[..., :-1, :] += weighted_norm_sq(dy)
    energy = _power(gsq, p).sum(axis=(-2, -1))
    if not need_grad:
        return energy
    h = np.broadcast_to(p * _power_grad_factor(gsq, p), gsq.shape)
    grad = np.zeros_like(coeffs)
    if dx is not None:
        dx *= h[..., :, :-1, None]
        grad[..., :, 1:, :] += dx
        grad[..., :, :-1, :] -= dx
    if dy is not None:
        dy *= h[..., :-1, :, None]
        grad[..., 1:, :, :] += dy
        grad[..., :-1, :, :] -= dy
    grad *= _W3
    return energy, grad


# ---- the objectives ----

_OBJECTIVES = ("f-log-euclidean", "f-euclidean", "fc")


class Objective:
    """Value, gradient and feasible-set projection of one objective.

    objective is "f-log-euclidean" (fidelity + alpha * Phi over per-pixel
    matrix-log coefficients, where the feasible set is the log-norm ball),
    "f-euclidean" (the same functional over raw coefficients) or "fc"
    (Frobenius fidelity + beta * Theta over raw coefficients).  The kind
    alone decides the coordinates: _coords maps a TensorField to them, for
    the observed data, start's init and functional alike.  value and
    value_grad take coordinate arrays, project decides and maps onto the
    feasible set, and finish maps coordinates back to a field.
    """

    def __init__(self, objective: str, data: TensorField, mask, params: FunctionalParams):
        if objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}, got {objective!r}")
        self.kind = objective
        self.params = params
        self.log_mode = objective == "f-log-euclidean"
        self.target = self._coords(data)
        height, width = data.height, data.width
        self.mask_values = _mask_values(mask, (height, width))
        self.reg_weight = params.beta if objective == "fc" else params.alpha
        if objective != "fc" and params.alpha > 0.0:
            self.offsets = phi_kernel_offsets(height, width, params)
        else:
            self.offsets = []

    def _coords(self, w: TensorField) -> np.ndarray:
        """Per-pixel coordinates of a field: matrix logs in log mode, else raw
        coefficients; the metric is the weighted 2-norm in them."""
        return log_coeffs(w.coeffs) if self.log_mode else w.coeffs

    def start(self, init: TensorField | None = None) -> np.ndarray:
        """Feasible start coordinates, project(_coords(init)).  None starts at
        the floor-seeded data: the target, with every masked-out pixel at
        project_full_coeffs(0), so the data is not decomposed again."""
        if init is None:
            x = self.target.copy()
            if not self.mask_values.all():
                floor = project_full_coeffs(np.zeros(6), self.params.epsilon, self.params.z)
                x[~self.mask_values] = log_coeffs(floor) if self.log_mode else floor
        else:
            x = self._coords(init)
        return self.project(x)

    def _regularizer(self, x: np.ndarray, need_grad: bool = False):
        if self.kind == "fc":
            return theta_energy(x, self.params.p, need_grad=need_grad)
        return pairwise_energy(x, self.offsets, self.params.p, need_grad=need_grad)

    def value(self, x: np.ndarray) -> np.ndarray:
        v = fidelity_energy(x, self.target, self.mask_values, self.params.p)
        if self.reg_weight > 0.0:
            v = v + self.reg_weight * self._regularizer(x)
        return v

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        v, g = fidelity_energy(x, self.target, self.mask_values, self.params.p,
                               need_grad=True)
        if self.reg_weight > 0.0:
            vr, gr = self._regularizer(x, need_grad=True)
            v = v + self.reg_weight * vr
            g = g + self.reg_weight * gr
        return float(v), g

    def project(self, x: np.ndarray) -> np.ndarray:
        if self.log_mode:
            return project_log_coeffs(x, self.params.epsilon, self.params.z)
        return project_full_coeffs(x, self.params.epsilon, self.params.z)

    def finish(self, x: np.ndarray) -> TensorField:
        """The field at coordinates x; in log mode Exp(project(x)).  That
        projection keeps Exp finite for any finite x, and it shapes the
        output bytes: project is not bit-idempotent on pixels it rescaled
        onto the z sphere."""
        if self.log_mode:
            x = exp_coeffs(self.project(x))
        return TensorField(x, self.params.z)


def functional(w: TensorField, data: TensorField, mask, params: FunctionalParams,
               objective: str = "f-log-euclidean") -> float:
    """Value of an objective at the field w, for data observed on mask: F =
    fidelity + alpha * Phi ("f-log-euclidean", "f-euclidean") or F_C =
    Frobenius fidelity + beta * Theta ("fc").  It is the bits of
    Objective(objective, data, mask, params).value at w's coordinates."""
    if (w.height, w.width) != (data.height, data.width):
        raise ValueError(f"field {w.height}x{w.width} does not match data "
                         f"{data.height}x{data.width}")
    bundle = Objective(objective, data, mask, params)
    return float(bundle.value(bundle._coords(w)))
