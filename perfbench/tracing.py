"""Span tracing around the calls into dtfield's layers, and kernel micro-timings.

The tracer replaces each traced public function in every dtfield module
namespace that binds it (so `dtfield.optim.pairwise_energy` and
`dtfield.field.pairwise_energy` are both covered, as is
`dtfield.spd.jacobi_eigh`, through which the spd kernels reach it).  Each
call records a span (name, start, end, parent span, work count) in memory.
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""
from __future__ import annotations

import array
import json
import os
import statistics
import time

import numpy as np

# (module, attribute) -> span name; the attribute is looked up in the module
# that defines it and replaced wherever any dtfield module binds that object
TRACED = {
    ("optim", "solve"): "optim.solve",
    ("field", "fidelity_energy"): "field.fidelity_energy",
    ("field", "pairwise_energy"): "field.pairwise_energy",
    ("field", "theta_energy"): "field.theta_energy",
    ("spd", "jacobi_eigh"): "spd.jacobi_eigh",
    ("spd", "project_full_coeffs"): "spd.project_full_coeffs",
    ("spd", "project_log_coeffs"): "spd.project_log_coeffs",
    ("spd", "log_coeffs"): "spd.log_coeffs",
    ("spd", "exp_coeffs"): "spd.exp_coeffs",
    ("synth", "apply_noise"): "synth.apply_noise",
    ("synth", "fit_field"): "synth.fit_field",
    ("synth", "simulate_dwis"): "synth.simulate_dwis",
    ("fileio", "read_field"): "fileio.read_field",
    ("fileio", "write_field"): "fileio.write_field",
    ("analysis", "snr"): "analysis.snr",
    ("analysis", "column_eigen_profile"): "analysis.column_eigen_profile",
    ("cli", "cmd_generate"): "cli.generate",
    ("cli", "cmd_solve"): "cli.denoise",
    ("cli", "cmd_evaluate"): "cli.evaluate",
}
_MODULES = ("spd", "field", "optim", "synth", "fileio", "analysis", "cli")

SELF_TIMES = list(TRACED.values()) + ["field.TensorField"]


def _work(name: str, args, result) -> int:
    """Work count of one call: matrices decomposed, solver iterations, bytes."""
    if name == "spd.jacobi_eigh":
        return int(np.prod(np.shape(args[0])[:-2], dtype=np.int64))
    if name == "optim.solve":
        return result[1].iterations
    if name == "fileio.write_field":
        return os.path.getsize(args[1])
    return 0


class Tracer:
    """Installs span-recording wrappers into dtfield and restores them.

    Spans are kept in typed arrays rather than a list of tuples: the cyclic
    garbage collector would otherwise walk the growing span list on every
    full collection, a cost the traced run would wrongly charge to dtfield.
    """

    def __init__(self, dtfield_pkg):
        self.pkg = dtfield_pkg
        self.names: list[str] = []
        self.name_of = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.work = array.array("q")
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_of, starts, ends, parents, works = (self.name_of, self.start, self.end,
                                                 self.parent, self.work)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_of.append(name_id)
            parents.append(stack[-1] if stack else -1)
            works.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            works[idx] = _work(name, args, result)
            return result

        return traced

    def install(self):
        modules = [self.pkg] + [getattr(self.pkg, m) for m in _MODULES]
        for (mod, attr), name in TRACED.items():
            original = getattr(getattr(self.pkg, mod), attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapper)
        cls = self.pkg.field.TensorField
        original = cls.__post_init__
        self._saved.append((cls, "__post_init__", original))
        cls.__post_init__ = self._wrap("field.TensorField", original)

    def uninstall(self):
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    def call(self, name: str, fn):
        """Run fn() inside a span of its own."""
        return self._wrap(name, fn)()

    def mark(self) -> int:
        return len(self.start)

    def summary(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Calls, total work and self seconds per span name over spans lo..hi-1."""
        duration = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            if self.parent[i] >= lo:
                child[self.parent[i] - lo] += duration[i - lo]
        out: dict[str, dict[str, float]] = {}
        for i in range(lo, hi):
            row = out.setdefault(self.names[self.name_of[i]],
                                 {"calls": 0, "work": 0, "self_s": 0.0})
            row["calls"] += 1
            row["work"] += self.work[i]
            row["self_s"] += duration[i - lo] - child[i - lo]
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="ascii") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({"id": i, "name": self.names[self.name_of[i]],
                                     "start": self.start[i], "end": self.end[i],
                                     "parent": self.parent[i], "work": self.work[i]}) + "\n")


def layer_metrics(setup: dict, ops: dict, rounds: int, speed: float) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one round of the workload.

    Self times are multiplied by `speed`, the ratio of rescaled to wall time.
    """
    def stat(name, key):
        return setup.get(name, {}).get(key, 0) + ops.get(name, {}).get(key, 0) / rounds

    out = {f"{name}.self_s": speed * stat(name, "self_s") for name in SELF_TIMES}
    iterations = stat("optim.solve", "work")
    evaluations = stat("field.fidelity_energy", "calls")
    out["optim.iterations"] = iterations
    out["optim.evaluations"] = evaluations
    out["optim.evals_per_iter"] = evaluations / iterations if iterations else 0.0
    out["field.pairwise_energy.calls"] = stat("field.pairwise_energy", "calls")
    out["spd.jacobi_eigh.calls"] = stat("spd.jacobi_eigh", "calls")
    out["spd.jacobi_eigh.matrices"] = stat("spd.jacobi_eigh", "work")
    out["fileio.bytes_written"] = stat("fileio.write_field", "work")
    return out


# ---- kernel micro-timings on fixed inputs ----

def _median_us(fn, min_reps: int, budget_s: float) -> float:
    fn()  # warm up
    times = []
    stop = time.perf_counter() + budget_s
    while len(times) < min_reps or time.perf_counter() < stop:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def _spd_coeffs(rng, batch: int) -> np.ndarray:
    """Random SPD coefficients with eigenvalues spread like the phantoms'."""
    q, _ = np.linalg.qr(rng.standard_normal((batch, 3, 3)))
    vals = np.exp(rng.uniform(np.log(2e-4), np.log(4e-3), (batch, 3)))
    mats = np.einsum("bik,bk,bjk->bij", q, vals, q)
    return np.stack([mats[:, 0, 0], mats[:, 1, 1], mats[:, 2, 2],
                     mats[:, 0, 1], mats[:, 0, 2], mats[:, 1, 2]], axis=-1)


# computed traffic of one pixel pair: the two coefficient vectors read (2 x 48
# bytes); value+grad also reads and writes both gradient slices (4 x 48 bytes)
_PAIR_BYTES_V = 2 * 48
_PAIR_BYTES_VG = 6 * 48


def kernel_timings(pkg) -> dict[str, float]:
    """Median call times of the public kernels, in microseconds."""
    spd, field = pkg.spd, pkg.field
    rng = np.random.default_rng(20040158)
    out = {}
    for batch in (1, 100, 4096):
        mats = spd.coeffs_to_matrices(_spd_coeffs(rng, batch), 3)
        out[f"spd.jacobi_eigh.b{batch}_us"] = _median_us(
            lambda: spd.jacobi_eigh(mats), 5, 0.3)
    coeffs = _spd_coeffs(rng, 4096)
    logs = spd.log_coeffs(coeffs)
    over = logs * (40.0 / np.sqrt(spd.weighted_norm_sq(logs)))[:, None]
    z, eps = 36.0, spd.EPSILON_DEFAULT
    out["spd.log_coeffs.b4096_us"] = _median_us(lambda: spd.log_coeffs(coeffs), 5, 0.3)
    out["spd.exp_coeffs.b4096_us"] = _median_us(lambda: spd.exp_coeffs(logs), 5, 0.3)
    out["spd.project_full_coeffs.b4096_us"] = _median_us(
        lambda: spd.project_full_coeffs(coeffs, eps, z), 5, 0.3)
    # every element outside the ball, so the projection does its full work
    out["spd.project_log_coeffs.b4096_us"] = _median_us(
        lambda: spd.project_log_coeffs(over, eps, z), 5, 0.3)
    params = field.FunctionalParams(p=1.1, s=0.5, alpha=1.0, n_rho=3)
    for n in (10, 64):
        rep = spd.log_coeffs(_spd_coeffs(rng, n * n)).reshape(n, n, 6)
        offsets = field.phi_kernel_offsets(n, n, params)
        pairs = sum((n - di) * (n - abs(dj)) for di, dj, _ in offsets)
        out[f"field.pairwise_energy.v_{n}_us"] = _median_us(
            lambda: field.pairwise_energy(rep, offsets, 1.1), 10, 0.3)
        out[f"field.pairwise_energy.vg_{n}_us"] = _median_us(
            lambda: field.pairwise_energy(rep, offsets, 1.1, need_grad=True), 10, 0.3)
        out[f"field.pairwise_energy.pairs_{n}"] = pairs
        out[f"field.pairwise_energy.v_{n}_computed_bytes"] = pairs * _PAIR_BYTES_V
        out[f"field.pairwise_energy.vg_{n}_computed_bytes"] = pairs * _PAIR_BYTES_VG
    return out


def overhead_pct(untraced: list[float], traced: list[float]) -> float:
    return 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from the suffix of its name."""
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("op_s_untraced", "s"),
                         ("op_s_traced", "s"), ("_pct", "%"), ("_bytes", "B"),
                         ("bytes_written", "B"), ("evals_per_iter", "1")):
        if name.endswith(suffix):
            return unit
    return "count"
