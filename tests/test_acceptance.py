"""End-to-end acceptance checks, one per shipped guarantee.

Each test exercises a released behavior at full strength: the SPD geometry
property suite, gradient correctness, minimizer uniqueness, data stability,
a closed-form oracle, denoising and inpainting quality on phantoms, the
noise-to-weight coupling, and byte determinism of the command line.  A
conftest hook prints one PASS/FAIL line per check at the end of the run.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np

from dtfield.analysis import (
    convergence_study,
    log_distance_map,
    snr,
)
from dtfield.cli import main
from dtfield.field import (
    FunctionalParams,
    Mask,
    Objective,
    TensorField,
    pairwise_energy,
    phi_kernel_offsets,
    theta_energy,
)
from dtfield.fileio import write_mask
from dtfield.optim import SolverConfig, solve
from dtfield.spd import (
    EPSILON_DEFAULT,
    coeffs_to_matrices,
    eigh_coeffs,
    exp_coeffs,
    log_coeffs,
    matrices_to_coeffs,
    project_full_coeffs,
    project_log_coeffs,
    weighted_norm_sq,
)
from dtfield.synth import NoiseSpec, corrupt_field, make_staircase_phantom

N_CASES = 10_000


def random_field(height: int, width: int, seed: int, scale: float = 0.8) -> TensorField:
    rng = np.random.default_rng(seed)
    return TensorField(exp_coeffs(rng.normal(scale=scale, size=(height, width, 6))))


def unit_log_batch(rng, count: int, norms: np.ndarray) -> np.ndarray:
    """Random log-coefficient vectors rescaled to the requested Frobenius norms."""
    logs = rng.standard_normal((count, 6))
    return logs * (norms / np.sqrt(weighted_norm_sq(logs)))[:, None]


def batch_distance(a_coeffs: np.ndarray, b_coeffs: np.ndarray) -> np.ndarray:
    """Log-metric distances for batches of tensor coefficients."""
    return np.sqrt(weighted_norm_sq(log_coeffs(a_coeffs) - log_coeffs(b_coeffs)))


def lapack_log(coeffs: np.ndarray) -> np.ndarray:
    """(n, 3, 3) matrix logs through numpy.linalg.eigh, independent of dtfield's Jacobi."""
    vals, vecs = np.linalg.eigh(coeffs_to_matrices(coeffs))
    return np.einsum("nik,nk,njk->nij", vecs, np.log(vals), vecs)


def test_01_spd_geometry_property_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)

    # metric axioms on random triples, through the batched log kernel; the
    # values are tied to numpy.linalg.eigh logs on a 500-case subsample
    a_c = exp_coeffs(rng.standard_normal((N_CASES, 6)) * 0.9)
    b_c = exp_coeffs(rng.standard_normal((N_CASES, 6)) * 0.9)
    c_c = exp_coeffs(rng.standard_normal((N_CASES, 6)) * 0.9)
    dab = batch_distance(a_c, b_c)
    assert np.array_equal(dab, batch_distance(b_c, a_c))
    assert dab.min() > 0.0
    assert batch_distance(a_c, a_c).max() <= 1e-10
    assert (batch_distance(a_c, c_c) <= dab + batch_distance(b_c, c_c) + 1e-9).all()
    a_m = coeffs_to_matrices(a_c, 3)
    b_m = coeffs_to_matrices(b_c, 3)
    sub = slice(0, N_CASES, 20)
    reference = np.sqrt(((lapack_log(a_c[sub]) - lapack_log(b_c[sub])) ** 2).sum(axis=(1, 2)))
    assert (np.abs(reference - dab[sub]) <= 1e-12 * np.maximum(1.0, dab[sub])).all()

    # the log map is bi-Lipschitz on the radius-3 log-norm ball:
    # (1/e^z) ||A-B||_F <= d(A,B) <= e^z ||A-B||_F, squared with e^(2z)
    z = 3.0
    ez = math.exp(z)
    pa = exp_coeffs(unit_log_batch(rng, N_CASES, rng.uniform(0.05, 1.0, N_CASES) * z))
    pb = exp_coeffs(unit_log_batch(rng, N_CASES, rng.uniform(0.05, 1.0, N_CASES) * z))
    d = batch_distance(pa, pb)
    frob = np.sqrt(weighted_norm_sq(pa - pb))
    assert (frob / ez <= d + 1e-9).all()
    assert (d <= ez * frob + 1e-9).all()
    assert (frob ** 2 / ez ** 2 <= d ** 2 + 1e-9).all()
    assert (d ** 2 <= ez ** 2 * frob ** 2 + 1e-9).all()

    # metric invariance under scaling, inversion, and rotation
    scales = rng.uniform(0.2, 5.0, (N_CASES, 1))
    assert np.abs(batch_distance(a_c * scales, b_c * scales) - dab).max() <= 1e-9
    inv_a = matrices_to_coeffs(np.linalg.inv(a_m))
    inv_b = matrices_to_coeffs(np.linalg.inv(b_m))
    assert np.abs(batch_distance(inv_a, inv_b) - dab).max() <= 1e-9
    qmats, _ = np.linalg.qr(rng.standard_normal((N_CASES, 3, 3)))
    rot_a = matrices_to_coeffs(np.einsum("nik,nkl,njl->nij", qmats, a_m, qmats))
    rot_b = matrices_to_coeffs(np.einsum("nik,nkl,njl->nij", qmats, b_m, qmats))
    assert np.abs(batch_distance(rot_a, rot_b) - dab).max() <= 1e-9

    # the double-integral regularizer inherits all three invariances
    # (25 fields x 400 pixels = 10^4 random tensors per claim)
    exponents = (1.1, 1.5, 2.0)
    for k in range(25):
        w = TensorField(exp_coeffs(rng.standard_normal((20, 20, 6)) * 0.7))
        p = exponents[k % 3]
        offsets = phi_kernel_offsets(20, 20, FunctionalParams(p=p, s=0.5, l=1, n_rho=2))
        base = pairwise_energy(log_coeffs(w.coeffs), offsets, p)
        tol = 1e-9 * max(1.0, base)
        scaled = TensorField(w.coeffs * float(rng.uniform(0.2, 5.0)))
        assert abs(pairwise_energy(log_coeffs(scaled.coeffs), offsets, p) - base) <= tol
        inverted = TensorField(matrices_to_coeffs(
            np.linalg.inv(coeffs_to_matrices(w.coeffs, 3))))
        assert abs(pairwise_energy(log_coeffs(inverted.coeffs), offsets, p) - base) <= tol
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = TensorField(matrices_to_coeffs(
            np.einsum("ik,rckl,jl->rcij", u, coeffs_to_matrices(w.coeffs, 3), u)))
        assert abs(pairwise_energy(log_coeffs(rotated.coeffs), offsets, p) - base) <= tol

    # the Sobolev comparison term is translation and reflection invariant
    # (100 fields x 100 pixels = 10^4 random tensors per claim)
    for k in range(100):
        coeffs = rng.standard_normal((10, 10, 6))
        shift = rng.standard_normal(6)
        p = (1.1, 2.0)[k % 2]
        base = theta_energy(coeffs, p)
        tol = 1e-9 * max(1.0, base)
        assert abs(theta_energy(coeffs + shift, p) - base) <= tol
        assert abs(theta_energy(-coeffs, p) - base) <= tol

    # Exp/Log inverse pairs (one sample serves both directions: Log(Exp(S)) = S
    # and Exp(Log(A)) = A) up to log-norm 10: beyond it float64 coefficients
    # stop determining the smallest eigenvalues (ROADMAP item 1)
    logs = unit_log_batch(rng, N_CASES, rng.uniform(1e-3, 36.0, N_CASES))
    logs = logs[np.sqrt(weighted_norm_sq(logs)) <= 10.0]
    exps = exp_coeffs(logs)
    back = log_coeffs(exps)
    tol = 1e-9 * np.maximum(1.0, np.abs(logs).max(axis=1))
    assert (np.abs(back - logs).max(axis=1) <= tol).all()
    tol = 1e-9 * np.maximum(1.0, np.abs(exps).max(axis=1))
    assert (np.abs(exp_coeffs(back) - exps).max(axis=1) <= tol).all()
    # and at moderate eigenvalue spread on draws of their own
    moderate = unit_log_batch(rng, N_CASES, rng.uniform(1e-3, 3.0, N_CASES))
    back = log_coeffs(exp_coeffs(moderate))
    tol = 1e-9 * np.maximum(1.0, np.abs(moderate).max(axis=1))
    assert (np.abs(back - moderate).max(axis=1) <= tol).all()

    # the projections are idempotent, and the full projection lands in the ball
    raw = rng.standard_normal((N_CASES, 6)) * 2.0
    full1 = project_full_coeffs(raw, EPSILON_DEFAULT, 2.0)
    full2 = project_full_coeffs(full1, EPSILON_DEFAULT, 2.0)
    assert np.abs(full2 - full1).max() <= 1e-9 * max(1.0, np.abs(full1).max())
    ball_logs = unit_log_batch(rng, N_CASES, rng.uniform(0.1, 6.0, N_CASES))
    ball1 = project_log_coeffs(ball_logs, EPSILON_DEFAULT, 2.0)
    ball2 = project_log_coeffs(ball1, EPSILON_DEFAULT, 2.0)
    assert np.abs(ball2 - ball1).max() <= 1e-9 * max(1.0, np.abs(ball1).max())
    assert np.sqrt(weighted_norm_sq(log_coeffs(full1))).max() <= 2.0 + 1e-9

    # bound corollary: every tensor projected to the radius-2 ball keeps
    # its eigenvalues inside [e^-2, e^2]
    vals, _ = eigh_coeffs(full1)
    assert vals.min() >= math.exp(-2.0) - 1e-9
    assert vals.max() <= math.exp(2.0) + 1e-9

    elapsed = time.perf_counter() - started
    print(f"property suite: {elapsed:.1f}s")
    assert elapsed < 60.0


def test_02_analytic_gradient_matches_finite_differences(fd_gradient):
    rng = np.random.default_rng(2)
    for case in range(20):
        p, tol = (2.0, 1e-5) if case < 10 else (1.1, 1e-4)
        logs = rng.standard_normal((6, 6, 6)) * 0.6
        data = TensorField(exp_coeffs(rng.standard_normal((6, 6, 6)) * 0.6))
        mask = rng.random((6, 6)) < 0.85
        mask[0, 0] = True
        params = FunctionalParams(p=p, s=0.5, alpha=0.4, l=1, n_rho=2)
        objective = Objective("f-log-euclidean", data, mask, params)
        g = objective.value_grad(logs)[1]
        fd = fd_gradient(objective.value, logs)
        rel = float(np.sqrt(((g - fd) ** 2).sum()) / np.sqrt((g ** 2).sum()))
        assert rel < tol

    # central differences carry a quadratic truncation error: halving the
    # step shrinks the disagreement by about 4x
    logs = rng.standard_normal((6, 6, 6)) * 0.6
    data = TensorField(exp_coeffs(rng.standard_normal((6, 6, 6)) * 0.6))
    params = FunctionalParams(p=1.1, s=0.5, alpha=0.4, l=1, n_rho=2)
    objective = Objective("f-log-euclidean", data, Mask.full(6, 6), params)
    g = objective.value_grad(logs)[1]
    errors = []
    for step in (1e-3, 5e-4):
        fd = fd_gradient(objective.value, logs, step=step)
        errors.append(float(np.sqrt(((g - fd) ** 2).sum())))
    ratio = errors[0] / errors[1]
    assert 3.0 < ratio < 5.0


def constant_random_field(height: int, width: int, seed: int,
                          scale: float = 0.8) -> TensorField:
    """One random tensor tiled over the grid: a smooth random starting point."""
    rng = np.random.default_rng(seed)
    logs = np.tile(rng.normal(scale=scale, size=6), (height, width, 1))
    return TensorField(exp_coeffs(logs))


def test_03_random_initializations_reach_one_minimizer():
    params = FunctionalParams(p=1.1, alpha=0.3, s=0.5, l=1, n_rho=2)
    config = SolverConfig(max_iters=150000, rel_tol=1e-12, init_step=1e-3)
    for instance in range(5):
        data = random_field(8, 8, seed=11 + instance)
        init_a = constant_random_field(8, 8, seed=211 + instance)
        init_b = constant_random_field(8, 8, seed=311 + instance)
        separation = log_distance_map(init_a, init_b).sum()
        out_a, report_a = solve(data, Mask.full(8, 8), params, config=config, init=init_a)
        out_b, report_b = solve(data, Mask.full(8, 8), params, config=config, init=init_b)
        assert report_a.converged and report_b.converged
        gap = log_distance_map(out_a, out_b).sum()
        print(f"instance {instance}: inits {separation:.0f} apart -> solutions {gap:.2e} apart")
        assert gap <= 1e-4


def test_04_quadratic_solutions_are_nonexpansive_in_data():
    params = FunctionalParams(p=2.0, alpha=0.4, s=0.5, l=1, n_rho=2)
    config = SolverConfig(max_iters=3000, rel_tol=1e-13)
    for pair in range(10):
        data_a = random_field(4, 4, seed=400 + pair, scale=1.0)
        data_b = random_field(4, 4, seed=500 + pair, scale=1.0)
        out_a, _ = solve(data_a, Mask.full(4, 4), params, config=config)
        out_b, _ = solve(data_b, Mask.full(4, 4), params, config=config)
        la, lb = log_coeffs(data_a.coeffs), log_coeffs(data_b.coeffs)
        oa, ob = log_coeffs(out_a.coeffs), log_coeffs(out_b.coeffs)
        dist_data = math.sqrt(weighted_norm_sq(la - lb).sum())
        dist_out = math.sqrt(weighted_norm_sq(oa - ob).sum())
        assert dist_out <= dist_data + 1e-6


def test_05_two_pixel_closed_form_is_reproduced():
    rng = np.random.default_rng(55)
    alpha = 0.7
    d0, d1 = rng.normal(scale=0.5, size=(2, 6))
    data = TensorField(exp_coeffs(np.stack([d0, d1])[None, :, :]))
    params = FunctionalParams(p=2.0, s=0.5, alpha=alpha, l=0)
    # stationarity of ||L0-D0||^2 + ||L1-D1||^2 + 2a||L0-L1||^2 per pixel:
    # (1+2a) L0 - 2a L1 = D0 and symmetrically for L1
    system = np.array([[1.0 + 2.0 * alpha, -2.0 * alpha],
                       [-2.0 * alpha, 1.0 + 2.0 * alpha]])
    exact = np.linalg.solve(system, np.stack([d0, d1]))
    out, report = solve(data, Mask.full(1, 2), params,
                        config=SolverConfig(max_iters=20000, rel_tol=1e-14))
    got = log_coeffs(out.coeffs)[0]
    gap = float(np.sqrt(weighted_norm_sq(got - exact)).sum())
    print(f"closed-form gap {gap:.2e} after {report.iterations} iterations")
    assert gap <= 1e-6


def test_06_denoising_beats_noise_and_sobolev_baselines():
    started = time.perf_counter()
    phantom = make_staircase_phantom(10)
    mask = Mask.full(10, 10)
    config = SolverConfig(max_iters=80)
    metric_params = FunctionalParams(p=1.1, alpha=2.75, s=0.5, l=1, n_rho=3)
    rows = []
    for seed in range(5):
        noisy = corrupt_field(phantom, NoiseSpec(1600.0, seed))
        out, _ = solve(noisy, mask, metric_params, config=config)
        sobolev = []
        for beta in (2.0, 3.0):
            comparison = FunctionalParams(p=1.1, beta=beta)
            rec, _ = solve(noisy, mask, comparison, objective="fc", config=config)
            sobolev.append(snr(phantom, rec))
        rows.append((snr(phantom, noisy), snr(phantom, out), *sobolev))
    noisy_med, metric_med, sob2_med, sob3_med = (
        float(np.median([r[i] for r in rows])) for i in range(4))
    elapsed = time.perf_counter() - started
    print(f"median SNR noisy {noisy_med:.2f} denoised {metric_med:.2f} "
          f"sobolev {sob2_med:.2f}/{sob3_med:.2f} ({elapsed:.1f}s)")
    assert metric_med >= 1.5 * noisy_med
    assert metric_med > sob2_med
    assert metric_med > sob3_med
    assert elapsed < 300.0


def test_07_inpainting_beats_the_blank_seed():
    phantom = make_staircase_phantom(10)
    present = np.ones((10, 10), dtype=bool)
    present[3:7, 3:7] = False
    params = FunctionalParams(p=1.1, s=0.5, alpha=0.5, n_rho=2)
    config = SolverConfig(max_iters=4000)
    for seed in range(5):
        noisy = corrupt_field(phantom, NoiseSpec(1600.0, seed))
        seeded = noisy.coeffs.copy()  # the solve's start: the data, the hole at the floor seed
        seeded[~present] = project_full_coeffs(np.zeros(6), params.epsilon, params.z)
        seed_med = float(np.median(log_distance_map(seeded, phantom)[~present]))
        rec, report = solve(noisy, Mask(present), params, config=config)
        rec_med = float(np.median(log_distance_map(rec, phantom)[~present]))
        print(f"seed {seed}: hole distance {seed_med:.3f} -> {rec_med:.3f} "
              f"in {report.iterations} iterations")
        assert report.converged  # within the budget: the tolerance decides the output
        assert rec_med < seed_med


def test_08_error_shrinks_with_noise_under_default_weights():
    phantom = make_staircase_phantom(8)
    params = FunctionalParams(p=1.1, s=0.5, n_rho=3)
    config = SolverConfig(max_iters=80)
    levels = [10.0, 5.0, 2.0]
    per_level = {delta: [] for delta in levels}
    for seed in range(3):
        for row in convergence_study(phantom, levels, params=params,
                                     config=config, seed=seed):
            per_level[row.delta].append(row.distance)
    medians = [float(np.median(per_level[delta])) for delta in levels]
    print("median distances", [f"{m:.3f}" for m in medians])
    assert all(later <= earlier for earlier, later in zip(medians, medians[1:]))


def _run(capsys, *argv: str) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def test_09_cli_reruns_are_byte_identical(tmp_path, capsys):
    # generate: rerun and thread-count variant
    for name, extra in (("a", ()), ("b", ()), ("c", ("--threads", "4"))):
        _run(capsys, "generate", "--phantom", "staircase", "--n", "6",
             "--sigma2", "1600", "--seed", "7", "--out", str(tmp_path / name),
             "--write-dwis", *extra)
    for filename in ("original.dtf", "noisy.dtf", "dwis.dwi", "provenance.json"):
        reference = (tmp_path / "a" / filename).read_bytes()
        assert (tmp_path / "b" / filename).read_bytes() == reference
    # provenance faithfully records the differing --threads flag, so the
    # thread-count variant is compared on the numerical outputs only
    for filename in ("original.dtf", "noisy.dtf", "dwis.dwi"):
        reference = (tmp_path / "a" / filename).read_bytes()
        assert (tmp_path / "c" / filename).read_bytes() == reference

    noisy = str(tmp_path / "a" / "noisy.dtf")
    original = str(tmp_path / "a" / "original.dtf")

    # denoise: output field and report
    for name in ("rec1.dtf", "rec2.dtf"):
        _run(capsys, "denoise", noisy, "--alpha", "2.75", "--nrho", "3",
             "--iters", "12", "--out", str(tmp_path / name))
    assert (tmp_path / "rec1.dtf").read_bytes() == (tmp_path / "rec2.dtf").read_bytes()
    assert ((tmp_path / "rec1.dtf.report.json").read_bytes()
            == (tmp_path / "rec2.dtf.report.json").read_bytes())
    report = json.loads((tmp_path / "rec1.dtf.report.json").read_text())
    assert report["seconds"] == 0.0

    # inpaint: masked solve
    present = np.ones((6, 6), dtype=bool)
    present[2:4, 2:4] = False
    write_mask(Mask(present), tmp_path / "hole.msk")
    for name in ("inp1.dtf", "inp2.dtf"):
        _run(capsys, "inpaint", noisy, "--mask", str(tmp_path / "hole.msk"),
             "--alpha", "0.5", "--nrho", "2", "--iters", "10",
             "--out", str(tmp_path / name))
    assert (tmp_path / "inp1.dtf").read_bytes() == (tmp_path / "inp2.dtf").read_bytes()

    # evaluate: printed summary and profile file
    outputs = []
    for name in ("prof1.csv", "prof2.csv"):
        outputs.append(_run(capsys, "evaluate", original, str(tmp_path / "rec1.dtf"),
                            "--profile-out", str(tmp_path / name)))
    assert outputs[0] == outputs[1]
    assert (tmp_path / "prof1.csv").read_bytes() == (tmp_path / "prof2.csv").read_bytes()

    # render: glyph image
    for name in ("img1.svg", "img2.svg"):
        _run(capsys, "render", str(tmp_path / "rec1.dtf"),
             "--out", str(tmp_path / name))
    assert (tmp_path / "img1.svg").read_bytes() == (tmp_path / "img2.svg").read_bytes()
