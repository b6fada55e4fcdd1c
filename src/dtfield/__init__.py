"""Denoising and inpainting of 3x3 diffusion-tensor fields.

A tensor field assigns a symmetric positive definite 3x3 matrix to every
pixel of a 2-D grid.  This package reconstructs such fields from noisy or
partially observed data by minimizing a fidelity term plus a double-integral
regularizer that penalizes pairwise distances between pixels, measured
either in the log-Euclidean metric or in flat coordinates.

The top level re-exports the end-to-end workflow: build a phantom, corrupt
it through the diffusion-weighted measurement model, solve, and evaluate.
The submodules hold the full API:

  spd       SPD matrix kernels on (..., 6) coefficient arrays (exp/log,
            projections, eigendecomposition)
  field     tensor fields, masks, objective functionals and their pieces
  optim     projected gradient descent with backtracking line search
  synth     phantoms, the measurement forward model, Rician noise, refitting
  analysis  SNR, distance maps, eigenvalue profiles, SVG glyph rendering,
            noise-level convergence studies
  fileio    text interchange formats (DTF1 / MSK1 / DWI1)
  cli       the `dtfield` command-line interface
"""
from __future__ import annotations

from .analysis import (
    column_eigen_profile,
    convergence_study,
    log_distance_map,
    render_svg,
    snr,
    study_csv,
)
from .field import FunctionalParams, Mask, TensorField
from .fileio import (
    FormatError,
    read_dwis,
    read_field,
    read_mask,
    write_dwis,
    write_field,
    write_mask,
)
from .optim import LineSearchError, SolveReport, SolverConfig, solve
from .spd import EPSILON_DEFAULT, LOG_BOUND_DEFAULT, NotPositiveDefiniteError
from .synth import (
    DwiSet,
    NoiseSpec,
    apply_noise,
    corrupt_field,
    fit_field,
    make_main_direction_phantom,
    make_staircase_phantom,
    simulate_dwis,
)

__version__ = "0.1.0"

__all__ = [
    "EPSILON_DEFAULT",
    "LOG_BOUND_DEFAULT",
    "DwiSet",
    "FormatError",
    "FunctionalParams",
    "LineSearchError",
    "Mask",
    "NoiseSpec",
    "NotPositiveDefiniteError",
    "SolveReport",
    "SolverConfig",
    "TensorField",
    "apply_noise",
    "column_eigen_profile",
    "convergence_study",
    "corrupt_field",
    "fit_field",
    "log_distance_map",
    "make_main_direction_phantom",
    "make_staircase_phantom",
    "read_dwis",
    "read_field",
    "read_mask",
    "render_svg",
    "simulate_dwis",
    "snr",
    "solve",
    "study_csv",
    "write_dwis",
    "write_field",
    "write_mask",
]
