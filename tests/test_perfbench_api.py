"""The benchmark's use of the library API and the CLI, checked without a timed run.

perfbench/tracing.py wraps named dtfield functions and times the kernels
directly, and the cli-64 workload drives dtfield.cli.main with fixed flags;
an API or CLI change that breaks either would otherwise only show when the
benchmark runs.  These tests only read perfbench/.
"""
from __future__ import annotations

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import dtfield
import dtfield.cli  # noqa: F401  (traced, and not imported by the package)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Importer of perfbench modules."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


@pytest.fixture
def tracing(perfbench):
    return perfbench("tracing")


def test_traced_names_resolve_and_tracer_restores_them(tracing):
    originals = {key: getattr(getattr(dtfield, key[0]), key[1]) for key in tracing.TRACED}
    assert all(callable(fn) for fn in originals.values())
    post_init = dtfield.field.TensorField.__post_init__
    tracer = tracing.Tracer(dtfield)
    tracer.install()
    try:
        assert dtfield.spd.exp_coeffs is not originals[("spd", "exp_coeffs")]
        dtfield.spd.exp_coeffs(np.zeros((2, 6)))
        spans = tracer.summary(0, tracer.mark())
    finally:
        tracer.uninstall()
    assert spans["spd.exp_coeffs"]["calls"] == 1
    assert spans["spd.jacobi_eigh"]["work"] == 2
    for (mod, attr), fn in originals.items():
        assert getattr(getattr(dtfield, mod), attr) is fn
    assert dtfield.field.TensorField.__post_init__ is post_init


def test_kernel_timings_run(tracing):
    timings = tracing.kernel_timings(dtfield)
    assert len(timings) == 17
    assert all(math.isfinite(value) and value > 0 for value in timings.values())


def test_cli64_op_runs_and_passes_its_checks(perfbench, tmp_path):
    # one generate -> denoise -> evaluate op at 64x64, noise seed 0
    run = perfbench("run")
    workload = run.Cli64(dtfield, 0)
    workload.work = str(tmp_path)
    inputs = workload.build()
    op = workload.op(0)
    assert op.ok, op.detail
    workload.verify(inputs, [op])
