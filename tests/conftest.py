"""Pytest hooks and shared fixtures.

The hooks print a one-line verdict per end-to-end acceptance check; the
fd_gradient fixture is the one finite-difference gradient of the tests.
"""
from __future__ import annotations

import numpy as np
import pytest

_FD_CHUNK = 512  # perturbed points evaluated in one batch: bounds memory
_verdicts: list[tuple[str, bool]] = []


def central_differences(value, point, step=1e-6):
    """Central-difference gradient of value at point.

    value maps a (n,) + point.shape batch of points to n values.  The points
    point +- step e_k are evaluated _FD_CHUNK coordinates at a time.
    """
    point = np.asarray(point, dtype=np.float64)
    flat = point.reshape(-1)
    grad = np.empty(flat.size)
    for lo in range(0, flat.size, _FD_CHUNK):
        rows = np.arange(min(_FD_CHUNK, flat.size - lo))
        block = np.repeat(flat[None, :], rows.size, axis=0)
        block[rows, lo + rows] += step
        plus = value(block.reshape((-1,) + point.shape))
        block[rows, lo + rows] -= 2.0 * step
        minus = value(block.reshape((-1,) + point.shape))
        grad[lo:lo + rows.size] = (plus - minus) / (2.0 * step)
    return grad.reshape(point.shape)


@pytest.fixture
def fd_gradient():
    return central_differences


def pytest_runtest_logreport(report):
    if "test_acceptance.py::" not in report.nodeid:
        return
    name = report.nodeid.split("::", 1)[1]
    if report.when == "call":
        _verdicts.append((name, report.outcome == "passed"))
    elif report.when == "setup" and report.outcome == "failed":
        _verdicts.append((name, False))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _verdicts:
        return
    terminalreporter.write_sep("=", "acceptance checks")
    for name, ok in _verdicts:
        number, _, words = name.removeprefix("test_").partition("_")
        label = words.replace("_", " ") if words else name
        terminalreporter.write_line(
            f"{int(number)}. {label}: {'PASS' if ok else 'FAIL'}"
        )
