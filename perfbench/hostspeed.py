"""Host speed: a fixed reference kernel timed around and during every measurement.

The shared host this benchmark was tuned on changes speed by up to 1.8x
within minutes, and by 15% within a few seconds.  CPU time moves with wall
time, so the slowdown is in the processor itself (a busy sibling thread or a
clock change), not in scheduling, and no run length averages it out.  The
benchmark therefore times this kernel, which never calls dtfield, before,
during (on a SIGALRM interval timer) and after each timed step, and reports
the step's time rescaled to the speed at which the kernel takes nominal_s:

    scaled = (wall - time spent in the kernel) * nominal_s / mean kernel time

The kernel is built from three kinds of work dtfield does: array slicing
and reductions over a grid of 6-vectors (as in pairwise_energy), a
Python loop of updates to 100-element arrays (as in jacobi_eigh) and float
formatting and parsing (as in fileio).  They slow down by different factors
when the host does, so each workload weights them like its own profile and
sweeps a grid of its own size; with one fixed kernel, the rescaled times of
a pairwise-bound and of a Jacobi-bound workload, or of a 32x32 and a 48x48
one, could not all be made steady.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# period of the in-step samples; each costs about two kernel calls
INTERVAL_S = 0.2

_W = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
_OFFSETS = [(di, dj) for di in range(4) for dj in range(-3, 4)
            if (di > 0 or dj > 0) and di * di + dj * dj <= 9]


class HostSpeed:
    """Times the reference kernel; see the module docstring.

    side: the workload's grid side; sweeps: passes over the pixel-pair
    offsets of that grid; loops: iterations of the small-array loop; floats:
    numbers formatted and parsed; nominal_s: a fixed constant, the kernel's
    time on the tuning host at one moment, so that rescaled times stay
    comparable between runs and commits.
    """

    def __init__(self, side: int, sweeps: int, loops: int, floats: int, nominal_s: float):
        self.sweeps, self.loops, self.nominal_s = sweeps, loops, nominal_s
        rng = np.random.default_rng(0)
        self.grid = rng.standard_normal((side, side, 6))
        self.small = rng.standard_normal((100, 3, 3))
        self.floats = [float(v) for v in rng.standard_normal(floats)]
        self._samples: list[float] = []
        self._spent = 0.0
        self._busy = False
        # runs each in-step sample, as hook(sample); the traced run records
        # them as spans so that no layer's self time includes them
        self.hook = None

    def _kernel(self) -> float:
        grid, total = self.grid, 0.0
        side = grid.shape[0]
        for di, dj in _OFFSETS * self.sweeps:
            a = grid[:side - di, max(0, -dj):side - max(0, dj)]
            b = grid[di:, max(0, dj):side - max(0, -dj)]
            diff = a - b
            nsq = (diff * diff) @ _W
            total += float(np.power(nsq, 0.55).sum())
            safe = np.where(nsq > 0.0, nsq, 1.0)
            grad = np.where(nsq > 0.0, np.power(safe, -0.45), 0.0)[..., None] * (_W * diff)
            total += float(grad[0, 0, 0])
        small = self.small
        for _ in range(self.loops):
            apq = small[:, 0, 1].copy()
            theta = (small[:, 1, 1] - small[:, 0, 0]) / (2.0 * apq)
            t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            total += float(t[0])
        text = " ".join(repr(v) for v in self.floats)
        total += sum(float(tok) for tok in text.split())
        return total

    def sample(self) -> float:
        """Kernel time: the second of two back-to-back calls (the first warms caches)."""
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        if self._busy:  # an alarm that lands inside the previous sample
            return
        self._busy = True
        start = time.perf_counter()
        self._samples.append(self.hook(self.sample) if self.hook else self.sample())
        self._spent += time.perf_counter() - start
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel around the block, and every INTERVAL_S inside it.

        Yields a list that receives (wall seconds net of sampling, mean
        kernel seconds) when the block ends.
        """
        self._samples, self._spent = [self.sample()], 0.0
        out: list[float] = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - start - self._spent
            signal.signal(signal.SIGALRM, previous)
        self._samples.append(self.sample())
        out.extend([wall, statistics.fmean(self._samples)])

    def scaled(self, seconds: float, reference: float) -> float:
        """Seconds rescaled to the host speed at which the kernel takes nominal_s."""
        return seconds * self.nominal_s / reference
