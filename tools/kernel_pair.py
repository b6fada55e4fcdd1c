"""Paired timings of field.pairwise_energy in two source trees.

    python3 tools/kernel_pair.py --against OTHER [--src PATH]

Loads the dtfield package from PATH (default: the src/ next to this tool)
and from OTHER (another checkout's src/) side by side in one process, under
two package names, and times pairwise_energy's value and value+gradient on
each shape below with the offsets of that side's phi_kernel_offsets.  In
each of the ROUNDS (15) rounds the two sides take turns, one call each, until
40 ms have passed (at least one turn), OTHER first on even rounds and PATH
first on odd ones, so that a change of the host's speed favours neither; a
side's time in a round is the mean of its calls.  Per shape it prints the
median over the rounds of PATH's time over OTHER's, for the value and for
value+gradient, with both sides' median times, and whether the two sides
agree: `bit-equal`, or else the largest relative difference of the values
and of the gradients (a gradient's difference relative to its largest
entry).  Shapes: the four workload grids, 10x10 at n_rho 3 and p 1.1
(perfbench's kernel timings and euclid-sobolev), 32x32 at n_rho 3 and p 1.1 (denoise-tol), 48x48 at n_rho 2
and p 2 (inpaint-p2) and 64x64 at n_rho 3 and p 1.1 (cli-64); and the
all-pairs window (l = 0) at 6x6, 10x10, 16x16 and 32x32, p 1.1.  Input: one
fixed random coordinate array per grid.  Standard library and numpy only;
not part of the test suite.
"""
from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time

import numpy as np

# (label, height, width, l, n_rho, p)
SHAPES = (
    ("10x10 n_rho 3 p 1.1", 10, 10, 1, 3, 1.1),
    ("32x32 n_rho 3 p 1.1", 32, 32, 1, 3, 1.1),
    ("48x48 n_rho 2 p 2", 48, 48, 1, 2, 2.0),
    ("64x64 n_rho 3 p 1.1", 64, 64, 1, 3, 1.1),
    ("6x6 l 0 p 1.1", 6, 6, 0, 1, 1.1),
    ("10x10 l 0 p 1.1", 10, 10, 0, 1, 1.1),
    ("16x16 l 0 p 1.1", 16, 16, 0, 1, 1.1),
    ("32x32 l 0 p 1.1", 32, 32, 0, 1, 1.1),
)
FILL_S = 0.04
ROUNDS = 15


def load_field(src: str, name: str):
    """The field module of the dtfield package under src, imported as name."""
    pkg = os.path.join(os.path.abspath(src), "dtfield")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return sys.modules[f"{name}.field"]


def round_s(first, second) -> tuple[float, float]:
    """Mean times of two calls made in turn, one call each, until FILL_S
    has passed (at least once): a change of the host's speed hits both."""
    spent, calls, clock = [0.0, 0.0], 0, time.perf_counter
    start = clock()
    while True:
        for i, call in enumerate((first, second)):
            t0 = clock()
            call()
            spent[i] += clock() - t0
        calls += 1
        if clock() - start >= FILL_S:
            return spent[0] / calls, spent[1] / calls


def agreement(this, other) -> str:
    (v, g), (ov, og) = this, other
    if np.array_equal(v, ov) and np.array_equal(g, og):
        return "bit-equal"
    dv = float(np.max(np.abs(v - ov) / np.maximum(np.abs(ov), 1e-300)))
    dg = float(np.max(np.abs(g - og)) / max(float(np.max(np.abs(og))), 1e-300))
    return f"value {dv:.2g}  gradient {dg:.2g} relative"


def main(argv=None) -> int:
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.normpath(here))
    ap.add_argument("--against", required=True, help="the other checkout's src/")
    args = ap.parse_args(argv)
    sides = (load_field(args.against, "dtfield_other"), load_field(args.src, "dtfield_this"))
    rng = np.random.default_rng(20260)
    print(f"{'shape':<22}{'value':>8}{'this ms':>10}{'other ms':>10}"
          f"{'v+grad':>9}{'this ms':>10}{'other ms':>10}  agreement")
    for label, height, width, l, n_rho, p in SHAPES:
        rep = 0.5 * rng.standard_normal((height, width, 6))
        calls = []
        for field in sides:
            params = field.FunctionalParams(p=p, s=0.5, l=l, n_rho=n_rho)
            offsets = field.phi_kernel_offsets(height, width, params)
            calls.append((lambda f=field, o=offsets: f.pairwise_energy(rep, o, p),
                          lambda f=field, o=offsets: f.pairwise_energy(rep, o, p, need_grad=True)))
        times = {(side, path): [] for side in (0, 1) for path in (0, 1)}
        for r in range(ROUNDS):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for path in (0, 1):
                pair = round_s(calls[order[0]][path], calls[order[1]][path])
                for side, t in zip(order, pair):
                    times[side, path].append(t)
        cells = []
        for path in (0, 1):
            ratio = statistics.median(t / o for t, o in zip(times[1, path], times[0, path]))
            cells.append(f"{ratio:>8.3f}{1e3 * statistics.median(times[1, path]):>10.3f}"
                         f"{1e3 * statistics.median(times[0, path]):>10.3f}")
        print(f"{label:<22}{cells[0]}{' ':1}{cells[1]}  "
              f"{agreement(calls[1][1](), calls[0][1]())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
