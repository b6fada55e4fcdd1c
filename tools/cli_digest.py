"""Digest of a fixed dtfield CLI matrix, for byte-identity checks across revisions.

    python3 tools/cli_digest.py [--src PATH]

Runs every command below with `python3 -m dtfield.cli`, PYTHONPATH set to
PATH (default: the src/ next to this tool), in a fresh temporary directory
that is removed afterwards; all paths are relative to it.  For each command
it prints one line

    exit <code>  stdout <sha256>  stderr <sha256>  dtfield <arguments>

and then one `<sha256>  <path>` line per file the commands wrote, in path
order.  Diff the output for two checkouts' src/ to see whether they write the
same bytes, print the same text and exit alike.

The matrix: README's quick start (generate, the loglog denoise, evaluate,
render, and inpaint with the central 4x4 hole); euclid and sobolev denoises;
a denoise at --epsilon 1e-3; a re-solve from rec.dtf; the 64x64
generate -> denoise -> evaluate --profile-out pipeline of perfbench's cli-64
at seeds 0, 1 and 3; and that generate at seed 2, which exits 2 because a
noisy fit breaks the log-bound.  Standard library only; not part of the
test suite.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

# the README inpainting mask: 10x10, rows and columns 3 to 6 missing
HOLE = "MSK1 10 10\n" + "".join(
    "".join("0" if 3 <= i <= 6 and 3 <= j <= 6 else "1" for j in range(10)) + "\n"
    for i in range(10))

MATRIX = [
    "generate --phantom staircase --n 10 --sigma2 1600 --seed 0 --out data --write-dwis",
    "denoise data/noisy.dtf --alpha 2.75 --nrho 3 --iters 80 --out rec.dtf",
    "evaluate data/original.dtf data/noisy.dtf",
    "evaluate data/original.dtf rec.dtf",
    "render rec.dtf --out rec.svg",
    "inpaint data/noisy.dtf --mask hole.msk --p 2 --alpha 1.0 --nrho 2 --iters 2000"
    " --rel-tol 1e-10 --out inpainted.dtf",
    "evaluate data/original.dtf inpainted.dtf",
    "denoise data/noisy.dtf --objective euclid --iters 40 --out euclid.dtf",
    "denoise data/noisy.dtf --objective sobolev --iters 40 --out sobolev.dtf",
    "denoise data/noisy.dtf --epsilon 1e-3 --alpha 2.75 --iters 40 --out eps.dtf",
    "denoise rec.dtf --alpha 2.75 --iters 40 --out resolved.dtf",
]
for _seed in (0, 1, 3, 2):
    MATRIX.append(f"generate --phantom staircase --n 64 --sigma2 1600 --seed {_seed}"
                  f" --threads 1 --out g64-{_seed}")
    if _seed != 2:
        MATRIX += [f"denoise g64-{_seed}/noisy.dtf --alpha 2.75 --nrho 3 --iters 80"
                   f" --out g64-{_seed}/rec.dtf",
                   f"evaluate g64-{_seed}/original.dtf g64-{_seed}/rec.dtf"
                   f" --profile-out g64-{_seed}/profile.csv"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="directory holding the dtfield package (default: ../src)")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as work:
        with open(os.path.join(work, "hole.msk"), "w", encoding="ascii") as fh:
            fh.write(HOLE)
        for command in MATRIX:
            run = subprocess.run([sys.executable, "-m", "dtfield.cli", *command.split()],
                                 cwd=work, env=env, capture_output=True)
            print(f"exit {run.returncode}  stdout {sha256(run.stdout)}  "
                  f"stderr {sha256(run.stderr)}  dtfield {command}", flush=True)
        paths = sorted(os.path.relpath(os.path.join(root, name), work)
                       for root, _, names in os.walk(work) for name in names)
        for path in paths:
            with open(os.path.join(work, path), "rb") as fh:
                print(f"{sha256(fh.read())}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
