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
a denoise at --epsilon 1e-3; a re-solve from rec.dtf; an alpha sweep with
an explicit --report path; a denoise from a --config file (solve.cfg, with
a flag overriding one of its keys); an all-pairs (--l 0) denoise of a 6x6
generate; the three huge-weight denoises of a 5x5 generate (sigma2 900,
seed 3), which exit 3 with one error line; the 64x64
generate -> denoise -> evaluate --profile-out pipeline of perfbench's cli-64
at seeds 0, 1 and 3; and that generate at seed 2, which exits 2 because a
noisy fit breaks the log-bound.  Then the usage errors, each exiting 2:
generate with --n x, --phantom helix and --threads 0; generate from a
--config file (bad.cfg) holding phantom = helix; a denoise of the 6x6 data
with --objective bogus; generate with --out naming the existing file
hole.msk; generate with --epsilon 0, which writes nothing (no e0 directory);
and a denoise of the 6x6 data whose --out names the existing directory g6.
Standard library only; not part of the test suite.
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
# a --config file: a comment, quoted and commented values; --iters overrides it
CONFIG = "# solve settings\nalpha = 0.5\nnrho = \"2\"\niters = 60  # overridden\n"
# a --config file whose value fails the flag's own check
BAD_CONFIG = "phantom = helix\n"

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
    "denoise data/noisy.dtf --sweep alpha=0.5,2 --iters 40 --report sweep.json --out sweep.dtf",
    "denoise data/noisy.dtf --config solve.cfg --iters 30 --out config.dtf",
    "generate --phantom staircase --n 6 --sigma2 1600 --seed 0 --out g6",
    "denoise g6/noisy.dtf --l 0 --iters 40 --out g6/rec.dtf",
    "generate --phantom staircase --n 5 --sigma2 900 --seed 3 --out g5",
    "denoise g5/noisy.dtf --objective sobolev --beta 1.7e308 --out g5/sobolev.dtf",
    "denoise g5/noisy.dtf --objective euclid --alpha 1e307 --out g5/euclid.dtf",
    "denoise g5/noisy.dtf --alpha 1e307 --out g5/loglog.dtf",
]
for _seed in (0, 1, 3, 2):
    MATRIX.append(f"generate --phantom staircase --n 64 --sigma2 1600 --seed {_seed}"
                  f" --threads 1 --out g64-{_seed}")
    if _seed != 2:
        MATRIX += [f"denoise g64-{_seed}/noisy.dtf --alpha 2.75 --nrho 3 --iters 80"
                   f" --out g64-{_seed}/rec.dtf",
                   f"evaluate g64-{_seed}/original.dtf g64-{_seed}/rec.dtf"
                   f" --profile-out g64-{_seed}/profile.csv"]
MATRIX += [
    "generate --n x",
    "generate --phantom helix",
    "generate --threads 0",
    "generate --config bad.cfg --out bad",
    "denoise g6/noisy.dtf --objective bogus --out g6/bogus.dtf",
    "generate --n 4 --out hole.msk",
    "generate --n 4 --epsilon 0 --out e0",
    "denoise g6/noisy.dtf --iters 40 --out g6",
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="directory holding the dtfield package (default: ../src)")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as work:
        for name, text in (("hole.msk", HOLE), ("solve.cfg", CONFIG), ("bad.cfg", BAD_CONFIG)):
            with open(os.path.join(work, name), "w", encoding="ascii") as fh:
                fh.write(text)
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
