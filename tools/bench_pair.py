"""Paired perfbench runs of two revisions, summarized into BENCH_<pr>.json.

    python3 tools/bench_pair.py --base REV [--head REV] --pr N [--seeds 10] [--out PATH]

Run from inside the repository.  Each side is exported with `git archive`
into a fresh temporary directory (no worktree is registered, nothing in the
checkout changes).  Without --head the change side is the staged index, the
tree that `git commit` would record; the tool refuses to run when tracked
files have unstaged changes, and the summary then names that side by its
tree ids only, with `head_sha` null.  The run length and the workloads come
from BENCHMARK.json in each side's tree: both sides must declare the same
`run_seconds`, and a workload that only one side declares is skipped with a
warning.  For every workload and every seed 0..N-1 the tool runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once on each side, in alternating order (base first on even seeds, head
first on odd ones), so that a drift of the host's speed does not favour one
side.  Each side runs its own perfbench/ and src/.  A run that exits non-zero
or whose last line is not a JSON object is recorded as an error; the tool
then still finishes and writes the summary, but exits with status 1.  Ten
seeds give the ten alternating pairs a claimed gain needs; fewer give a
record that supports no claim.  Then each side's Tier-1 suite runs twice, in
the order base, head, head, base:

    PYTHONPATH=src python3 -m pytest -q --continue-on-collection-errors

The summary holds, per workload and side, the median of each end-to-end
metric over the seeds, the per-seed values and quartiles of op_s, the summed
attempted and failed operation counts, and whether every run was correct,
and per workload the number of seeds on which head's op_s is lower; per side
the Tier-1 wall times, pytest's closing line and the duration of
test_acceptance.py::test_01 (setup, call and teardown); plus both git SHAs
and src/ tree ids, the Python and numpy versions, and the number of CPUs.
Standard library only.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

METRICS = ("op_s", "setup_s", "peak_rss_mb", "objective", "snr")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=0")
TEST_01 = "tests/test_acceptance.py::test_01_"


def git(*args: str) -> str:
    return subprocess.run(("git",) + args, capture_output=True, text=True,
                          check=True).stdout.strip()


def resolve(rev: str | None) -> tuple[str | None, str]:
    """(commit SHA, tree id) of rev; (None, tree of the staged index) when rev is None."""
    if rev is not None:
        sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
        return sha, git("rev-parse", f"{sha}^{{tree}}")
    if subprocess.run(("git", "diff", "--quiet")).returncode != 0:
        sys.exit("bench_pair: tracked files have unstaged changes; stage them or pass --head")
    return None, git("write-tree")


def benchmark(tree: str) -> tuple[float, list[str]]:
    """run_seconds and the workload names of the BENCHMARK.json in tree."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return float(spec["run_seconds"]), [w["name"] for w in spec["workloads"]]


def export(tree: str, dest: str) -> None:
    archive = subprocess.run(("git", "archive", "--format=tar", tree),
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its last stdout line, or an error record."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if not isinstance(result, dict):
            raise ValueError("not an object")
    except (IndexError, ValueError):
        result = None
    if done.returncode != 0 or result is None:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-400:]}"}
    return result


def run_tier1(tree: str) -> dict:
    """Wall time of one Tier-1 run in tree, pytest's closing line and test_01's time."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = "src"
    started = time.perf_counter()
    done = subprocess.run((sys.executable,) + TIER1, cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    # --durations lines read "<seconds>s <phase> <node id>"
    phases = [re.match(r"([0-9.]+)s \w+ +(\S+)$", line) for line in lines]
    test_01 = [float(m.group(1)) for m in phases if m and m.group(2).startswith(TEST_01)]
    return {"wall_s": round(wall, 1), "exit": done.returncode,
            "summary": lines[-1].strip("= ") if lines else None,
            "test_01_s": round(sum(test_01), 2) if test_01 else None}


def summarize(runs: list[dict]) -> dict:
    good = [r for r in runs if "error" not in r]
    side = {
        "runs": len(runs),
        "errors": [r["error"] for r in runs if "error" in r],
        "correct": len(good) == len(runs) and all(r["correct"] for r in good),
        "attempted": sum(r["attempted"] for r in good),
        "failed": sum(r["failed"] for r in good),
        "op_s_per_seed": [r["metrics"]["op_s"]["value"] if "error" not in r else None
                          for r in runs],
    }
    op_s = [v for v in side["op_s_per_seed"] if v is not None]
    side["op_s_quartiles"] = statistics.quantiles(op_s, n=4) if len(op_s) > 1 else None
    for name in METRICS:
        values = [r["metrics"][name]["value"] for r in good if name in r["metrics"]]
        side[name] = statistics.median(values) if values else None
    return side


def versions() -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy or None,
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision of the parent side")
    parser.add_argument("--head", help="revision of the change side (default: the checkout)")
    parser.add_argument("--pr", required=True, type=int, help="names BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", help="output path (default: BENCH_<pr>.json at the root)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    root = git("rev-parse", "--show-toplevel")
    out = args.out or os.path.join(root, f"BENCH_{args.pr}.json")
    revs = {"base": resolve(args.base), "head": resolve(args.head)}
    started = time.time()
    results: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as scratch:
        trees, specs = {}, {}
        for side, (_, tree) in revs.items():
            trees[side] = os.path.join(scratch, side)
            export(tree, trees[side])
            specs[side] = benchmark(trees[side])
        seconds = specs["head"][0]
        if specs["base"][0] != seconds:
            sys.exit(f"bench_pair: run_seconds differs: base {specs['base'][0]}, head {seconds}")
        workloads = [w for w in specs["head"][1] if w in specs["base"][1]]
        for w in sorted(set(specs["head"][1]) ^ set(specs["base"][1])):
            print(f"bench_pair: skipping {w}: only one side declares it", file=sys.stderr)
        for workload in workloads:
            runs = {"base": [], "head": []}
            for seed in range(args.seeds):
                order = ("base", "head") if seed % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(run_once(trees[side], workload, seed, seconds))
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(runs[side][-1])[:200]}", file=sys.stderr, flush=True)
            results[workload] = {side: summarize(r) for side, r in runs.items()}
            results[workload]["head_wins"] = sum(
                h is not None and b is not None and h < b
                for b, h in zip(results[workload]["base"]["op_s_per_seed"],
                                results[workload]["head"]["op_s_per_seed"]))
        tier1 = {"base": [], "head": []}
        for side in ("base", "head", "head", "base"):
            tier1[side].append(run_tier1(trees[side]))
            print(f"tier-1 {side}: {json.dumps(tier1[side][-1])}", file=sys.stderr, flush=True)
    summary = {
        "pr": args.pr,
        "base_sha": revs["base"][0],
        "head_sha": revs["head"][0],  # null: the staged index, named by its trees only
        # tree ids of src/ survive a rebase or squash of either commit
        "base_src_tree": git("rev-parse", f"{revs['base'][1]}:src"),
        "head_src_tree": git("rev-parse", f"{revs['head'][1]}:src"),
        "command": "perfbench/run.py --trace 0",
        "seeds": args.seeds,
        "seconds": seconds,
        "wall_s": round(time.time() - started, 1),
        **versions(),
        "workloads": results,
        "tier1": tier1,
    }
    with open(out, "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    errors = any(results[w][side]["errors"] for w in results for side in ("base", "head"))
    return 1 if errors or any(r["exit"] for runs in tier1.values() for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
