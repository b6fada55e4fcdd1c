"""Command-line interface wiring generation, solving, evaluation, rendering.

Five subcommands: generate (phantom + noisy measurement), denoise and
inpaint (variational reconstruction), evaluate (SNR and eigenvalue
profiles), render (SVG glyphs).  Every command is deterministic given its
full flag set; reports written by solve commands carry a fixed
"seconds": 0.0 so reruns are byte-identical.

Parameter flags may also come from a --config file of `key = value` lines
(same key names as the flags, # comments allowed).  Its values become the
subcommand's defaults, so they are converted and checked exactly like flags;
explicit flags override them, and unknown keys are rejected.

main returns the exit code, argparse's included: 0 success or --help, 2 usage or
validation error (output paths are checked before any work), 3 runtime failure.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import fields, replace
from typing import Callable

from .analysis import column_eigen_profile, render_svg, snr
from .field import FunctionalParams, Mask
from .optim import SolverConfig, solve
from .fileio import _read, _write, read_field, read_mask, write_dwis, write_field
from .spd import EPSILON_DEFAULT, LOG_BOUND_DEFAULT
from .synth import (
    A0_DEFAULT,
    B_VALUE_DEFAULT,
    NoiseSpec,
    apply_noise,
    fit_field,
    make_main_direction_phantom,
    make_staircase_phantom,
    simulate_dwis,
)

_PHANTOMS = {
    "staircase": make_staircase_phantom,
    "main-direction": make_main_direction_phantom,
}

_OBJECTIVES = {
    "loglog": "f-log-euclidean",
    "euclid": "f-euclidean",
    "sobolev": "fc",
}


def _choice(*names: str) -> Callable[[str], str]:
    def convert(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(f"expected one of {', '.join(names)}; got {text!r}")
        return text
    return convert


def _threads(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"threads must be >= 1, got {value}")
    return value


# (flag, dest, converter, default, help): the solve dests besides objective are
# FunctionalParams and SolverConfig fields, the generate dests provenance.json keys
_GENERATE_OPTS = [
    ("phantom", "phantom", _choice(*_PHANTOMS), "staircase", "phantom family"),
    ("n", "n", int, 10, "grid side length"),
    ("sigma2", "sigma2", float, 0.0, "Rician noise variance in signal units"),
    ("seed", "seed", int, 0, "noise random seed"),
    ("b", "b", float, B_VALUE_DEFAULT, "diffusion weighting b-value"),
    ("a0", "a0", float, A0_DEFAULT, "unweighted reference signal"),
    ("z", "z", float, LOG_BOUND_DEFAULT, "log-norm bound of the fitted tensors"),
    ("epsilon", "epsilon", float, EPSILON_DEFAULT, "eigenvalue floor of the projection"),
    ("threads", "threads", _threads, 1, "no effect; accepted and recorded in provenance.json"),
]

_SOLVE_OPTS = [
    ("objective", "objective", _choice(*_OBJECTIVES), "loglog",
     "objective: loglog (metric), euclid, or sobolev"),
    ("p", "p", float, FunctionalParams.p, "fidelity/regularity exponent"),
    ("s", "s", float, FunctionalParams.s, "fractional smoothness order"),
    ("alpha", "alpha", float, FunctionalParams.alpha, "metric double-integral weight"),
    ("beta", "beta", float, FunctionalParams.beta, "Sobolev comparison weight"),
    ("l", "l", int, FunctionalParams.l, "1 = mollifier window, 0 = all pixel pairs"),
    ("nrho", "n_rho", int, FunctionalParams.n_rho, "mollifier radius in pixels"),
    ("z", "z", float, FunctionalParams.z, "log-norm bound of the feasible set"),
    ("epsilon", "epsilon", float, FunctionalParams.epsilon, "eigenvalue floor of the projection"),
    ("iters", "max_iters", int, SolverConfig.max_iters, "maximum gradient iterations"),
    ("init-step", "init_step", float, SolverConfig.init_step,
     "fresh line searches (the first, and one before a run stops) start at 2 x init-step"),
    ("rel-tol", "rel_tol", float, SolverConfig.rel_tol, "relative decrease stopping tolerance"),
]


def _add_opts(parser: argparse.ArgumentParser, opts: list[tuple]):
    for flag, dest, convert, default, text in opts:
        parser.add_argument(f"--{flag}", dest=dest, type=convert, default=default,
                            metavar="V", help=f"{text} (default: {default})")


def _parse_config_text(text: str, path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip().strip("\"'")
        if not sep or not key or not value:
            raise ValueError(f"{path}:{no}: expected 'key = value', got {raw!r}")
        entries[key] = value
    return entries


def _set_config_defaults(args: argparse.Namespace):
    """Make the --config file's entries the subcommand's defaults; reject unknown keys.

    argparse converts a string default with the flag's type, so a file value
    is checked exactly like the flag, and an explicit flag still overrides it.
    """
    parser = args.parser
    text = _read(args.config)
    try:
        entries = _parse_config_text(text, args.config)
    except ValueError as exc:
        parser.error(str(exc))
    dests = {flag: dest for flag, dest, *_ in
             (_GENERATE_OPTS if args.command == "generate" else _SOLVE_OPTS)}
    unknown = set(entries) - set(dests)
    if unknown:
        parser.error(f"unknown config key(s): {', '.join(sorted(unknown))}")
    parser.set_defaults(**{dests[key]: value for key, value in entries.items()})


def _from_args(cls, args: argparse.Namespace):
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _write_json(obj, path: str):
    _write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _check_out_dir(path: str):
    """Raise, creating nothing, what os.makedirs(path, exist_ok=True) raises on a non-dir."""
    missing = None
    while path and not os.path.lexists(path.rstrip(os.sep) or path):
        missing, path = path, os.path.dirname(path)
    if path and not os.path.isdir(path):
        if missing is None:
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), path)
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), missing)


def _check_out_file(path: str):
    """Raise, creating nothing, what open(path, "w") raises on a dir or a bad parent."""
    if os.path.isdir(path) or path.endswith(os.sep):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        os.stat(os.path.join(os.path.dirname(path) or os.curdir, ""))
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None


# ---- commands ----

def cmd_generate(args: argparse.Namespace) -> int:
    _check_out_dir(args.out)
    phantom = _PHANTOMS[args.phantom](args.n)
    spec = NoiseSpec(args.sigma2, args.seed)
    dwis = apply_noise(simulate_dwis(phantom, args.b, args.a0), spec)
    noisy = fit_field(dwis, args.epsilon, args.z)
    os.makedirs(args.out, exist_ok=True)
    write_field(phantom, os.path.join(args.out, "original.dtf"))
    write_field(noisy, os.path.join(args.out, "noisy.dtf"))
    names = ["original.dtf", "noisy.dtf"]
    if args.write_dwis:
        write_dwis(dwis, os.path.join(args.out, "dwis.dwi"))
        names.append("dwis.dwi")
    provenance = {dest: getattr(args, dest) for _, dest, *_ in _GENERATE_OPTS}
    _write_json({"command": "generate", **provenance}, os.path.join(args.out, "provenance.json"))
    names.append("provenance.json")
    print(f"wrote {', '.join(names)} in {args.out}")
    return 0


def _parse_sweep(text: str, parser: argparse.ArgumentParser) -> list[str]:
    key, _, rest = text.partition("=")
    tokens = [tok.strip() for tok in rest.split(",") if tok.strip()]
    if key.strip() != "alpha" or not tokens:
        parser.error(f"--sweep expects alpha=<comma-separated values>, got {text!r}")
    for tok in tokens:
        try:
            float(tok)
        except ValueError:
            parser.error(f"--sweep value {tok!r} is not a number")
    return tokens


def _suffixed(path: str, token: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.alpha-{token}{ext}"


def cmd_solve(args: argparse.Namespace) -> int:
    data = read_field(args.input)
    if args.masked:
        mask = read_mask(args.mask)
    else:
        mask = Mask.full(data.height, data.width)
    params = _from_args(FunctionalParams, args)
    config = _from_args(SolverConfig, args)
    runs = []
    for token in [None] if args.sweep is None else _parse_sweep(args.sweep, args.parser):
        out_path = args.out if token is None else _suffixed(args.out, token)
        report_path = f"{out_path}.report.json" if args.report is None else (
            args.report if token is None else _suffixed(args.report, token))
        runs.append((token, params if token is None else replace(params, alpha=float(token)),
                     out_path, report_path))
    for *_, out_path, report_path in runs:  # every output path, before any solve
        _check_out_file(out_path)
        _check_out_file(report_path)
    for token, run_params, out_path, report_path in runs:
        rec, report = solve(data, mask, run_params,
                            objective=_OBJECTIVES[args.objective], config=config)
        write_field(rec, out_path)
        _write_json({**report.to_json_dict(), "seconds": 0.0}, report_path)
        label = "" if token is None else f"alpha={token}: "
        print(f"{label}objective {report.final_objective!r} after "
              f"{report.iterations} iterations -> {out_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    original = read_field(args.original)
    reconstruction = read_field(args.reconstruction)
    print(f"SNR {snr(original, reconstruction)!r}")
    if args.profile_out:
        profile = column_eigen_profile(reconstruction)
        _write(args.profile_out,
               "".join(f"{j},{float(value)!r}\n" for j, value in enumerate(profile)))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    render_svg(read_field(args.input), args.out)
    print(f"wrote {args.out}")
    return 0


# ---- parser ----

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtfield",
        description="Variational denoising and inpainting of 3x3 tensor fields.")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")

    gen = subs.add_parser("generate",
                          help="write a phantom field and its noisy measurement")
    _add_opts(gen, _GENERATE_OPTS)
    gen.add_argument("--out", default=".", metavar="DIR",
                     help="output directory (default: current directory)")
    gen.add_argument("--write-dwis", action="store_true",
                     help="also write the noisy DWI stack")
    gen.add_argument("--config", metavar="FILE",
                     help="key = value parameter file; flags override it")
    gen.set_defaults(func=cmd_generate, parser=gen)

    for name, masked, blurb in (
            ("denoise", False, "reconstruct a field observed everywhere"),
            ("inpaint", True, "reconstruct with a mask of observed pixels")):
        sub = subs.add_parser(name, help=blurb)
        sub.add_argument("input", metavar="INPUT.dtf", help="noisy input field")
        if masked:
            sub.add_argument("--mask", required=True, metavar="FILE.msk",
                             help="0/1 mask; 1 = data present, 0 = reconstruct")
        _add_opts(sub, _SOLVE_OPTS)
        sub.add_argument("--out", required=True, metavar="FILE.dtf",
                         help="reconstructed field path")
        sub.add_argument("--report", metavar="FILE.json",
                         help="solve report path (default: <out>.report.json)")
        sub.add_argument("--sweep", metavar="alpha=V1,V2,...",
                         help="solve once per comma-separated alpha value")
        sub.add_argument("--config", metavar="FILE",
                         help="key = value parameter file; flags override it")
        sub.set_defaults(func=cmd_solve, parser=sub, masked=masked)

    ev = subs.add_parser("evaluate", help="report SNR between two fields")
    ev.add_argument("original", metavar="ORIGINAL.dtf")
    ev.add_argument("reconstruction", metavar="RECONSTRUCTION.dtf")
    ev.add_argument("--profile-out", metavar="FILE.csv",
                    help="write the per-column mean largest eigenvalue")
    ev.set_defaults(func=cmd_evaluate, parser=ev)

    ren = subs.add_parser("render", help="render a field as SVG ellipse glyphs")
    ren.add_argument("input", metavar="INPUT.dtf")
    ren.add_argument("--out", required=True, metavar="FILE.svg")
    ren.set_defaults(func=cmd_render, parser=ren)
    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _set_config_defaults(args)
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # from argparse: 2 after a usage error, 0 after --help
        return exc.code
    except (FileExistsError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, RuntimeError, OSError) as exc:  # LineSearchError is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
