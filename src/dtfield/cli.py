"""Command-line interface wiring generation, solving, evaluation, rendering.

Five subcommands: generate (phantom + noisy measurement), denoise and
inpaint (variational reconstruction), evaluate (SNR and eigenvalue
profiles), render (SVG glyphs).  Every command is deterministic given its
full flag set; reports written by solve commands carry a fixed
"seconds": 0.0 so reruns are byte-identical.

Parameter flags may also come from a --config file of `key = value` lines
(same key names as the flags, # comments allowed); explicit flags override
file values, and unknown keys are rejected.

main returns the exit code, argparse's included: 0 success or --help, 2 usage or
validation error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable

from .analysis import column_eigen_profile, render_svg, snr
from .field import FunctionalParams, Mask
from .optim import SolverConfig, solve
from .fileio import _write, read_field, read_mask, write_dwis, write_field
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
            raise ValueError(f"expected one of {', '.join(names)}; got {text!r}")
        return text
    return convert


def _threads(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"threads must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class Opt:
    """One config-file-eligible parameter: flag name, converter, default."""

    name: str
    convert: Callable[[str], object]
    default: object
    help: str


_GENERATE_OPTS = [
    Opt("phantom", _choice(*_PHANTOMS), "staircase", "phantom family"),
    Opt("n", int, 10, "grid side length"),
    Opt("sigma2", float, 0.0, "Rician noise variance in signal units"),
    Opt("seed", int, 0, "noise random seed"),
    Opt("b", float, B_VALUE_DEFAULT, "diffusion weighting b-value"),
    Opt("a0", float, A0_DEFAULT, "unweighted reference signal"),
    Opt("z", float, LOG_BOUND_DEFAULT, "log-norm bound of the fitted tensors"),
    Opt("epsilon", float, EPSILON_DEFAULT, "eigenvalue floor of the projection"),
    Opt("threads", _threads, 1, "no effect; accepted and recorded in provenance.json"),
]

_SOLVE_OPTS = [
    Opt("objective", _choice(*_OBJECTIVES), "loglog",
        "objective: loglog (metric), euclid, or sobolev"),
    Opt("p", float, FunctionalParams.p, "fidelity/regularity exponent"),
    Opt("s", float, FunctionalParams.s, "fractional smoothness order"),
    Opt("alpha", float, FunctionalParams.alpha, "metric double-integral weight"),
    Opt("beta", float, FunctionalParams.beta, "Sobolev comparison weight"),
    Opt("l", int, FunctionalParams.l, "1 = mollifier window, 0 = all pixel pairs"),
    Opt("nrho", int, FunctionalParams.n_rho, "mollifier radius in pixels"),
    Opt("z", float, FunctionalParams.z, "log-norm bound of the feasible set"),
    Opt("epsilon", float, FunctionalParams.epsilon, "eigenvalue floor of the projection"),
    Opt("iters", int, SolverConfig.max_iters, "maximum gradient iterations"),
    Opt("init-step", float, SolverConfig.init_step,
        "fresh line searches (the first, and one before a run stops) start at 2 x init-step"),
    Opt("rel-tol", float, SolverConfig.rel_tol, "relative decrease stopping tolerance"),
]


def _add_opts(parser: argparse.ArgumentParser, opts: list[Opt]):
    for opt in opts:
        parser.add_argument(f"--{opt.name}", metavar="V", default=None,
                            help=f"{opt.help} (default: {opt.default})")


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


def _resolve(opts: list[Opt], args: argparse.Namespace) -> dict[str, object]:
    """Merge flags over config-file entries over defaults; reject unknown keys."""
    parser = args.parser
    entries: dict[str, str] = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="ascii") as fh:
            text = fh.read()
        try:
            entries = _parse_config_text(text, args.config)
        except ValueError as exc:
            parser.error(str(exc))
        unknown = set(entries) - {opt.name for opt in opts}
        if unknown:
            parser.error(f"unknown config key(s): {', '.join(sorted(unknown))}")
    values: dict[str, object] = {}
    for opt in opts:
        raw = getattr(args, opt.name.replace("-", "_"))
        if raw is None:
            raw = entries.get(opt.name)
        if raw is None:
            values[opt.name] = opt.default
            continue
        try:
            values[opt.name] = opt.convert(raw)
        except ValueError as exc:
            parser.error(f"--{opt.name}: {exc}")
    return values


def _functional_params(values: dict[str, object]) -> FunctionalParams:
    return FunctionalParams(p=values["p"], s=values["s"], alpha=values["alpha"],
                            beta=values["beta"], l=values["l"],
                            n_rho=values["nrho"], z=values["z"],
                            epsilon=values["epsilon"])


def _solver_config(values: dict[str, object]) -> SolverConfig:
    return SolverConfig(max_iters=values["iters"], init_step=values["init-step"],
                        rel_tol=values["rel-tol"])


def _write_json(obj, path: str):
    _write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


# ---- commands ----

def cmd_generate(args: argparse.Namespace) -> int:
    values = _resolve(_GENERATE_OPTS, args)
    phantom = _PHANTOMS[values["phantom"]](values["n"])
    spec = NoiseSpec(values["sigma2"], values["seed"])
    dwis = apply_noise(simulate_dwis(phantom, values["b"], values["a0"]), spec)
    noisy = fit_field(dwis, values["epsilon"], values["z"])
    os.makedirs(args.out, exist_ok=True)
    write_field(phantom, os.path.join(args.out, "original.dtf"))
    write_field(noisy, os.path.join(args.out, "noisy.dtf"))
    names = ["original.dtf", "noisy.dtf"]
    if args.write_dwis:
        write_dwis(dwis, os.path.join(args.out, "dwis.dwi"))
        names.append("dwis.dwi")
    _write_json({"command": "generate", **values},
                os.path.join(args.out, "provenance.json"))
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
    values = _resolve(_SOLVE_OPTS, args)
    data = read_field(args.input)
    if args.masked:
        mask = read_mask(args.mask)
    else:
        mask = Mask.full(data.height, data.width)
    params = _functional_params(values)
    config = _solver_config(values)
    if args.sweep is None:
        runs = [(None, params)]
    else:
        runs = [(tok, replace(params, alpha=float(tok)))
                for tok in _parse_sweep(args.sweep, args.parser)]
    default_report = args.report is None
    for token, run_params in runs:
        out_path = args.out if token is None else _suffixed(args.out, token)
        report_path = f"{out_path}.report.json" if default_report else (
            args.report if token is None else _suffixed(args.report, token))
        rec, report = solve(data, mask, run_params,
                            objective=_OBJECTIVES[values["objective"]], config=config)
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
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # from argparse: 2 after a usage error, 0 after --help
        return exc.code
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, RuntimeError, OSError) as exc:  # LineSearchError is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
