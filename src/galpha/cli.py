"""Command-line surface: verify, render, gen, norms.

verify and norms take only a spec and --out, so each report is a function
of its spec.  Exit codes: 0 = pass, 1 = a check failed, 2 = malformed
input, such as a size (--atoms, --samples) too large to allocate.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .complexfn import ConvergenceError
from .family import _PATH_LIMIT, AtomicMeasure
from .harmonic import HarmonicMap
from .schwarz import norms
from .specfile import (FunctionSpec, SpecFileError, dumps_spec,
                       load_function_spec, save_function_spec)
from .verify import VerifyReport, norm_checks, run_verification

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galpha",
        description="Verify, analyze, and render members of the disk family "
                    "defined by Re(z h''(z)/(alpha h'(z))) < 1/2.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification battery")
    p_verify.add_argument("spec", help="path to a function spec file")
    p_verify.add_argument("--out", default=None,
                          help="machine-readable report path "
                               "(default: <spec>.report.json beside the spec)")

    p_render = sub.add_parser("render", help="export an image-circle curve")
    p_render.add_argument("spec", help="path to a function spec file")
    p_render.add_argument("--radius", type=float, default=0.99,
                          help="circle radius (<= 1 - 1e-6, default 0.99)")
    p_render.add_argument("--samples", type=int, default=512,
                          help="samples along the circle (>= 4, default 512)")
    p_render.add_argument("--format", choices=("csv", "svg"), default="csv")
    p_render.add_argument("--out", required=True, help="output file path")

    p_gen = sub.add_parser("gen", help="generate a reproducible random spec")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--atoms", type=int, required=True, metavar="M",
                       help="number of atoms (>= 1)")
    p_gen.add_argument("--alpha", type=float, required=True)
    p_gen.add_argument("--out", required=True, help="spec file to write")

    p_norms = sub.add_parser("norms", help="pre-Schwarzian/Schwarzian norm report")
    p_norms.add_argument("spec", help="path to a function spec file")
    p_norms.add_argument("--out", default=None, help="optional JSON report path")

    return parser


def _emit(report: VerifyReport, out: str | Path | None) -> int:
    """Print the report, write its JSON to `out` if given, return the exit code."""
    print(report.render_text())
    if out:
        Path(out).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


def cmd_verify(args: argparse.Namespace) -> int:
    spec = load_function_spec(args.spec)
    out = args.out or Path(args.spec).with_name(Path(args.spec).stem + ".report.json")
    return _emit(run_verification(spec), out)


def cmd_render(args: argparse.Namespace) -> int:
    spec = load_function_spec(args.spec)
    if not 0.0 < args.radius <= _PATH_LIMIT:
        raise SpecFileError("radius must lie in (0, 1 - 1e-6]")
    if args.samples < 4:
        raise SpecFileError("samples must be at least 4")
    theta = 2.0 * np.pi * np.arange(args.samples) / args.samples
    z = args.radius * np.exp(1j * theta)
    curve = (spec.member.h(z) if spec.dilatation is None else
             HarmonicMap(analytic_part=spec.member, dilatation=spec.dilatation).evaluate(z))
    if args.format == "csv":
        lines = ["theta,re,im"]
        lines += [f"{float(t)!r},{float(w.real)!r},{float(w.imag)!r}"
                  for t, w in zip(theta, curve)]
        Path(args.out).write_text("\n".join(lines) + "\n")
    else:
        Path(args.out).write_text(_svg_document(curve))
    return EXIT_PASS


def _svg_document(curve: np.ndarray) -> str:
    """Single-path SVG 1.1 document: the closed polyline fit to 1000 x 1000."""
    xs, ys = curve.real, curve.imag
    span = max(float(xs.max() - xs.min()), float(ys.max() - ys.min()), 1e-12)
    scale = 1000.0 / span
    x0 = (1000.0 - scale * (xs.max() - xs.min())) / 2.0 - scale * xs.min()
    # flip the imaginary axis so the curve renders in standard orientation
    y0 = 1000.0 - ((1000.0 - scale * (ys.max() - ys.min())) / 2.0 - scale * ys.min())
    px = x0 + scale * xs
    py = y0 - scale * ys
    steps = [f"M {px[0]:.4f},{py[0]:.4f}"]
    steps += [f"L {x:.4f},{y:.4f}" for x, y in zip(px[1:], py[1:])]
    steps.append(f"L {px[0]:.4f},{py[0]:.4f} Z")  # close: first point repeated
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'viewBox="0 0 1000 1000">\n'
            f'<path d="{" ".join(steps)}" fill="none" stroke="black"/>\n'
            "</svg>\n")


def cmd_gen(args: argparse.Namespace) -> int:
    if args.atoms < 1:
        raise SpecFileError("--atoms must be at least 1")
    rng = np.random.default_rng(args.seed)
    for _ in range(64):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, args.atoms))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
        if args.atoms == 1 or gaps.min() > 1e-6:
            break
    else:  # pragma: no cover - vanishing probability for sane atom counts
        raise SpecFileError("could not draw distinct atom angles")
    weights = rng.dirichlet(np.ones(args.atoms))
    measure = AtomicMeasure(angles=angles, weights=weights)
    spec = FunctionSpec(alpha=args.alpha, measure=measure)
    save_function_spec(spec, args.out)
    print(dumps_spec(spec), end="")
    return EXIT_PASS


def cmd_norms(args: argparse.Namespace) -> int:
    sch = norms(load_function_spec(args.spec).member)
    return _emit(VerifyReport(checks=norm_checks(), schwarz=sch, recovered_atoms=None),
                 args.out)


_COMMANDS = {
    "verify": cmd_verify,
    "render": cmd_render,
    "gen": cmd_gen,
    "norms": cmd_norms,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # SpecFileError is a ValueError
    except (ValueError, ConvergenceError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
