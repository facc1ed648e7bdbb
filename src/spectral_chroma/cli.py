"""Command-line frontend with machine-readable JSON/CSV output.

Commands: eval | scan | bounds | graph | verify.  Every numeric result is
emitted together with a provenance label ("certified-analytic",
"numerical-scan" or "formula").  Settings come from flags only; the
environment sets nothing.  eval, scan and verify take --tol, the
QuadratureSpec abs_tol, and their JSON meta is the QuadratureSpec used.
The bounds CSV row is the fields of BoundReport and NevoComparison.
A reader that closes stdout early (``| head``) is not an error.

Exit codes: 0 ok, 2 usage or malformed input, 3 tolerance not reached,
4 degenerate input, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

from . import __version__
from .bounds import CERTIFIED, SCANNED, BoundReport, NevoComparison, compare, hoffman_finite, read_edge_list
from .errors import (
    DomainError,
    EdgeListError,
    EdgelessGraphError,
    PreconditionViolation,
    ToleranceNotReached,
)
from .geometry import Point
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec
from .spectrum import _GRID_STEP, REFINE_XTOL, scan_principal, verify_eigenfunction
from .spherical import PRINCIPAL, SpectralParameter, eigenvalue, envelope

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TOLERANCE = 3
EXIT_DEGENERATE = 4
EXIT_VERIFY_FAILED = 5

VERIFY_THRESHOLD = 1e-6

FORMULA = "formula"

# CSV names of the NevoComparison fields whose name differs, after "nevo_"
_NEVO_CSV_NAMES = {"lam": "lambda", "c_exponent": "c"}

_EXIT_CODES = {
    DomainError: EXIT_USAGE,
    PreconditionViolation: EXIT_USAGE,
    EdgeListError: EXIT_USAGE,
    OSError: EXIT_USAGE,  # graph --input names a missing or unreadable file
    EdgelessGraphError: EXIT_DEGENERATE,
    ToleranceNotReached: EXIT_TOLERANCE,
}


def _num(value, provenance: str) -> dict:
    return {"value": value, "provenance": provenance}


def _quad_meta(quad: QuadratureSpec) -> dict:
    return {**asdict(quad), "version": __version__}


def _json(record: dict) -> str:
    return json.dumps(record, indent=2) + "\n"


def _require_positive(name: str, value: float):
    if not value > 0.0:
        raise DomainError(f"{name} must be > 0, got {value}")


def _parameter(args) -> SpectralParameter:
    if args.s is not None:
        return SpectralParameter.principal(args.s)
    return SpectralParameter.complementary(args.sigma)


def _parameter_input(param: SpectralParameter) -> dict:
    """The parameter as its flag gave it, keyed by that flag's name."""
    return {"s" if param.kind == PRINCIPAL else "sigma": param.sign * param.value}


def _parse_base(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"--base must be 'x,y', got {text!r}")
    try:
        x, y = float(parts[0]), float(parts[1])
    except ValueError:
        raise DomainError(f"--base must be 'x,y' with real coordinates, got {text!r}") from None
    return Point(x, y)


def _cmd_eval(args) -> tuple[str, int]:
    _require_positive("--r", args.r)
    quad = DEFAULT_QUADRATURE if args.tol is None else QuadratureSpec(abs_tol=args.tol)
    param = _parameter(args)
    value = eigenvalue(param, args.r, quad)
    return _json({
        "command": "eval",
        "inputs": {"r": args.r, **_parameter_input(param)},
        "results": {
            "value": _num(value, SCANNED),
            "envelope": _num(envelope(args.r), FORMULA),
        },
        "meta": _quad_meta(quad),
    }), EXIT_OK


def _cmd_scan(args) -> tuple[str, int]:
    _require_positive("--r", args.r)
    quad = DEFAULT_QUADRATURE if args.tol is None else QuadratureSpec(abs_tol=args.tol)
    summary = scan_principal(args.r, args.s_max, args.step, quad)

    record = {
        "command": "scan",
        "inputs": {"r": args.r, "s_max": summary.s_max_scanned, "step": summary.grid_step},
        "results": {
            "M": _num(summary.M, CERTIFIED),
            "m_numeric": _num(summary.m_numeric, SCANNED),
            "m_analytic": _num(summary.m_analytic, CERTIFIED),
            "argmin_s": _num(summary.argmin_s, SCANNED),
            "degenerate": summary.degenerate,
        },
        "meta": {**_quad_meta(quad), "refine_xtol": REFINE_XTOL},
    }
    if args.format == "json":
        return _json(record), EXIT_OK
    # CSV: summary as a comment line, then plot-ready rows of the whole grid
    lines = ["# " + json.dumps(record, separators=(",", ":")), "s,value"]
    if not summary.degenerate:
        lines += [f"{float(s)!r},{float(v)!r}" for s, v in zip(summary.grid, summary.grid_values)]
    return "\n".join(lines) + "\n", EXIT_OK


def _bounds_results(report: BoundReport) -> dict:
    results = {
        "ind_ratio_exact": _num(report.ind_ratio_exact, report.m_provenance),
        "ind_ratio_relaxed": _num(report.ind_ratio_relaxed, FORMULA),
        "chi_lower": _num(report.chi_lower, FORMULA),
        "m_used": _num(report.m_used, report.m_provenance),
        "ind_ratio_vacuous": report.ind_ratio_vacuous,
        "chi_lower_vacuous": report.chi_lower_vacuous,
    }
    if report.pp_chi_upper is not None:
        results["pp_chi_upper"] = _num(report.pp_chi_upper, FORMULA)
    if report.nevo is not None:
        results["nevo"] = {
            "beta": _num(report.nevo.beta, FORMULA),
            "alpha_bound": _num(report.nevo.alpha_bound, FORMULA),
            "winner": report.nevo.winner,
        }
    return results


def _bounds_row(report: BoundReport) -> dict:
    """BoundReport's fields by name, then NevoComparison's as nevo_ columns."""
    row = asdict(report)
    nevo = row.pop("nevo") or dict.fromkeys(f.name for f in fields(NevoComparison))
    row.update(("nevo_" + _NEVO_CSV_NAMES.get(name, name), value) for name, value in nevo.items())
    return row


def _cmd_bounds(args) -> tuple[str, int]:
    _require_positive("--r", args.r)
    report = compare(args.r, args.lam, args.c)
    inputs = {"r": args.r}
    if args.lam is not None:
        inputs["lambda"] = args.lam
    if args.c is not None:
        inputs["c"] = args.c
    record = {
        "command": "bounds",
        "inputs": inputs,
        "results": _bounds_results(report),
        "meta": {"version": __version__},
    }
    if args.format == "json":
        return _json(record), EXIT_OK
    row = _bounds_row(report)
    return ",".join(row) + "\n" + ",".join(map(_csv_cell, row.values())) + "\n", EXIT_OK


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cmd_graph(args) -> tuple[str, int]:
    adjacency = read_edge_list(args.input)
    result = hoffman_finite(adjacency, regular=args.regular)
    return _json({
        "command": "graph",
        "inputs": {"input": args.input, "n": result.n, "regular": args.regular},
        "results": {
            "M": _num(result.M, SCANNED),
            "m": _num(result.m, SCANNED),
            "alpha_bound": _num(result.alpha_bound, FORMULA),
            "chi_bound": _num(result.chi_bound, FORMULA),
        },
        "meta": {"version": __version__},
    }), EXIT_OK


def _cmd_verify(args) -> tuple[str, int]:
    _require_positive("--r", args.r)
    quad = DEFAULT_QUADRATURE if args.tol is None else QuadratureSpec(abs_tol=args.tol)
    param = _parameter(args)
    base = _parse_base(args.base)
    residual = verify_eigenfunction(param, args.r, base, args.n, quad)
    passed = residual < VERIFY_THRESHOLD
    return _json({
        "command": "verify",
        "inputs": {"r": args.r, "n": args.n, "base": args.base, **_parameter_input(param)},
        "results": {
            "residual": _num(residual, SCANNED),
            "threshold": _num(VERIFY_THRESHOLD, FORMULA),
            "passed": passed,
        },
        "meta": _quad_meta(quad),
    }), EXIT_OK if passed else EXIT_VERIFY_FAILED


def _add_parameter_flags(sub: argparse.ArgumentParser):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--s", type=float, help="principal spectral parameter")
    group.add_argument("--sigma", type=float, help="complementary parameter, |sigma| <= 1/2")


def _add_tol_flag(sub: argparse.ArgumentParser):
    sub.add_argument("--tol", type=float, help="absolute quadrature tolerance")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-chroma",
        description="Circle-averaging spectra and chromatic bounds for hyperbolic surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one averaging-operator eigenvalue")
    p_eval.add_argument("--r", type=float, required=True, help="circle radius, > 0")
    _add_parameter_flags(p_eval)
    _add_tol_flag(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_scan = sub.add_parser("scan", help="scan the principal series for its minimum")
    p_scan.add_argument("--r", type=float, required=True)
    p_scan.add_argument("--s-max", dest="s_max", type=float, help="scan window end (default max(100, 40/r))")
    p_scan.add_argument("--step", type=float, default=_GRID_STEP, help="grid step (default %(default)s)")
    _add_tol_flag(p_scan)
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    p_scan.set_defaults(handler=_cmd_scan)

    p_bounds = sub.add_parser("bounds", help="independence-ratio and chromatic bound report")
    p_bounds.add_argument("--r", type=float, required=True)
    p_bounds.add_argument("--lambda", dest="lam", type=float, help="Laplacian spectral gap for the comparison bound")
    p_bounds.add_argument("--c", type=float, help="decay exponent in [0,1), required when lambda < 1/4")
    p_bounds.add_argument("--format", choices=("json", "csv"), default="json")
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_graph = sub.add_parser("graph", help="finite-graph eigenvalue bound from an edge list")
    p_graph.add_argument("--input", required=True, help="edge-list file, 'u v' per line")
    p_graph.add_argument("--regular", action="store_true", help="require equal degrees")
    p_graph.set_defaults(handler=_cmd_graph)

    p_verify = sub.add_parser("verify", help="check the eigenfunction identity by circle averaging")
    p_verify.add_argument("--r", type=float, required=True)
    _add_parameter_flags(p_verify)
    p_verify.add_argument("--n", type=int, default=2048, help="circle sample count (default %(default)s)")
    p_verify.add_argument("--base", default="0.7,2.0", help="base point as 'x,y' (default 0.7,2.0; at i any "
                          "radial function passes); a negative x needs the form --base=-0.3,0.8")
    _add_tol_flag(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        output, code = args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    try:
        sys.stdout.write(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early and wants no more; send what is
        # still buffered, and the flush at exit, to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
