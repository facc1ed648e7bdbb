"""Command-line frontend with machine-readable JSON/CSV output.

Commands: eval | scan | bounds | graph | verify.  Every numeric result is
emitted together with a provenance label ("certified-analytic",
"numerical-scan" or "formula").  Defaults come from built-ins, overridden
by an optional key=value config file (path in SPECTRAL_CHROMA_CONFIG),
overridden in turn by flags.

Exit codes: 0 ok, 2 usage or malformed input, 3 tolerance not reached,
4 degenerate input, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .bounds import CERTIFIED, SCANNED, BoundReport, compare, hoffman_finite, read_edge_list
from .errors import (
    DomainError,
    EdgeListError,
    EdgelessGraphError,
    PreconditionViolation,
    ToleranceNotReached,
)
from .geometry import Point
from .quadrature import QuadratureSpec
from .spectrum import REFINE_XTOL, _scan, verify_eigenfunction
from .spherical import SpectralParameter, eigenvalue, envelope

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TOLERANCE = 3
EXIT_DEGENERATE = 4
EXIT_VERIFY_FAILED = 5

CONFIG_ENV_VAR = "SPECTRAL_CHROMA_CONFIG"
VERIFY_THRESHOLD = 1e-6

FORMULA = "formula"

_CONFIG_KEYS = {
    "abs_tol": float,
    "max_subdivisions": int,
    "oscillation_panel_factor": float,
    "s_max": float,
    "step": float,
    "n": int,
}


def _load_config() -> dict:
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise DomainError(f"config line {line_no}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise DomainError(f"config line {line_no}: unknown key {key!r}")
            try:
                cfg[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise DomainError(f"config line {line_no}: bad value {value!r} for {key}") from None
    return cfg


def _quadrature(cfg: dict, abs_tol_flag: float | None = None) -> QuadratureSpec:
    base = QuadratureSpec()
    return QuadratureSpec(
        abs_tol=abs_tol_flag if abs_tol_flag is not None else cfg.get("abs_tol", base.abs_tol),
        max_subdivisions=cfg.get("max_subdivisions", base.max_subdivisions),
        oscillation_panel_factor=cfg.get(
            "oscillation_panel_factor", base.oscillation_panel_factor
        ),
    )


def _num(value, provenance: str) -> dict:
    return {"value": value, "provenance": provenance}

def _quad_meta(quad: QuadratureSpec) -> dict:
    return {
        "abs_tol": quad.abs_tol,
        "max_subdivisions": quad.max_subdivisions,
        "oscillation_panel_factor": quad.oscillation_panel_factor,
        "version": __version__,
    }


def _emit_json(record: dict):
    print(json.dumps(record, indent=2))


def _require_positive(name: str, value: float):
    if not value > 0.0:
        raise DomainError(f"{name} must be > 0, got {value}")


def _parameter(args) -> SpectralParameter:
    if args.s is not None:
        return SpectralParameter.principal(args.s)
    return SpectralParameter.complementary(args.sigma)


def _parse_base(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"--base must be 'x,y', got {text!r}")
    try:
        x, y = float(parts[0]), float(parts[1])
    except ValueError:
        raise DomainError(f"--base must be 'x,y' with real coordinates, got {text!r}") from None
    return Point(x, y)


def _cmd_eval(args) -> int:
    _require_positive("--r", args.r)
    cfg = _load_config()
    quad = _quadrature(cfg, args.tol)
    param = _parameter(args)
    value = eigenvalue(param, args.r, quad)
    inputs = {"r": args.r}
    inputs["s" if param.kind == "principal" else "sigma"] = param.sign * param.value
    _emit_json({
        "command": "eval",
        "inputs": inputs,
        "results": {
            "value": _num(value, SCANNED),
            "envelope": _num(envelope(args.r), FORMULA),
        },
        "meta": _quad_meta(quad),
    })
    return EXIT_OK


def _cmd_scan(args) -> int:
    _require_positive("--r", args.r)
    cfg = _load_config()
    quad = _quadrature(cfg)
    s_max = args.s_max if args.s_max is not None else cfg.get("s_max")
    step = args.step if args.step is not None else cfg.get("step", 0.05)
    summary, grid, values = _scan(args.r, s_max, step, quad)

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
        _emit_json(record)
        return EXIT_OK
    # CSV: summary as a comment line, then plot-ready grid rows
    print("# " + json.dumps(record, separators=(",", ":")))
    print("s,value")
    if not summary.degenerate:
        for s, v in zip(grid, values):
            print(f"{float(s)!r},{float(v)!r}")
    return EXIT_OK


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


def _cmd_bounds(args) -> int:
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
        _emit_json(record)
        return EXIT_OK
    fields = [
        ("r", report.r),
        ("ind_ratio_exact", report.ind_ratio_exact),
        ("ind_ratio_relaxed", report.ind_ratio_relaxed),
        ("chi_lower", report.chi_lower),
        ("pp_chi_upper", report.pp_chi_upper),
        ("m_used", report.m_used),
        ("m_provenance", report.m_provenance),
        ("ind_ratio_vacuous", report.ind_ratio_vacuous),
        ("chi_lower_vacuous", report.chi_lower_vacuous),
        ("nevo_lambda", report.nevo.lam if report.nevo else None),
        ("nevo_c", report.nevo.c_exponent if report.nevo else None),
        ("nevo_beta", report.nevo.beta if report.nevo else None),
        ("nevo_alpha_bound", report.nevo.alpha_bound if report.nevo else None),
        ("nevo_winner", report.nevo.winner if report.nevo else None),
    ]
    print(",".join(name for name, _ in fields))
    print(",".join(_csv_cell(value) for _, value in fields))
    return EXIT_OK


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cmd_graph(args) -> int:
    adjacency = read_edge_list(args.input)
    result = hoffman_finite(adjacency, regular=args.regular)
    _emit_json({
        "command": "graph",
        "inputs": {"input": args.input, "n": result.n, "regular": args.regular},
        "results": {
            "M": _num(result.M, SCANNED),
            "m": _num(result.m, SCANNED),
            "alpha_bound": _num(result.alpha_bound, FORMULA),
            "chi_bound": _num(result.chi_bound, FORMULA),
        },
        "meta": {"version": __version__},
    })
    return EXIT_OK


def _cmd_verify(args) -> int:
    _require_positive("--r", args.r)
    cfg = _load_config()
    quad = _quadrature(cfg)
    n_points = args.n if args.n is not None else cfg.get("n", 2048)
    param = _parameter(args)
    base = _parse_base(args.base)
    residual = verify_eigenfunction(param, args.r, base, n_points, quad)
    passed = residual < VERIFY_THRESHOLD
    inputs = {"r": args.r, "n": n_points, "base": args.base}
    inputs["s" if param.kind == "principal" else "sigma"] = param.sign * param.value
    _emit_json({
        "command": "verify",
        "inputs": inputs,
        "results": {
            "residual": _num(residual, SCANNED),
            "threshold": _num(VERIFY_THRESHOLD, FORMULA),
            "passed": passed,
        },
        "meta": _quad_meta(quad),
    })
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _add_parameter_flags(sub: argparse.ArgumentParser):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--s", type=float, help="principal spectral parameter")
    group.add_argument("--sigma", type=float, help="complementary parameter, |sigma| <= 1/2")


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
    p_eval.add_argument("--tol", type=float, help="absolute quadrature tolerance")
    p_eval.set_defaults(handler=_cmd_eval)

    p_scan = sub.add_parser("scan", help="scan the principal series for its minimum")
    p_scan.add_argument("--r", type=float, required=True)
    p_scan.add_argument("--s-max", dest="s_max", type=float, help="scan window end (default max(100, 40/r))")
    p_scan.add_argument("--step", type=float, help="grid step (default 0.05)")
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
    p_verify.add_argument("--n", type=int, help="circle sample count (default 2048)")
    p_verify.add_argument("--base", default="0.0,1.0", help="base point as 'x,y' (default origin)")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (DomainError, PreconditionViolation, EdgeListError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EdgelessGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ToleranceNotReached as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
