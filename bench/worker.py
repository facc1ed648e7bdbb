"""One measured process of the benchmark; started by run.py, not by hand.

Imports the package, builds the workload's inputs and warms up, then
writes READY on stdout.  With --setup-only it stops there.  Otherwise it
runs whole rounds until --seconds have passed, checks every output, and
writes one JSON line of results.  With --trace 1 it alternates plain and
traced rounds and reports per-layer figures instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import spectral_chroma

from tracing import PER_LAYER, Tracer, import_times, layer_metrics
from workloads import WORKLOADS


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _run(op):
    try:
        return op(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def _timed_rounds(make_round, seconds: float, outputs: list, times: list) -> float:
    """Run whole rounds; stop once another round would end past `seconds`
    by more than half its length, so runs last `seconds` on average."""
    start = time.perf_counter()
    rounds = 0
    while True:
        for index, op in enumerate(make_round()):
            t0 = time.perf_counter()
            result = _run(op)
            times.append(time.perf_counter() - t0)
            outputs.append((index, result))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 0.5 / rounds) >= seconds:
            return elapsed


def _check(workload, outputs) -> tuple[int, list[str]]:
    failed, problems = 0, []
    for index, (output, error) in outputs:
        found = [error] if error else workload.check(index, output)
        if found:
            failed += 1
            problems += found
    return failed, problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    package_dir = Path(spectral_chroma.__file__).resolve().parent
    if package_dir != (args.root / "src" / "spectral_chroma").resolve():
        print(f"error: spectral_chroma imported from {package_dir}, not from the checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, args.root, args.out)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = _traced(workload, args) if args.trace else _untraced(workload, args)
    finally:
        workload.cleanup()
    print(json.dumps(result), flush=True)
    return 0


def _untraced(workload, args) -> dict:
    outputs, times = [], []
    cpu0 = _cpu_s()
    wall = _timed_rounds(workload.round, args.seconds, outputs, times)
    cpu = _cpu_s() - cpu0
    rss_kb = workload.peak_rss_kb()
    failed, problems = _check(workload, outputs)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    ops = len(times)
    return {
        "correct": not problems,
        "attempted": ops,
        "failed": failed,
        "metrics": {
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": ops / wall, "unit": "1/s"},
            "cpu_s_per_op": {"value": cpu / ops, "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        },
    }


def _traced(workload, args) -> dict:
    from spectral_chroma import quadrature

    package_s, scipy_s = import_times(sys.executable, dict(os.environ), args.root)
    make_round = getattr(workload, "replay_round", workload.round)
    tracer = Tracer()
    outputs, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        times = []
        _timed_rounds(make_round, 0.0, outputs, times)
        plain.append(sum(times))
        tracer.install()
        times = []
        try:
            _timed_rounds(make_round, 0.0, outputs, times)
        finally:
            tracer.uninstall()
        traced.append(sum(times))
        if time.perf_counter() - start >= args.seconds:
            break
    ops_per_round = len(make_round())
    traced_ops = len(traced) * ops_per_round
    spans = tracer.arrays()
    tracer.save(args.out / f"trace-{args.workload}-{args.seed}-{os.getpid()}.npz")
    failed, problems = _check(workload, outputs)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    values = layer_metrics(spans, traced_ops, quadrature._NODES.size)
    values["import.package_s"] = package_s
    values["import.scipy_s"] = scipy_s
    values["trace.overhead_s_per_op"] = (statistics.median(traced) - statistics.median(plain)) / ops_per_round
    return {
        "correct": not problems,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
