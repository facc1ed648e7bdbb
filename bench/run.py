"""Benchmark of spectral-chroma; run from the root of a source checkout:

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Workloads: cli-mix, scan-sweep, verify-circle (see bench/README.md).
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
The package is imported from ./src; if that is missing the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = BENCH_DIR / "out"
# one cold set-up swings by about 10%, and the machine's speed drifts over
# tens of seconds; the median of seven set-ups, three before the measuring
# worker, its own, and three after it, repeats far better
SETUP_SAMPLES_AROUND = 3
# BLAS and OpenMP pools default to one thread per core and then contend
# on a small machine; every process of the benchmark uses one thread
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
_TIMEOUT_S = 170.0


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in _THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env.pop("SPECTRAL_CHROMA_CONFIG", None)  # built-in defaults only
    return env


class Worker:
    """A worker process; `ready` is the time from spawn to its READY line."""

    def __init__(self, args, root: Path, env: dict, deadline: float, setup_only: bool):
        cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", str(root), "--out", str(OUT_DIR)]
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.ready = time.perf_counter() - t0
        if line.strip() != "READY":
            self.finish()
            raise RuntimeError(f"{args.workload} worker did not finish set-up")

    def finish(self) -> str:
        """Wait for the worker and return the rest of its stdout."""
        try:
            out, _ = self.proc.communicate(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker overran the run's time limit") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out


def _setup_only(args, root: Path, env: dict, deadline: float) -> float:
    worker = Worker(args, root, env, deadline, setup_only=True)
    worker.finish()
    return worker.ready


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd().resolve()
    if not (root / "src" / "spectral_chroma" / "__init__.py").is_file():
        print(f"error: no package source at {root / 'src' / 'spectral_chroma'}; "
              "run from the root of a spectral-chroma checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = _env(root)
    deadline = time.monotonic() + _TIMEOUT_S

    try:
        # untimed first import: compiles bytecode and fills the file cache
        subprocess.run([sys.executable, "-c", "import spectral_chroma"], cwd=root, env=env,
                       check=True, timeout=120)
        around = 0 if args.trace else SETUP_SAMPLES_AROUND
        setups = [_setup_only(args, root, env, deadline) for _ in range(around)]
        worker = Worker(args, root, env, deadline, setup_only=False)
        setups.append(worker.ready)
        result = json.loads(worker.finish().strip().splitlines()[-1])
        setups += [_setup_only(args, root, env, deadline) for _ in range(around)]
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
