"""The three workloads: their inputs, operations and output checks.

A workload runs in rounds; every round attempts the same operations, so a
run always attempts whole rounds.  Inputs and check points come from the
seed through random.Random.  Checks import `reference` (and with it
mpmath) only when called, after the timed loop, so neither weighs on
set-up or on the timed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

# One operation each; the README explains the choice of every case.
CLI_COMMANDS = [
    ["eval", "--r", "2", "--s", "1"],
    ["eval", "--r", "3", "--sigma", "0.5"],
    ["scan", "--r", "4"],
    ["scan", "--r", "10", "--format", "csv"],
    ["bounds", "--r", "10", "--lambda", "0.1", "--c", "0.5"],
    ["verify", "--r", "1.5", "--s", "2", "--n", "2048", "--base", "0.7,2.0"],
    ["graph", "--input", None],  # the circulant edge list, written at set-up
]
SWEEP_RADII = [0.1, 0.5, 2.0, 4.0, 7.0, 10.0, 15.0, 20.0, 30.0]
CIRCLE_N = 2048
# (radius, base point x, y); bases lie off the origin i
CIRCLE_SITES = [(1.5, 0.7, 2.0), (5.0, -0.3, 0.8)]
CIRCLE_PARAMS = [("principal", 0.5), ("principal", 2.0), ("principal", 20.0), ("complementary", 0.3)]

GRAPH_N = 1000
GRAPH_DEGREE_HALF = 4  # connection-set size; the degree is twice this
CSV_SAMPLES = 6
CIRCLE_SAMPLES = 2


def _delta(rng: random.Random) -> float:
    """Offset from a scanned minimiser at which mpmath must not undercut it."""
    return rng.uniform(1e-3, 2e-2)


class Workload:
    """Defaults for a workload that runs in the worker's own process."""

    def cleanup(self):
        pass

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CliMix(Workload):
    """Fresh `python -m spectral_chroma` processes cycling through the README commands."""

    name = "cli-mix"

    def __init__(self, seed: int, root: Path, out_dir: Path):
        rng = random.Random(seed)
        self.root = root
        self.connections = sorted(rng.sample(range(1, GRAPH_N // 2), GRAPH_DEGREE_HALF))
        self.csv_rows = sorted(rng.sample(range(2001), CSV_SAMPLES))
        self.scan_deltas = {4.0: _delta(rng), 10.0: _delta(rng)}
        self.edge_path = out_dir / f"circulant-{seed}-{os.getpid()}.txt"
        self.commands = [[str(self.edge_path.relative_to(root)) if a is None else a for a in argv]
                         for argv in CLI_COMMANDS]
        self.child_rss_kb = 0

    def setup(self):
        lines = [f"n {GRAPH_N}"]
        lines += [f"{i} {(i + d) % GRAPH_N}" for i in range(GRAPH_N) for d in self.connections]
        self.edge_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = self._spawn(self.commands[0])
        if code != 0:
            raise RuntimeError(f"warm-up command failed with exit {code}: {err}")
        self.child_rss_kb = 0

    def peak_rss_kb(self) -> int:
        """Peak resident set of the largest command process since set-up."""
        return self.child_rss_kb

    def cleanup(self):
        self.edge_path.unlink(missing_ok=True)

    def _spawn(self, argv):
        proc = subprocess.Popen([sys.executable, "-m", "spectral_chroma", *argv], cwd=self.root,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out = proc.stdout.read()
            err = proc.stderr.read()
        finally:
            # reap with wait4 to read the child's own peak resident set
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out, err

    def round(self):
        return [lambda argv=argv: self._spawn(argv) for argv in self.commands]

    def replay_round(self):
        """The same commands through main(argv) in this process, for tracing."""
        from spectral_chroma import cli

        def replay(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue(), ""

        return [lambda argv=argv: replay(argv) for argv in self.commands]

    def check(self, index: int, output) -> list[str]:
        import reference as ref

        code, out, err = output
        argv = self.commands[index]
        label = " ".join(argv)
        if code != 0:
            return [f"{label}: exit {code}: {err.strip()[-300:]}"]
        if argv[0] == "scan" and "csv" in argv:
            return self._check_csv(label, out)
        record = json.loads(out)
        res = record["results"]
        if argv[0] == "eval":
            r = float(argv[2])
            kind = "principal" if argv[3] == "--s" else "complementary"
            problems = ref.check_eigenvalue(label, kind, float(argv[4]), r, res["value"]["value"])
            if argv[3:5] == ["--sigma", "0.5"] and abs(res["value"]["value"] - 1.0) > ref.ABS_TOL:
                problems.append(f"{label}: sigma = 1/2 gave {res['value']['value']!r}, not 1")
            if not ref.close(res["envelope"]["value"], -ref.floor(r)):
                problems.append(f"{label}: envelope {res['envelope']['value']!r}")
            return problems
        if argv[0] == "scan":
            return self._check_scan_record(label, record)
        if argv[0] == "bounds":
            want = ref.bounds_closed_form(10.0, 0.1, 0.5)
            got = {key: res[key]["value"] for key in ("ind_ratio_exact", "ind_ratio_relaxed", "chi_lower", "m_used")}
            got["beta"] = res["nevo"]["beta"]["value"]
            got["alpha_bound"] = res["nevo"]["alpha_bound"]["value"]
            problems = [f"{label}: {key} {got[key]!r}, closed form {want[key]!r}"
                        for key in got if not ref.close(got[key], want[key], rel=1e-12)]
            if res["pp_chi_upper"]["value"] != want["pp_chi_upper"]:
                problems.append(f"{label}: pp_chi_upper {res['pp_chi_upper']['value']!r}")
            if res["nevo"]["winner"] != want["winner"]:
                problems.append(f"{label}: winner {res['nevo']['winner']!r}")
            return problems
        if argv[0] == "verify":
            residual = res["residual"]["value"]
            if residual < ref.VERIFY_THRESHOLD and res["passed"] is True:
                return []
            return [f"{label}: residual {residual!r}, passed {res['passed']!r}"]
        # graph: extremes of sum_{d in S} 2 cos(2 pi k d / n) over k
        big, small = ref.circulant_extremes(GRAPH_N, self.connections)
        M, m = res["M"]["value"], res["m"]["value"]
        problems = []
        if record["inputs"]["n"] != GRAPH_N:
            problems.append(f"{label}: n {record['inputs']['n']!r}")
        if abs(M - big) > 1e-9 or abs(m - small) > 1e-9:
            problems.append(f"{label}: M, m = {M!r}, {m!r}; closed form {big!r}, {small!r}")
        if not (ref.close(res["alpha_bound"]["value"], -small / (big - small), rel=1e-9)
                and ref.close(res["chi_bound"]["value"], (big - small) / -small, rel=1e-9)):
            problems.append(f"{label}: alpha/chi bounds disagree with M, m")
        return problems

    def _check_scan_record(self, label, record) -> list[str]:
        import reference as ref

        r = record["inputs"]["r"]
        res = record["results"]
        return ref.check_scan(label, r, res["m_numeric"]["value"], res["m_analytic"]["value"],
                              res["argmin_s"]["value"], record["inputs"]["s_max"],
                              res["degenerate"], self.scan_deltas[r])

    def _check_csv(self, label, out) -> list[str]:
        import reference as ref

        lines = out.splitlines()
        if not lines or not lines[0].startswith("# ") or lines[1:2] != ["s,value"]:
            return [f"{label}: malformed CSV header"]
        record = json.loads(lines[0][2:])
        problems = self._check_scan_record(label, record)
        r, s_max, step = record["inputs"]["r"], record["inputs"]["s_max"], record["inputs"]["step"]
        rows = [tuple(map(float, line.split(","))) for line in lines[2:]]
        expected = int(math.floor(s_max / step + 0.5)) + 1
        if len(rows) != expected:
            return problems + [f"{label}: {len(rows)} rows, expected {expected}"]
        bound = -ref.floor(r) + ref.ABS_TOL
        for k, (s, v) in enumerate(rows):
            if abs(s - k * step) > 1e-9 or not abs(v) <= bound:
                problems.append(f"{label}: row {k} ({s!r}, {v!r}) off the grid or above the envelope")
                break
        for k in self.csv_rows:
            problems += ref.check_eigenvalue(f"{label} row {k}", "principal", rows[k][0], r, rows[k][1])
        return problems


class ScanSweep(Workload):
    """scan_principal with default settings across radii straddling the fallback band."""

    name = "scan-sweep"

    def __init__(self, seed: int, root: Path, out_dir: Path):
        rng = random.Random(seed)
        self.deltas = {r: _delta(rng) for r in SWEEP_RADII}

    def setup(self):
        from spectral_chroma import scan_principal

        scan_principal(4.0)

    def round(self):
        import spectral_chroma

        return [lambda: [spectral_chroma.scan_principal(r) for r in SWEEP_RADII]]

    def check(self, index: int, output) -> list[str]:
        import reference as ref

        problems = []
        for r, summary in zip(SWEEP_RADII, output):
            problems += ref.check_scan(f"scan r={r}", r, summary.m_numeric, summary.m_analytic,
                                       summary.argmin_s, summary.s_max_scanned, summary.degenerate,
                                       self.deltas[r])
        return problems


class VerifyCircle(Workload):
    """verify_eigenfunction at n = 2048 over fixed parameters, radii and bases."""

    name = "verify-circle"

    def __init__(self, seed: int, root: Path, out_dir: Path):
        rng = random.Random(seed)
        self.cases = [(kind, value, r, x, y) for r, x, y in CIRCLE_SITES for kind, value in CIRCLE_PARAMS]
        self.samples = [sorted(rng.sample(range(CIRCLE_N), CIRCLE_SAMPLES)) for _ in self.cases]
        self._spot = None

    def setup(self):
        from spectral_chroma import Point, SpectralParameter, verify_eigenfunction

        verify_eigenfunction(SpectralParameter.principal(2.0), 1.5, Point(0.7, 2.0), 64)

    def _calls(self):
        import spectral_chroma as sc

        return [(sc.SpectralParameter(kind, value), r, sc.Point(x, y)) for kind, value, r, x, y in self.cases]

    def round(self):
        import spectral_chroma

        calls = self._calls()
        return [lambda: [spectral_chroma.verify_eigenfunction(p, r, base, CIRCLE_N) for p, r, base in calls]]

    def check(self, index: int, output) -> list[str]:
        import reference as ref

        problems = [f"verify {case}: residual {res!r}" for case, res in zip(self.cases, output)
                    if not res < ref.VERIFY_THRESHOLD]
        if self._spot is None:
            self._spot = self._spot_checks()
        return problems + self._spot

    def _spot_checks(self) -> list[str]:
        """The quantities a residual compares, at seeded circle points.

        A zero residual also follows from a wrong eigenvalue that is wrong
        everywhere alike, so the eigenvalues at the radius, at the base and
        at sampled circle points are checked against mpmath, and each
        sampled point is checked to lie at distance r from its base.
        """
        import mpmath

        import reference as ref
        import spectral_chroma as sc

        problems = []
        for (kind, value, r, x, y), (p, _, base), picks in zip(self.cases, self._calls(), self.samples):
            label = f"verify {kind} {value} r={r}"
            d0 = sc.distance(base, sc.ORIGIN)
            problems += ref.check_eigenvalue(label, kind, value, r, sc.eigenvalue(p, r))
            problems += ref.check_eigenvalue(label, kind, value, d0, sc.eigenvalue(p, d0))
            for j in picks:
                z = sc.circle_point(base, r, j * 2.0 * math.pi / CIRCLE_N)
                rho = (mpmath.mpf(z.x) - x) ** 2 + (mpmath.mpf(z.y) - y) ** 2
                to_base = float(mpmath.acosh(1 + rho / (2 * mpmath.mpf(z.y) * y)))
                if abs(to_base - r) > 1e-9 * r:
                    problems.append(f"{label}: point {j} at distance {to_base!r} from its base")
                d = sc.distance(z, sc.ORIGIN)
                problems += ref.check_eigenvalue(f"{label} point {j}", kind, value, d, sc.eigenvalue(p, d))
        return problems


WORKLOADS = {w.name: w for w in (CliMix, ScanSweep, VerifyCircle)}
