"""Spans around the package's public functions, recorded from outside.

Each traced function is replaced, in every spectral_chroma module that
binds it, by a wrapper that records a span (name, start, end, parent) and
one count read from its arguments or result.  Spans stay in flat arrays
in memory until the run ends; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import subprocess
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name); counts are read by _COUNTERS
TRACED = [
    ("spectral_chroma.cli", "main", "cli.main"),
    ("spectral_chroma.spectrum", "scan_principal", "spectrum.scan_principal"),
    ("spectral_chroma.spectrum", "_golden_min", "spectrum.golden"),
    ("spectral_chroma.spectrum", "verify_eigenfunction", "spectrum.verify_eigenfunction"),
    ("spectral_chroma.spherical", "principal_grid", "spherical.principal_grid"),
    ("spectral_chroma.spherical", "eigenvalue", "spherical.eigenvalue"),
    ("spectral_chroma.quadrature", "integrate", "quadrature.integrate"),
    ("spectral_chroma.quadrature", "panel_rule", "quadrature.panel_rule"),
    ("spectral_chroma.geometry", "circle_point", "geometry.circle_point"),
    ("spectral_chroma.geometry", "distance", "geometry.distance"),
    ("spectral_chroma.bounds", "read_edge_list", "bounds.read_edge_list"),
    ("spectral_chroma.bounds", "hoffman_finite", "bounds.hoffman_finite"),
]
NAMES = [name for _, _, name in TRACED]
_ID = {name: i for i, name in enumerate(NAMES)}

# count kept per span: panels per panel_rule call, splits per integrate
# call, grid points per principal_grid call, 1 for a cli.main scan command
_COUNTERS = {
    "cli.main": lambda args, kwargs, result: int(bool(args and args[0] and args[0][0] == "scan")),
    "quadrature.panel_rule": lambda args, kwargs, result: int(np.size(args[1])),
    "quadrature.integrate": lambda args, kwargs, result: int(result[2]),
    "spherical.principal_grid": lambda args, kwargs, result: int(np.size(args[0])),
}

PER_LAYER = {
    "import.package_s": "s",
    "import.scipy_s": "s",
    "cli.self_s": "s",
    "cli.principal_grid_calls_per_scan": "count",
    "spectrum.scan_principal.self_s": "s",
    "spectrum.golden.eigenvalue_calls": "count",
    "spherical.principal_grid.calls": "count",
    "spherical.principal_grid.points": "count",
    "spherical.principal_grid.self_s": "s",
    "spherical.principal_grid.fallbacks": "count",
    "spherical.principal_grid.fallback_ratio": "ratio",
    "spherical.eigenvalue.calls": "count",
    "spherical.eigenvalue.self_s": "s",
    "quadrature.integrate.calls": "count",
    "quadrature.integrate.splits": "count",
    "quadrature.integrate.self_s": "s",
    "quadrature.panel_rule.calls": "count",
    "quadrature.panel_rule.panels": "count",
    "quadrature.panel_rule.nodes": "count",
    "quadrature.panel_rule.nodes_per_call": "count",
    "quadrature.panel_rule.self_s": "s",
    "spectrum.verify_eigenfunction.self_s": "s",
    "geometry.circle_point.calls": "count",
    "geometry.circle_point.self_s": "s",
    "geometry.distance.calls": "count",
    "geometry.distance.self_s": "s",
    "bounds.read_edge_list.self_s": "s",
    "bounds.hoffman_finite.self_s": "s",
    "trace.overhead_s_per_op": "s",
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = []
        self._patches = []

    def _wrap(self, span: str, fn):
        name_id = _ID[span]
        counter = _COUNTERS.get(span)
        names, parents, starts, ends, counts = self.name, self.parent, self.start, self.end, self.count
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            counts.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counts[idx] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every traced function at every package module binding it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "spectral_chroma" or key.startswith("spectral_chroma."))]
        for module_name, attr, span in TRACED:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue  # a layer renamed or removed later simply reads 0
            wrapper = self._wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())


def layer_metrics(spans: dict, ops: int, nodes_per_panel: int) -> dict:
    """Per-operation layer figures from the recorded spans."""
    name, parent, count = spans["name"], spans["parent"], spans["count"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.zeros(dur.size)
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def mask(span):
        return name == _ID[span]

    def calls(span):
        return int(mask(span).sum())

    def self_s(span):
        return float(self_time[mask(span)].sum()) / ops

    def total(span):
        return int(count[mask(span)].sum())

    def under(span, parent_span):
        return int((mask(span) & (parent_name == _ID[parent_span])).sum())

    # principal_grid calls made while a `scan` command ran in cli.main
    scan_grids = 0
    for idx in np.nonzero(mask("spherical.principal_grid"))[0]:
        up = parent[idx]
        while up >= 0 and name[up] != _ID["cli.main"]:
            up = parent[up]
        scan_grids += int(up >= 0 and count[up] == 1)
    scans = total("cli.main")
    points = total("spherical.principal_grid")
    fallbacks = under("spherical.eigenvalue", "spherical.principal_grid")
    panel_calls = calls("quadrature.panel_rule")
    panels = total("quadrature.panel_rule")
    return {
        "cli.self_s": self_s("cli.main"),
        "cli.principal_grid_calls_per_scan": scan_grids / scans if scans else 0.0,
        "spectrum.scan_principal.self_s": self_s("spectrum.scan_principal"),
        "spectrum.golden.eigenvalue_calls": under("spherical.eigenvalue", "spectrum.golden") / ops,
        "spherical.principal_grid.calls": calls("spherical.principal_grid") / ops,
        "spherical.principal_grid.points": points / ops,
        "spherical.principal_grid.self_s": self_s("spherical.principal_grid"),
        "spherical.principal_grid.fallbacks": fallbacks / ops,
        "spherical.principal_grid.fallback_ratio": fallbacks / points if points else 0.0,
        "spherical.eigenvalue.calls": calls("spherical.eigenvalue") / ops,
        "spherical.eigenvalue.self_s": self_s("spherical.eigenvalue"),
        "quadrature.integrate.calls": calls("quadrature.integrate") / ops,
        "quadrature.integrate.splits": total("quadrature.integrate") / ops,
        "quadrature.integrate.self_s": self_s("quadrature.integrate"),
        "quadrature.panel_rule.calls": panel_calls / ops,
        "quadrature.panel_rule.panels": panels / ops,
        "quadrature.panel_rule.nodes": panels * nodes_per_panel / ops,
        "quadrature.panel_rule.nodes_per_call": panels * nodes_per_panel / panel_calls if panel_calls else 0.0,
        "quadrature.panel_rule.self_s": self_s("quadrature.panel_rule"),
        "spectrum.verify_eigenfunction.self_s": self_s("spectrum.verify_eigenfunction"),
        "geometry.circle_point.calls": calls("geometry.circle_point") / ops,
        "geometry.circle_point.self_s": self_s("geometry.circle_point"),
        "geometry.distance.calls": calls("geometry.distance") / ops,
        "geometry.distance.self_s": self_s("geometry.distance"),
        "bounds.read_edge_list.self_s": self_s("bounds.read_edge_list"),
        "bounds.hoffman_finite.self_s": self_s("bounds.hoffman_finite"),
    }


def import_times(python: str, env: dict, cwd, samples: int = 3) -> tuple[float, float]:
    """Median package import time in a fresh interpreter, and its scipy share,
    both in seconds, from `python -X importtime`."""
    package, scipy = [], []
    for _ in range(samples):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import spectral_chroma"],
                              capture_output=True, text=True, env=env, cwd=cwd, timeout=60, check=True)
        pkg_us, scipy_us = _parse_importtime(proc.stderr)
        package.append(pkg_us * 1e-6)
        scipy.append(scipy_us * 1e-6)
    return float(np.median(package)), float(np.median(scipy))


def _parse_importtime(text: str) -> tuple[int, int]:
    """Cumulative microseconds of spectral_chroma and of the outermost scipy
    imports beneath it.  importtime prints children before their parent, so
    the lines are walked backwards to see each entry's ancestors first."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, field = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        name = field.strip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        entries.append((depth, name, int(cumulative)))
    package = scipy = 0
    stack = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if name == "spectral_chroma" and depth == 0:
            package = cumulative
        if is_scipy and not any(s for _, s in stack):
            scipy += cumulative
        stack.append((depth, is_scipy))
    return package, scipy
