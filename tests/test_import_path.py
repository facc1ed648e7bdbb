"""The package and its CLI run on NumPy alone: no module imports scipy.

Each test runs in a fresh interpreter, so modules imported by other tests
cannot hide an import on the CLI's path.
"""

import subprocess
import sys
import textwrap

from test_cli import PETERSEN_EDGES

RUN_SUBCOMMANDS = """
import contextlib, io, sys
{prelude}
import spectral_chroma
from spectral_chroma import cli

argvs = [
    ["eval", "--r", "2", "--s", "1"],
    ["scan", "--r", "4", "--s-max", "10", "--step", "0.5"],
    ["scan", "--r", "4", "--s-max", "2", "--step", "0.5", "--format", "csv"],
    ["bounds", "--r", "10", "--lambda", "0.1", "--c", "0.5"],
    ["graph", "--input", {graph!r}],
    ["verify", "--r", "1.5", "--s", "2", "--n", "64", "--base", "0.7,2.0"],
]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
{checks}
"""


def run_python(source: str):
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(source)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_subcommands_import_no_scipy(tmp_path):
    graph = tmp_path / "petersen.txt"
    graph.write_text(PETERSEN_EDGES, encoding="utf-8")
    run_python(RUN_SUBCOMMANDS.format(graph=str(graph), prelude="", checks="""
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""))


def test_cli_runs_without_scipy(tmp_path):
    graph = tmp_path / "petersen.txt"
    graph.write_text(PETERSEN_EDGES, encoding="utf-8")
    run_python(RUN_SUBCOMMANDS.format(graph=str(graph), prelude='sys.modules["scipy"] = None', checks="""
import importlib, pkgutil
for module in pkgutil.iter_modules(spectral_chroma.__path__):
    importlib.import_module(f"spectral_chroma.{module.name}")
"""))
