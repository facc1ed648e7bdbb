import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from spectral_chroma import cli, spectrum
from spectral_chroma import (
    QuadratureSpec,
    SpectralParameter,
    compare,
    eigenvalue,
    envelope,
    main_bounds,
    principal_grid,
)
from test_spectrum import node_batch_sizes

PETERSEN_EDGES = """\
# outer cycle, spokes, inner pentagram
0 1
1 2
2 3
3 4
4 0
0 5
1 6
2 7
3 8
4 9
5 7
7 9
9 6
6 8
8 5
"""


BOUNDS_CSV_HEADER = (
    "r,ind_ratio_exact,ind_ratio_relaxed,chi_lower,pp_chi_upper,m_used,m_provenance,"
    "ind_ratio_vacuous,chi_lower_vacuous,nevo_lambda,nevo_c,nevo_beta,nevo_alpha_bound,"
    "nevo_winner"
)


def cli_env():
    return {k: v for k, v in os.environ.items() if k != "SPECTRAL_CHROMA_CONFIG"}


def run_cli(*args, env_extra=None, timeout=None):
    env = cli_env()
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_chroma", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_main(capsys, *args):
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


class TestEval:
    def test_trivial_parameter(self):
        code, out, _ = run_cli("eval", "--r", "3", "--sigma", "0.5")
        assert code == 0
        rec = json.loads(out)
        assert rec["command"] == "eval"
        assert rec["results"]["value"]["value"] == pytest.approx(1.0, abs=1e-9)
        assert rec["results"]["value"]["provenance"] == "numerical-scan"
        assert rec["results"]["envelope"]["value"] == envelope(3.0)
        assert rec["results"]["envelope"]["provenance"] == "formula"

    def test_matches_api_at_full_precision(self):
        code, out, _ = run_cli("eval", "--r", "2", "--s", "1")
        assert code == 0
        rec = json.loads(out)
        assert rec["results"]["value"]["value"] == eigenvalue(SpectralParameter.principal(1.0), 2.0)

    def test_json_round_trips(self):
        _, out, _ = run_cli("eval", "--r", "2", "--s", "1")
        assert json.dumps(json.loads(out), indent=2) == out.strip()

    def test_negative_radius_usage_error(self):
        code, _, err = run_cli("eval", "--r", "-1", "--s", "1")
        assert code == 2
        assert "--r" in err

    def test_parameter_flags_are_exclusive(self):
        assert run_cli("eval", "--r", "2", "--s", "1", "--sigma", "0.1")[0] == 2
        assert run_cli("eval", "--r", "2")[0] == 2

    def test_sigma_out_of_range(self):
        code, _, err = run_cli("eval", "--r", "2", "--sigma", "0.7")
        assert code == 2
        assert "sigma" in err

    def test_unreachable_tolerance_exit(self):
        code, _, err = run_cli("eval", "--r", "5", "--s", "40", "--tol", "1e-30")
        assert code == 3
        assert "budget" in err


class TestScan:
    def test_json_summary(self):
        code, out, _ = run_cli("scan", "--r", "4", "--s-max", "20", "--step", "0.1")
        assert code == 0
        rec = json.loads(out)
        assert rec["results"]["M"]["value"] == 1
        assert rec["results"]["M"]["provenance"] == "certified-analytic"
        assert rec["results"]["m_analytic"]["value"] == -envelope(4.0)
        assert rec["results"]["m_numeric"]["value"] < 0.0
        assert rec["results"]["degenerate"] is False

    def test_csv_grid(self):
        code, out, _ = run_cli("scan", "--r", "4", "--s-max", "2", "--step", "0.5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# ")
        summary = json.loads(lines[0][2:])
        assert summary["results"]["M"]["value"] == 1
        assert lines[1] == "s,value"
        rows = [line.split(",") for line in lines[2:]]
        grid = np.arange(0.0, 2.25, 0.5)
        assert len(rows) == grid.size
        values = principal_grid(grid, 4.0)
        for (s_text, v_text), s, v in zip(rows, grid, values):
            assert float(s_text) == s
            assert float(v_text) == v

    def test_step_refinement_agreement(self):
        _, out_a, _ = run_cli("scan", "--r", "4", "--s-max", "20", "--step", "0.05")
        _, out_b, _ = run_cli("scan", "--r", "4", "--s-max", "20", "--step", "0.025")
        m_a = json.loads(out_a)["results"]["m_numeric"]["value"]
        m_b = json.loads(out_b)["results"]["m_numeric"]["value"]
        assert abs(m_a - m_b) <= 1e-6

    def test_rejects_nonpositive_radius(self):
        assert run_cli("scan", "--r", "0")[0] == 2

    def test_refinement_ends_where_doubles_are_coarser_than_its_width(self):
        # past s = 2**23 the doubles are 1.86e-9 apart, wider than
        # REFINE_XTOL; as r -> 0 the eigenvalue at s tends to J0(r*s), so
        # the minimum is J0's, at r*s = the first zero of J1
        code, out, _ = run_cli("scan", "--r", "4e-7", "--s-max", "1.2e7", "--step", "1e6", timeout=120)
        assert code == 0
        results = json.loads(out)["results"]
        assert abs(results["m_numeric"]["value"] - (-0.4027593957025531)) <= 1e-10
        assert abs(results["argmin_s"]["value"] * 4e-7 - 3.8317059702075123) <= 1e-7


class TestBounds:
    def test_r10_report(self):
        code, out, _ = run_cli("bounds", "--r", "10")
        assert code == 0
        rec = json.loads(out)
        rep = main_bounds(10.0)
        assert rec["results"] == {
            "ind_ratio_exact": {"value": rep.ind_ratio_exact, "provenance": "certified-analytic"},
            "ind_ratio_relaxed": {"value": rep.ind_ratio_relaxed, "provenance": "formula"},
            "chi_lower": {"value": rep.chi_lower, "provenance": "formula"},
            "m_used": {"value": rep.m_used, "provenance": "certified-analytic"},
            "ind_ratio_vacuous": False,
            "chi_lower_vacuous": False,
            "pp_chi_upper": {"value": 45, "provenance": "formula"},
        }
        assert rec["results"]["chi_lower"]["value"] == pytest.approx(
            math.exp(5.0) / 11.0, rel=1e-14
        )

    def test_pp_field_absent_below_threshold(self):
        for r in ("3", "5"):
            _, out, _ = run_cli("bounds", "--r", r)
            assert "pp_chi_upper" not in json.loads(out)["results"]

    def test_nevo_block(self):
        _, out, _ = run_cli("bounds", "--r", "10", "--lambda", "0.25")
        rec = json.loads(out)
        assert "nevo" in rec["results"]
        assert rec["results"]["nevo"]["winner"] in ("main_theorem", "nevo", "tie")

    def test_winners(self):
        _, out, _ = run_cli("bounds", "--r", "10", "--lambda", "2")
        assert json.loads(out)["results"]["nevo"]["winner"] == "nevo"
        _, out, _ = run_cli("bounds", "--r", "10", "--lambda", "0.1", "--c", "0.5")
        assert json.loads(out)["results"]["nevo"]["winner"] == "main_theorem"

    def test_missing_c_exponent(self):
        code, _, err = run_cli("bounds", "--r", "10", "--lambda", "0.1")
        assert code == 2
        assert "c_exponent" in err

    def test_c_without_lambda(self):
        assert run_cli("bounds", "--r", "10", "--c", "0.5")[0] == 2

    def test_csv_format(self):
        code, out, _ = run_cli("bounds", "--r", "10", "--lambda", "2", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["chi_lower"]) == main_bounds(10.0).chi_lower
        assert cells["pp_chi_upper"] == "45"
        assert cells["nevo_winner"] == "nevo"
        rep, duel = main_bounds(10.0), compare(10.0, lam=2.0).nevo
        head = (
            f"10.0,{rep.ind_ratio_exact!r},{rep.ind_ratio_relaxed!r},{rep.chi_lower!r},45,"
            f"{rep.m_used!r},certified-analytic,false,false,"
        )
        expected = {
            ("--lambda", "2"): head + f"2.0,,{duel.beta!r},{duel.alpha_bound!r},nevo",
            (): head + ",,,,",
        }
        for flags, line in expected.items():
            _, out, _ = run_cli("bounds", "--r", "10", *flags, "--format", "csv")
            assert out == BOUNDS_CSV_HEADER + "\n" + line + "\n"


class TestGraph:
    def test_petersen(self, tmp_path):
        path = tmp_path / "petersen.txt"
        path.write_text(PETERSEN_EDGES)
        code, out, _ = run_cli("graph", "--input", str(path), "--regular")
        assert code == 0
        rec = json.loads(out)
        assert rec["inputs"]["n"] == 10
        assert rec["results"]["alpha_bound"]["value"] == pytest.approx(0.4, abs=1e-10)
        assert rec["results"]["chi_bound"]["value"] == pytest.approx(2.5, abs=1e-10)

    def test_complete_graph_chi(self, tmp_path):
        path = tmp_path / "k5.txt"
        path.write_text("".join(f"{i} {j}\n" for i in range(5) for j in range(i + 1, 5)))
        _, out, _ = run_cli("graph", "--input", str(path))
        assert json.loads(out)["results"]["chi_bound"]["value"] == pytest.approx(5.0, abs=1e-10)

    def test_self_loop_rejected_with_line(self, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("0 1\n1 1\n")
        code, _, err = run_cli("graph", "--input", str(path))
        assert code == 2
        assert "line 2" in err

    def test_edgeless_is_degenerate(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("n 3\n")
        assert run_cli("graph", "--input", str(path))[0] == 4

    def test_missing_file(self, tmp_path):
        assert run_cli("graph", "--input", str(tmp_path / "nope.txt"))[0] == 2


class TestVerify:
    def test_constant_function_passes(self):
        code, out, _ = run_cli("verify", "--r", "1.5", "--sigma", "0.5", "--n", "64")
        assert code == 0
        rec = json.loads(out)
        assert rec["results"]["residual"]["value"] <= 1e-12
        assert rec["results"]["passed"] is True

    def test_generic_base_passes(self):
        code, out, _ = run_cli(
            "verify", "--r", "1.5", "--s", "2", "--n", "2048", "--base", "0.7,2.0"
        )
        assert code == 0
        assert json.loads(out)["results"]["passed"] is True

    def test_under_resolved_fails_with_exit_5(self):
        code, out, _ = run_cli("verify", "--r", "3", "--s", "6", "--n", "8", "--base", "1.5,0.7")
        assert code == 5
        rec = json.loads(out)
        assert rec["results"]["passed"] is False
        assert rec["results"]["residual"]["value"] > 1e-6

    def test_bad_base(self):
        assert run_cli("verify", "--r", "1.5", "--s", "2", "--base", "1,0")[0] == 2
        assert run_cli("verify", "--r", "1.5", "--s", "2", "--base", "oops")[0] == 2


class TestConfigFile:
    def test_file_sets_tolerance(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("abs_tol = 1e-6\n")
        _, out, _ = run_cli(
            "eval", "--r", "2", "--s", "1", env_extra={"SPECTRAL_CHROMA_CONFIG": str(cfg)}
        )
        rec = json.loads(out)
        assert rec["meta"]["abs_tol"] == 1e-6
        assert rec["results"]["value"]["value"] == eigenvalue(
            SpectralParameter.principal(1.0), 2.0, QuadratureSpec(abs_tol=1e-6)
        )

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("abs_tol = 1e-6\n")
        _, out, _ = run_cli(
            "eval", "--r", "2", "--s", "1", "--tol", "1e-9",
            env_extra={"SPECTRAL_CHROMA_CONFIG": str(cfg)},
        )
        assert json.loads(out)["meta"]["abs_tol"] == 1e-9

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("wibble = 3\n")
        code, _, err = run_cli(
            "eval", "--r", "2", "--s", "1", env_extra={"SPECTRAL_CHROMA_CONFIG": str(cfg)}
        )
        assert code == 2
        assert "wibble" in err

    def test_budget_from_file_trips_exit_3(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("abs_tol = 1e-30\nmax_subdivisions = 2\n")
        code, _, _ = run_cli(
            "eval", "--r", "2", "--s", "30", env_extra={"SPECTRAL_CHROMA_CONFIG": str(cfg)}
        )
        assert code == 3

    def test_scan_defaults_from_file(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("s_max = 5\nstep = 0.5\n")
        _, out, _ = run_cli(
            "scan", "--r", "4", env_extra={"SPECTRAL_CHROMA_CONFIG": str(cfg)}
        )
        rec = json.loads(out)
        assert rec["inputs"]["s_max"] == 5.0
        assert rec["inputs"]["step"] == 0.5

    @pytest.mark.parametrize("config, argv, section, expected", [
        ("n = 64\n", ("verify", "--r", "1.5", "--s", "2"), "inputs", {"n": 64}),
        ("abs_tol = 1e-8\nmax_subdivisions = 4096\n",
         ("scan", "--r", "4", "--s-max", "5", "--step", "0.5"),
         "meta", {"abs_tol": 1e-8, "max_subdivisions": 4096}),
        ("abs_tol = 1e-8\nmax_subdivisions = 4096\n",
         ("verify", "--r", "1.5", "--s", "2", "--n", "64"),
         "meta", {"abs_tol": 1e-8, "max_subdivisions": 4096}),
        ("s_max = 5\nstep = 0.5\n",
         ("scan", "--r", "4", "--s-max", "3", "--step", "0.25"),
         "inputs", {"s_max": 3.0, "step": 0.25}),
        ("n = 64\n", ("verify", "--r", "1.5", "--s", "2", "--n", "32"), "inputs", {"n": 32}),
    ], ids=["n", "quad-scan", "quad-verify", "scan-flags-win", "n-flag-wins"])
    def test_settings_reach_the_record(self, tmp_path, config, argv, section, expected):
        cfg = tmp_path / "cfg"
        cfg.write_text(config)
        code, out, _ = run_cli(*argv, env_extra={"SPECTRAL_CHROMA_CONFIG": str(cfg)})
        assert code == 0
        record = json.loads(out)[section]
        assert {key: record[key] for key in expected} == expected

    @pytest.mark.parametrize("command", ["bounds", "graph"])
    def test_bounds_and_graph_never_read_the_file(self, tmp_path, command):
        cfg = tmp_path / "cfg"
        cfg.write_text("not a setting\n")
        edges = tmp_path / "petersen.txt"
        edges.write_text(PETERSEN_EDGES)
        argv = ("bounds", "--r", "10") if command == "bounds" else ("graph", "--input", str(edges))
        env = {"SPECTRAL_CHROMA_CONFIG": str(cfg)}
        assert run_cli(*argv, env_extra=env)[0] == 0
        assert run_cli("eval", "--r", "2", "--s", "1", env_extra=env)[0] == 2

    def test_missing_file_is_a_usage_error(self, tmp_path):
        code, out, err = run_cli(
            "eval", "--r", "2", "--s", "1",
            env_extra={"SPECTRAL_CHROMA_CONFIG": str(tmp_path / "nope")},
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestClosedStdout:
    """A reader that closes stdout early gets no error line and the command's own code."""

    @staticmethod
    def spawn(*args):
        # block-buffered stdout, as in a shell pipeline; unbuffered, a
        # write cut short by the closing reader can end without an error
        env = {k: v for k, v in cli_env().items() if k != "PYTHONUNBUFFERED"}
        return subprocess.Popen(
            [sys.executable, "-m", "spectral_chroma", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )

    def test_head_of_csv_scan(self):
        # about 290 KB of rows overflow a 64 KB pipe buffer, so the write
        # meets the closed pipe (the default grid's 63 KB could fit)
        proc = self.spawn("scan", "--r", "4", "--step", "0.01", "--format", "csv")
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert first.startswith(b"# {")
        assert err == b""
        assert proc.returncode == 0

    def test_failing_verify_keeps_exit_5(self):
        proc = self.spawn("verify", "--r", "3", "--s", "6", "--n", "8", "--base", "1.5,0.7")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == b""
        assert proc.returncode == 5


class TestMisc:
    def test_version_flag(self):
        code, out, _ = run_cli("--version")
        assert code == 0
        assert "spectral-chroma" in out

    def test_unknown_command(self):
        assert run_cli("frobnicate")[0] == 2


class TestInProcess:
    """main(argv) in this process, for checks that count calls or time."""

    @pytest.fixture(autouse=True)
    def _no_config(self, monkeypatch):
        monkeypatch.delenv("SPECTRAL_CHROMA_CONFIG", raising=False)

    def test_csv_scan_evaluates_its_grid_once(self, monkeypatch, capsys):
        grids = []
        monkeypatch.setattr(spectrum, "principal_grid", lambda *a: grids.append(a) or principal_grid(*a))
        code, out, _ = run_main(capsys, "scan", "--r", "4", "--s-max", "2", "--step", "0.5", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 2 + 5
        assert len(grids) == 1

    def test_csv_scan_grid_takes_the_matrix_path(self, monkeypatch, capsys):
        sizes = node_batch_sizes(monkeypatch)
        code, out, _ = run_main(capsys, "scan", "--r", "4", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 2 + 2001
        # only the refinement sub-grids, one batch per level, use nodes
        assert sizes and set(sizes) == {33} and len(sizes) <= 7

    def test_initial_panel_budget_exits_3(self, capsys):
        code, out, err = run_main(capsys, "eval", "--r", "2", "--s", "1e300")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "budget" in err

    def test_oversized_scan_grid_exits_2(self, capsys):
        code, out, err = run_main(capsys, "scan", "--r", "4", "--step", "1e-300")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("base", ["1e308,1", "0,1e-310", "0,1e300"])
    def test_circle_out_of_range_names_the_base(self, base, capsys):
        code, out, err = run_main(capsys, "verify", "--r", "1.5", "--s", "2", "--base", base)
        assert code == 2
        assert out == ""
        x, y = (float(v) for v in base.split(","))
        assert err.startswith("error: ") and f"base ({x}, {y})" in err

    @pytest.mark.parametrize("argv", [
        ("scan", "--r", "4"),
        ("verify", "--r", "1.5", "--s", "2", "--base", "0.7,2.0"),
    ])
    def test_unreachable_tolerance_exits_3_quickly(self, argv, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("abs_tol = 1e-30\n")
        monkeypatch.setenv("SPECTRAL_CHROMA_CONFIG", str(cfg))
        start = time.perf_counter()
        code, _, err = run_main(capsys, *argv)
        assert code == 3
        assert "budget" in err
        assert time.perf_counter() - start < 5.0
