import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from spectral_chroma import cli, quadrature, spectrum
from spectral_chroma import (
    Point,
    QuadratureSpec,
    SpectralParameter,
    compare,
    eigenvalue,
    envelope,
    main_bounds,
    principal_grid,
    scan_principal,
    verify_eigenfunction,
)
from test_spectrum import node_batch_sizes, refinement_batches

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


def run_cli(*args, env_extra=None, timeout=None):
    env = {**os.environ, **(env_extra or {})}
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_chroma", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


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
        # past s = 2**23 the doubles are 1.86e-9 apart; as r -> 0 the
        # eigenvalue at s tends to J0(r*s), so the minimum is J0's, at
        # r*s = the first zero of J1.  argmin_s is resolved to the final
        # sampling's spacing w, with r w <= sqrt(8 _REFINE_SLACK abs_tol /
        # envelope(r)) (8.9e-6 here; the scan's w is 15.3, r w = 6.1e-6)
        code, out, _ = run_cli("scan", "--r", "4e-7", "--s-max", "1.2e7", "--step", "1e6", timeout=120)
        assert code == 0
        results = json.loads(out)["results"]
        assert abs(results["m_numeric"]["value"] - (-0.4027593957025531)) <= 1e-10
        resolution = math.sqrt(8.0 * spectrum._REFINE_SLACK * 1e-10 / envelope(4e-7))
        assert abs(results["argmin_s"]["value"] * 4e-7 - 3.8317059702075123) <= resolution


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

    @pytest.mark.parametrize("text", ["0 1\n1 2\n2 0\n", "n 4\n0 1\n1 2\n2 0\n"], ids=["edge", "header"])
    def test_byte_order_mark_is_read_past(self, text, tmp_path, capsys):
        # a UTF-8 file may open with a byte-order mark, as some editors write it
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        records = []
        for path in (plain, marked):
            code, out, _ = run_main(capsys, "graph", "--input", str(path))
            assert code == 0
            records.append(json.loads(out))
            assert records[-1]["inputs"].pop("input") == str(path)
        assert records[0] == records[1]


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


class TestSettings:
    """Settings come from flags; the environment sets nothing."""

    @pytest.mark.parametrize("argv, key, api", [
        (("eval", "--r", "2", "--s", "1"), "value",
         lambda quad: eigenvalue(SpectralParameter.principal(1.0), 2.0, quad)),
        (("scan", "--r", "4", "--s-max", "5", "--step", "0.5"), "m_numeric",
         lambda quad: scan_principal(4.0, 5.0, 0.5, quad).m_numeric),
        (("verify", "--r", "1.5", "--s", "2", "--n", "64"), "residual",
         lambda quad: verify_eigenfunction(SpectralParameter.principal(2.0), 1.5, Point(0.7, 2.0), 64, quad)),
    ], ids=["eval", "scan", "verify"])
    def test_tol_reaches_the_record(self, argv, key, api):
        code, out, _ = run_cli(*argv, "--tol", "1e-6")
        assert code == 0
        record = json.loads(out)
        # the QuadratureSpec fields, and nothing else of the integrator
        assert record["meta"].keys() - {"version"} == {"abs_tol"}
        assert record["meta"]["abs_tol"] == 1e-6
        assert record["results"][key]["value"] == api(QuadratureSpec(abs_tol=1e-6))

    def test_budget_trips_exit_3(self, monkeypatch, capsys):
        # the complementary series is always integrated: at r = 50,
        # sigma = 0.499 the first pass has 2 panels; abs_tol 1e-8 fits
        # there, 1e-12 needs a second pass of 4
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
        assert run_main(capsys, "eval", "--r", "50", "--sigma", "0.499", "--tol", "1e-8")[0] == 0
        code, out, err = run_main(capsys, "eval", "--r", "50", "--sigma", "0.499", "--tol", "1e-12")
        assert code == 3
        assert out == "" and "panel budget 2" in err

    @pytest.mark.parametrize("argv, expected", [
        (("verify", "--r", "1.5", "--s", "2", "--n", "32"), {"n": 32}),
        (("verify", "--r", "1.5", "--s", "2"), {"n": 2048}),
        (("scan", "--r", "4", "--s-max", "3", "--step", "0.25"), {"s_max": 3.0, "step": 0.25}),
        (("scan", "--r", "4"), {"s_max": 100.0, "step": 0.05}),
    ], ids=["n", "n-default", "scan-flags", "scan-defaults"])
    def test_flags_reach_the_inputs(self, argv, expected):
        code, out, _ = run_cli(*argv)
        assert code == 0
        inputs = json.loads(out)["inputs"]
        assert {key: inputs[key] for key in expected} == expected

    @pytest.mark.parametrize("argv", [
        ("eval", "--r", "2", "--s", "1"),
        ("scan", "--r", "4", "--s-max", "5", "--step", "0.5"),
        ("verify", "--r", "1.5", "--s", "2", "--n", "64"),
        ("bounds", "--r", "10"),
    ], ids=["eval", "scan", "verify", "bounds"])
    def test_environment_sets_nothing(self, argv, tmp_path, monkeypatch):
        # a settings file named by the variable, malformed or missing, changes nothing
        monkeypatch.delenv("SPECTRAL_CHROMA_CONFIG", raising=False)
        cfg = tmp_path / "cfg"
        cfg.write_text("abs_tol = 1e-3\nnot a setting\n")
        unset = run_cli(*argv)
        assert unset[0] == 0
        for path in (cfg, tmp_path / "nope"):
            assert run_cli(*argv, env_extra={"SPECTRAL_CHROMA_CONFIG": str(path)}) == unset

    def test_tol_flag_wins_over_environment(self, tmp_path):
        # a file that once set abs_tol = 1e-3 leaves --tol 1e-6 in charge
        cfg = tmp_path / "cfg"
        cfg.write_text("abs_tol = 1e-3\n")
        argv = ("eval", "--r", "2", "--s", "1", "--tol", "1e-6")
        code, out, err = run_cli(*argv, env_extra={"SPECTRAL_CHROMA_CONFIG": str(cfg)})
        assert (code, err) == (0, "")
        assert json.loads(out)["meta"]["abs_tol"] == 1e-6


class TestClosedStdout:
    """A reader that closes stdout early gets no error line and the command's own code."""

    @staticmethod
    def spawn(*args):
        # block-buffered stdout, as in a shell pipeline; unbuffered, a
        # write cut short by the closing reader can end without an error
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
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

    def test_csv_scan_grid_takes_the_matrix_path(self, monkeypatch, capsys):
        # below spherical._SERIES_MIN_R, where no point takes the series
        sizes = node_batch_sizes(monkeypatch)
        code, out, _ = run_main(capsys, "scan", "--r", "1.5", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 2 + 2001
        # only the probe near s = 4/r, a batch of one, and the three
        # 65-point refinement sub-grids, one batch per level, use nodes; the
        # grid rows do not
        assert sizes == [1, 65, 65, 65]

    @pytest.mark.parametrize("r", ["0.5", "4", "30"])
    def test_tighter_tol_refines_at_least_as_deep(self, r, monkeypatch, capsys):
        # the curvature bound's target shrinks with abs_tol
        batches, levels = refinement_batches(monkeypatch), []
        for tol in ((), ("--tol", "1e-12")):
            batches.clear()
            assert run_main(capsys, "scan", "--r", r, *tol)[0] == 0
            levels.append(len(batches))
        assert 0 < levels[0] <= levels[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scan_at_the_smallest_radius(self, capsys):
        # every value reads 1, which no decay bound can rule out, so the
        # minimum is the first grid point
        argv = ("scan", "--r", "5e-324", "--s-max", "1", "--step", "1e-4")
        code, out, _ = run_main(capsys, *argv)
        assert code == 0
        record = json.loads(out)
        assert record["results"]["m_numeric"]["value"] == 1.0
        assert record["results"]["argmin_s"]["value"] == 0.0
        code, csv, _ = run_main(capsys, *argv, "--format", "csv")
        assert code == 0
        assert json.loads(csv.splitlines()[0][2:]) == record

    @pytest.mark.parametrize("r", ["0.1", "0.5", "1.5", "4", "10"])
    def test_json_and_csv_scans_agree(self, r, capsys):
        # both formats print the one scan's summary, at every radius
        code, out, _ = run_main(capsys, "scan", "--r", r)
        assert code == 0
        code, csv, _ = run_main(capsys, "scan", "--r", r, "--format", "csv")
        assert code == 0
        assert json.loads(csv.splitlines()[0][2:]) == json.loads(out)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags", [(), ("--lambda", "0.1", "--c", "0.5")])
    def test_bounds_at_the_top_of_its_range_is_strict_json(self, flags, capsys):
        # 1/envelope(r) is finite up to r = 1434.1034...
        code, out, _ = run_main(capsys, "bounds", "--r", "1434.1", *flags)
        assert code == 0
        record = json.loads(out, parse_constant=refuse_constant)
        assert record["results"]["chi_lower_vacuous"] is False

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r", ["1434.2", "1490", "1504", "1e300"])
    @pytest.mark.parametrize("flags", [(), ("--format", "csv"), ("--lambda", "0.1", "--c", "0.5")])
    def test_bounds_past_its_range_exits_2(self, r, flags, capsys):
        # 1/envelope(r) overflows, or envelope(r) underflows to 0 from r = 1504 on
        code, out, err = run_main(capsys, "bounds", "--r", r, *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "log_envelope" in err

    def test_initial_panel_budget_exits_3(self, capsys):
        code, out, err = run_main(capsys, "eval", "--r", "2", "--s", "1e300")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "budget" in err

    def test_default_base_catches_a_wrong_radial_function(self, monkeypatch, capsys):
        # phi(d) off by 1e-3 d exp(-d), which is 0 at d = 0: around i every
        # circle point lies at distance r, so only a base off i sees it
        batch = spectrum._eigenvalue_batch
        monkeypatch.setattr(spectrum, "_eigenvalue_batch", lambda kind, values, radii, quad: (
            batch(kind, values, radii, quad) + 1e-3 * radii * np.exp(-radii)))
        assert run_main(capsys, "verify", "--r", "1.5", "--s", "2", "--base", "0,1")[0] == 0
        code, out, _ = run_main(capsys, "verify", "--r", "1.5", "--s", "2")
        assert code == 5
        record = json.loads(out)
        assert record["inputs"]["base"] == "0.7,2.0"
        assert record["results"]["residual"]["value"] > 1e-4

    @pytest.mark.parametrize("argv", [
        ("--r", "1.5", "--s", "2"),
        ("--r", "1.5", "--sigma", "0.3"),
        pytest.param(("--r", "5", "--s", "20", "--base=-0.3,0.8"), marks=pytest.mark.xfail(
            strict=True, reason="residual 8.5e-7 is under the absolute threshold 1e-6 (ROADMAP item 4)")),
        pytest.param(("--r", "30", "--s", "1"), marks=pytest.mark.xfail(
            strict=True, reason="residual 1.9e-10 is under the absolute threshold 1e-6 (ROADMAP item 4)")),
    ], ids=["s-2", "sigma-0.3", "r-5", "r-30"])
    def test_scaled_eigenvalues_fail_verify(self, argv, monkeypatch, capsys):
        # phi scaled by 1 + 1e-3 is not an eigenfunction, unlike phi for
        # another s, so verify must fail at its default n
        batch = spectrum._eigenvalue_batch
        monkeypatch.setattr(spectrum, "_eigenvalue_batch", lambda *a: batch(*a) * (1.0 + 1e-3))
        assert run_main(capsys, "verify", *argv)[0] == 5

    def test_oversized_scan_grid_exits_2(self, capsys):
        code, out, err = run_main(capsys, "scan", "--r", "4", "--step", "1e-300")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflowing_default_window_exits_2(self, capsys):
        # 40/r is inf, which is not a window below 1
        code, out, err = run_main(capsys, "scan", "--r", "1e-320")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows" in err and "< 1" not in err

    @pytest.mark.parametrize("base", ["1e308,1", "0,1e-310"])
    def test_circle_out_of_range_names_the_base(self, base, capsys):
        code, out, err = run_main(capsys, "verify", "--r", "1.5", "--s", "2", "--base", base)
        assert code == 2
        assert out == ""
        x, y = (float(v) for v in base.split(","))
        assert err.startswith("error: ") and f"base ({x}, {y})" in err

    def test_circle_near_the_top_of_double_range_is_computable(self, capsys):
        # the circle reaches about 692.3 from i, inside the eigenvalue range
        code, out, _ = run_main(capsys, "verify", "--r", "1.5", "--s", "2", "--base", "0,1e300")
        assert code == 0
        assert json.loads(out)["results"]["passed"] is True

    def test_circle_beyond_radius_40_is_computable(self, capsys):
        # only the circle's reach from i, r + d(base, i), limits verify's r
        assert run_main(capsys, "verify", "--r", "45", "--s", "1", "--n", "64")[0] == 0

    def test_circle_beyond_the_eigenvalue_range_names_the_base(self, capsys):
        code, out, err = run_main(capsys, "verify", "--r", "699.5", "--s", "1", "--base", "0.7,2.0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "base (0.7, 2.0)" in err
        # r + d(base, i) = 699.5 + 0.838...
        assert "reaches distance 700.338" in err

    def test_negative_base_x_in_equals_form(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--r", "1.5", "--s", "2", "--n", "256", "--base=-0.3,0.8")
        assert code == 0
        record = json.loads(out)
        assert record["inputs"]["base"] == "-0.3,0.8"
        assert record["results"]["passed"] is True

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ("scan", "--r", "4"),
        ("verify", "--r", "1.5", "--s", "2", "--base", "0.7,2.0"),
    ])
    def test_unreachable_tolerance_exits_3_quickly(self, argv, capsys):
        start = time.perf_counter()
        code, _, err = run_main(capsys, *argv, "--tol", "1e-30")
        assert code == 3
        assert "budget" in err
        assert time.perf_counter() - start < 5.0
