"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; plain `pytest` still enforces every assertion.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from spectral_chroma import (
    ORIGIN,
    SpectralParameter,
    circle_point,
    compare,
    envelope,
    eigenvalue,
    hoffman_finite,
    main_bounds,
    principal_grid,
    scan_principal,
    verify_eigenfunction,
)
from oracles import eigenvalue_ode_batch
from test_bounds import (
    brute_force_independence_ratio,
    complete_graph,
    cycle_graph,
    petersen_graph,
)
from test_cli import PETERSEN_EDGES, run_cli


def _report(number: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_envelope_inequality():
    t0 = time.perf_counter()
    s_grid = np.arange(0.0, 200.0 + 0.125, 0.25)
    worst = -math.inf
    for r in np.arange(0.5, 30.0 + 0.25, 0.5):
        values = principal_grid(s_grid, float(r))
        worst = max(worst, float(np.max(np.abs(values)) - envelope(float(r))))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "envelope inequality",
        worst <= 1e-9 and elapsed < 120.0,
        f"worst slack {worst:.3e}, elapsed {elapsed:.1f}s",
    )


def test_criterion_2_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    points = []
    for _ in range(200):
        s = float(rng.uniform(0.0, 50.0))
        r = float(rng.uniform(0.01, 10.0))
        points.append((SpectralParameter.principal(s), r))
    for sigma in np.arange(0.0, 0.51, 0.1):
        for r in range(1, 11):
            points.append((SpectralParameter.complementary(float(sigma)), float(r)))
    params, radii = zip(*points)
    ode = eigenvalue_ode_batch(params, radii)
    worst = max(abs(eigenvalue(p, r) - u) for (p, r), u in zip(points, ode))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "quadrature vs ODE oracle",
        worst <= 1e-8,
        f"worst |diff| {worst:.3e}, elapsed {elapsed:.1f}s",
    )


def test_criterion_3_eigenfunction_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(20):
        s = float(rng.uniform(0.0, 10.0))
        r = float(rng.uniform(0.2, 5.0))
        base = circle_point(ORIGIN, float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
        worst = max(worst, verify_eigenfunction(SpectralParameter.principal(s), r, base, 2048))
    trivial = max(
        verify_eigenfunction(SpectralParameter.complementary(0.5), r, base, 64)
        for r, base in [(1.0, ORIGIN), (2.5, circle_point(ORIGIN, 2.0, 1.0))]
    )
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "eigenfunction product formula",
        worst < 1e-6 and trivial <= 1e-12,
        f"worst residual {worst:.3e}, trivial residual {trivial:.3e}, elapsed {elapsed:.1f}s",
    )


def test_criterion_4_finite_hoffman_exactness():
    ok = True
    detail = []
    for n in range(2, 51):
        res = hoffman_finite(complete_graph(n), regular=True)
        if abs(res.alpha_bound - 1.0 / n) > 1e-10 or abs(res.chi_bound - n) > 1e-10:
            ok = False
            detail.append(f"K{n} off")
    pet = hoffman_finite(petersen_graph(), regular=True)
    if abs(pet.alpha_bound - 0.4) > 1e-10:
        ok = False
        detail.append(f"petersen alpha {pet.alpha_bound}")
    if abs(pet.alpha_bound - brute_force_independence_ratio(petersen_graph())) > 1e-10:
        ok = False
        detail.append("petersen brute-force mismatch")
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    c5 = hoffman_finite(cycle_graph(5), regular=True)
    if abs(c5.alpha_bound - golden / (2.0 + golden)) > 1e-10:
        ok = False
        detail.append(f"C5 alpha {c5.alpha_bound}")
    _report(4, "finite eigenvalue bound exactness", ok, "; ".join(detail))


def test_criterion_5_main_bound_reproduction():
    worst_exact = 0.0
    worst_duality = 0.0
    for r in range(1, 31):
        rep = main_bounds(float(r))
        env = (r + 1.0) * math.exp(-0.5 * r)
        worst_exact = max(worst_exact, abs(rep.ind_ratio_exact - env / (1.0 + env)))
        worst_duality = max(worst_duality, abs(rep.ind_ratio_relaxed * rep.chi_lower - 1.0))
    _report(
        5,
        "main bound formulas",
        worst_exact <= 1e-12 and worst_duality <= 1e-12,
        f"exact dev {worst_exact:.3e}, duality dev {worst_duality:.3e}",
    )


def test_criterion_6_coloring_upper_bound_value():
    at_10 = main_bounds(10.0).pp_chi_upper
    at_5 = main_bounds(5.0).pp_chi_upper
    _report(
        6,
        "explicit coloring upper bound",
        at_10 == 45 and at_5 is None,
        f"r=10 -> {at_10}, r=5 -> {at_5}",
    )


def test_criterion_7_comparison_behavior():
    large_gap = compare(10.0, lam=2.0)
    small_gap = compare(10.0, lam=0.1, c_exponent=0.5)
    ok = (
        large_gap.nevo.alpha_bound < large_gap.ind_ratio_exact
        and large_gap.nevo.winner == "nevo"
        and small_gap.nevo.winner == "main_theorem"
        and small_gap.ind_ratio_exact < small_gap.nevo.alpha_bound
    )
    _report(
        7,
        "spectral-gap comparison",
        ok,
        f"lam=2 alpha {large_gap.nevo.alpha_bound:.6f} vs {large_gap.ind_ratio_exact:.6f}; "
        f"lam=0.1 winner {small_gap.nevo.winner}",
    )


def test_criterion_8_spectrum_sanity():
    t0 = time.perf_counter()
    base = scan_principal(4.0, grid_step=0.05)
    halved = scan_principal(4.0, grid_step=0.025)
    ok = (
        -envelope(4.0) <= base.m_numeric < 0.0
        and abs(base.m_numeric - halved.m_numeric) < 1e-6
        and base.M == 1.0
        and halved.M == 1.0
    )
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "spectrum scan sanity",
        ok,
        f"m {base.m_numeric:.9f}, halving diff {abs(base.m_numeric - halved.m_numeric):.2e}, "
        f"elapsed {elapsed:.1f}s",
    )


def test_criterion_9_cli_contract(tmp_path):
    failures = []

    code, out, _ = run_cli("eval", "--r", "3", "--sigma", "0.5")
    rec = json.loads(out)
    if code != 0 or abs(rec["results"]["value"]["value"] - 1.0) > 1e-9:
        failures.append("eval happy path")
    if json.dumps(rec, indent=2) != out.strip():
        failures.append("json round-trip")

    code, out, _ = run_cli("scan", "--r", "4", "--s-max", "10", "--step", "0.5")
    if code != 0 or json.loads(out)["results"]["M"]["value"] != 1:
        failures.append("scan happy path")

    code, out, _ = run_cli("bounds", "--r", "10")
    rec = json.loads(out)
    if code != 0 or rec["results"]["pp_chi_upper"]["value"] != 45:
        failures.append("bounds happy path")
    if rec["results"]["chi_lower"]["value"] != main_bounds(10.0).chi_lower:
        failures.append("bounds full-precision match")

    petersen = tmp_path / "petersen.txt"
    petersen.write_text(PETERSEN_EDGES)
    code, out, _ = run_cli("graph", "--input", str(petersen))
    if code != 0 or abs(json.loads(out)["results"]["alpha_bound"]["value"] - 0.4) > 1e-10:
        failures.append("graph happy path")

    code, out, _ = run_cli("verify", "--r", "1.5", "--sigma", "0.5", "--n", "64")
    if code != 0 or json.loads(out)["results"]["passed"] is not True:
        failures.append("verify happy path")

    # exit-code matrix: 2 usage, 3 tolerance, 4 degenerate, 5 verification
    if run_cli("eval", "--r", "-1", "--s", "1")[0] != 2:
        failures.append("exit 2")
    if run_cli("eval", "--r", "5", "--s", "40", "--tol", "1e-30")[0] != 3:
        failures.append("exit 3")
    edgeless = tmp_path / "edgeless.txt"
    edgeless.write_text("n 3\n")
    if run_cli("graph", "--input", str(edgeless))[0] != 4:
        failures.append("exit 4")
    if run_cli("verify", "--r", "3", "--s", "6", "--n", "8", "--base", "1.5,0.7")[0] != 5:
        failures.append("exit 5")

    _report(9, "CLI contract", not failures, "; ".join(failures))
