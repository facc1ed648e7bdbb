import math

import numpy as np
import pytest

from spectral_chroma import (
    DomainError,
    EdgeListError,
    EdgelessGraphError,
    HoffmanInputs,
    PreconditionViolation,
    SpectrumSummary,
    compare,
    envelope,
    hoffman_finite,
    hoffman_operator,
    main_bounds,
    nevo_beta,
    parse_edge_list,
)
from spectral_chroma.bounds import _pick_winner


def complete_graph(n: int) -> np.ndarray:
    return np.ones((n, n)) - np.eye(n)


def cycle_graph(n: int) -> np.ndarray:
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1.0
    return A


def petersen_graph() -> np.ndarray:
    A = np.zeros((10, 10))
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    for u, v in edges:
        A[u, v] = A[v, u] = 1.0
    return A


def brute_force_independence_ratio(A: np.ndarray) -> float:
    n = A.shape[0]
    best = 0
    for mask in range(1 << n):
        verts = [i for i in range(n) if (mask >> i) & 1]
        if all(not A[u, v] for i, u in enumerate(verts) for v in verts[i + 1:]):
            best = max(best, len(verts))
    return best / n


class TestHoffmanFinite:
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 25])
    def test_complete_graphs(self, n):
        res = hoffman_finite(complete_graph(n), regular=True)
        assert res.M == pytest.approx(n - 1, abs=1e-10)
        assert res.m == pytest.approx(-1.0, abs=1e-10)
        assert res.alpha_bound == pytest.approx(1.0 / n, abs=1e-10)
        assert res.chi_bound == pytest.approx(n, abs=1e-10)

    def test_five_cycle(self):
        # circulant spectrum 2 cos(2 pi k / 5); minimum at k = 2
        res = hoffman_finite(cycle_graph(5), regular=True)
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert res.m == pytest.approx(-golden, abs=1e-10)
        assert res.alpha_bound == pytest.approx(golden / (2.0 + golden), abs=1e-10)

    def test_petersen(self):
        res = hoffman_finite(petersen_graph(), regular=True)
        eigs = np.linalg.eigvalsh(petersen_graph())
        assert np.allclose(sorted(eigs), [-2.0] * 4 + [1.0] * 5 + [3.0], atol=1e-10)
        assert res.alpha_bound == pytest.approx(0.4, abs=1e-10)
        assert res.chi_bound == pytest.approx(2.5, abs=1e-10)
        assert res.alpha_bound == pytest.approx(
            brute_force_independence_ratio(petersen_graph()), abs=1e-10
        )

    def test_alpha_chi_product_at_least_one(self):
        for A in (complete_graph(4), cycle_graph(5), cycle_graph(6), petersen_graph()):
            res = hoffman_finite(A)
            assert res.alpha_bound * res.chi_bound >= 1.0 - 1e-12

    def test_isolated_vertices_dilute_ratio(self):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = 1.0
        res = hoffman_finite(A)
        # K2 plus two isolated vertices: same spectrum edge, n = 4
        assert res.n == 4
        assert res.alpha_bound == pytest.approx(0.5, abs=1e-12)

    def test_rejections(self):
        with pytest.raises(DomainError):
            hoffman_finite(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not symmetric
        with pytest.raises(DomainError):
            hoffman_finite(np.array([[1.0, 1.0], [1.0, 0.0]]))  # self-loop
        with pytest.raises(DomainError):
            hoffman_finite(np.array([[0.0, 0.5], [0.5, 0.0]]))  # weighted
        with pytest.raises(EdgelessGraphError):
            hoffman_finite(np.zeros((3, 3)))
        with pytest.raises(DomainError):
            hoffman_finite(np.zeros((2001, 2001)))
        path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(DomainError):
            hoffman_finite(path, regular=True)


class TestHoffmanOperator:
    def test_envelope_style_inputs(self):
        for x in (0.1, 0.5, 0.9):
            res = hoffman_operator(HoffmanInputs(M=1.0, m=-x, R=1.0, epsilon=0.0))
            assert res.alpha_bound == pytest.approx(x / (1.0 + x), rel=1e-14)

    def test_symmetric_two_value_case(self):
        res = hoffman_operator(HoffmanInputs(M=1.0, m=-1.0, R=1.0, epsilon=0.0))
        assert res.alpha_bound == pytest.approx(0.5, rel=1e-15)
        assert res.chi_bound == pytest.approx(2.0, rel=1e-15)

    def test_matches_finite_bound_on_regular_graphs(self):
        for A in (complete_graph(5), cycle_graph(5), petersen_graph()):
            fin = hoffman_finite(A, regular=True)
            op = hoffman_operator(HoffmanInputs(M=fin.M, m=fin.m, R=fin.M, epsilon=0.0))
            assert op.alpha_bound == pytest.approx(fin.alpha_bound, abs=1e-12)
            assert op.chi_bound == pytest.approx(fin.chi_bound, abs=1e-12)

    def test_degenerate_hypothesis_raises(self):
        with pytest.raises(PreconditionViolation) as exc:
            hoffman_operator(HoffmanInputs(M=1.0, m=-1.0, R=-2.0, epsilon=0.0))
        assert exc.value.hypothesis == "R - m - epsilon > 0"
        with pytest.raises(PreconditionViolation) as exc:
            hoffman_operator(HoffmanInputs(M=1.0, m=0.0, R=1.0, epsilon=0.0))
        assert exc.value.hypothesis == "m < 0"

    def test_vacuous_flag(self):
        res = hoffman_operator(HoffmanInputs(M=1.0, m=-0.5, R=0.2, epsilon=0.1))
        assert res.alpha_bound > 1.0
        assert res.alpha_vacuous

    def test_inputs_validation(self):
        with pytest.raises(DomainError):
            HoffmanInputs(M=0.0, m=1.0, R=1.0)
        with pytest.raises(DomainError):
            HoffmanInputs(M=1.0, m=-1.0, R=1.0, epsilon=-0.1)


class TestMainBounds:
    def test_r2_values(self):
        rep = main_bounds(2.0)
        assert rep.ind_ratio_relaxed == pytest.approx(3.0 * math.exp(-1.0), rel=1e-15)
        assert rep.chi_lower == pytest.approx(math.e / 3.0, rel=1e-14)
        env = 3.0 * math.exp(-1.0)
        assert rep.ind_ratio_exact == pytest.approx(env / (1.0 + env), rel=1e-14)
        assert rep.m_provenance == "certified-analytic"
        assert rep.nevo is None

    def test_exact_below_relaxed(self):
        for r in (0.5, 1.0, 5.0, 20.0, 60.0):
            rep = main_bounds(r)
            assert rep.ind_ratio_exact < rep.ind_ratio_relaxed

    def test_duality(self):
        for r in np.linspace(0.5, 100.0, 200):
            rep = main_bounds(float(r))
            assert rep.ind_ratio_relaxed * rep.chi_lower == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing_past_one(self):
        grid = np.linspace(1.01, 50.0, 400)
        values = [main_bounds(float(r)).ind_ratio_relaxed for r in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_pp_upper_bound_gate(self):
        assert main_bounds(10.0).pp_chi_upper == 45
        assert main_bounds(5.0).pp_chi_upper is None
        assert main_bounds(3.0).pp_chi_upper is None
        assert main_bounds(5.1).pp_chi_upper == 5 * (math.ceil(5.1 / math.log(4.0)) + 1)

    def test_small_radius_vacuous_flags(self):
        rep = main_bounds(0.1)
        assert rep.ind_ratio_relaxed > 1.0
        assert rep.ind_ratio_vacuous
        assert rep.chi_lower_vacuous

    def test_scanned_floor(self):
        summary = SpectrumSummary(
            r=4.0, M=1.0, m_numeric=-0.15, m_analytic=-envelope(4.0),
            argmin_s=1.0, s_max_scanned=50.0, grid_step=0.05,
        )
        rep = main_bounds(4.0, summary=summary)
        assert rep.m_used == -0.15
        assert rep.m_provenance == "numerical-scan"
        assert rep.ind_ratio_exact == pytest.approx(0.15 / 1.15, rel=1e-14)
        # the scanned floor is sharper than the analytic one
        assert rep.ind_ratio_exact < main_bounds(4.0).ind_ratio_exact

    def test_scanned_floor_requires_matching_summary(self):
        summary = SpectrumSummary(
            r=3.0, M=1.0, m_numeric=-0.2, m_analytic=-envelope(3.0),
            argmin_s=1.0, s_max_scanned=50.0, grid_step=0.05,
        )
        with pytest.raises(DomainError):
            main_bounds(4.0, summary=summary)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            main_bounds(0.0)


class TestNevoBeta:
    def test_quarter_gap(self):
        beta, alpha = nevo_beta(10.0, 0.25)
        expected = min(5.0 * math.exp(-5.0), (1.0 + 2.0 ** -0.5) * math.exp(-5.0))
        assert beta == pytest.approx(expected, rel=1e-14)
        assert alpha == pytest.approx(expected / (1.0 + expected), rel=1e-14)

    def test_large_gap_outperforms_main_bound(self):
        beta, alpha = nevo_beta(10.0, 100.0)
        assert beta < envelope(10.0)
        assert alpha < main_bounds(10.0).ind_ratio_exact

    def test_small_gap_branch_uses_c_scaling(self):
        beta, _ = nevo_beta(10.0, 0.1, c_exponent=0.9)
        expected = min(5.0, 1.0 + abs(1.4) ** -0.5) * math.exp(-4.5)
        assert beta == pytest.approx(expected, rel=1e-14)

    def test_branches_continuous_at_quarter(self):
        lo, _ = nevo_beta(10.0, 0.2499999999, c_exponent=1.0 - 1e-12)
        hi, _ = nevo_beta(10.0, 0.25)
        assert lo == pytest.approx(hi, rel=1e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            nevo_beta(10.0, 0.0)
        with pytest.raises(DomainError):
            nevo_beta(10.0, -1.0)
        with pytest.raises(DomainError):
            nevo_beta(10.0, 0.1)  # missing C
        with pytest.raises(DomainError):
            nevo_beta(10.0, 0.1, c_exponent=1.0)
        with pytest.raises(DomainError):
            nevo_beta(10.0, 0.1, c_exponent=-0.1)


class TestCompare:
    def test_without_gap(self):
        rep = compare(10.0)
        assert rep.nevo is None

    def test_large_gap_winner(self):
        rep = compare(10.0, lam=2.0)
        assert rep.nevo.winner == "nevo"
        assert rep.nevo.alpha_bound < rep.ind_ratio_exact

    def test_small_gap_winner(self):
        rep = compare(10.0, lam=0.1, c_exponent=0.5)
        assert rep.nevo.winner == "main_theorem"
        assert rep.ind_ratio_exact < rep.nevo.alpha_bound

    def test_small_gap_winner_lower_lambda(self):
        rep = compare(10.0, lam=0.05, c_exponent=0.5)
        assert rep.nevo.winner == "main_theorem"

    def test_c_without_lambda_rejected(self):
        with pytest.raises(DomainError):
            compare(10.0, lam=None, c_exponent=0.5)

    def test_winner_decision(self):
        assert _pick_winner(0.5, 0.5) == "tie"
        assert _pick_winner(0.5, 0.5 + 5e-13) == "tie"
        assert _pick_winner(0.5, 0.4) == "nevo"
        assert _pick_winner(0.4, 0.5) == "main_theorem"


class TestEdgeList:
    def test_basic_triangle(self):
        A = parse_edge_list(["0 1", "1 2", "2 0"])
        assert A.shape == (3, 3)
        assert A.sum() == 6.0

    def test_header_comments_duplicates(self):
        A = parse_edge_list([
            "# a triangle with two spare vertices",
            "n 5",
            "0 1",
            "1 2 # duplicate below",
            "2 1",
            "2 0",
        ])
        assert A.shape == (5, 5)
        assert A.sum() == 6.0
        assert A.max() == 1.0

    @pytest.mark.parametrize(
        "lines,fragment",
        [
            (["0 1 2"], "expected"),
            (["0 0"], "self-loop"),
            (["0 -1"], "non-negative"),
            (["a b"], "integers"),
            (["n 2", "0 5"], "outside"),
            (["n x"], "integer"),
            # a byte that is not UTF-8, as read_edge_list decodes it
            (["0 1", "1 2\udcff"], "line 2: not UTF-8"),
        ],
    )
    def test_malformed_lines(self, lines, fragment):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list(lines)
        assert fragment in str(exc.value)

    def test_line_numbers_reported(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list(["0 1", "", "2 2"])
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("lines,line_no", [
        (["n 5000", "0 1"], 1),
        (["0 1", "# big", "5 2000", "x"], 3),
        (["n 3", "0 1", "1 3", "x"], 3),
    ])
    def test_caps_report_the_offending_line(self, lines, line_no):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list(lines)
        assert exc.value.line_no == line_no

    def test_empty_graph_flows_to_edgeless(self):
        A = parse_edge_list(["n 3"])
        with pytest.raises(EdgelessGraphError):
            hoffman_finite(A)
