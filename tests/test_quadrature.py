import math

import numpy as np
import pytest

from spectral_chroma import DomainError, QuadratureSpec, ToleranceNotReached
from spectral_chroma import quadrature
from spectral_chroma.quadrature import integrate, panel_rule


def single(g):
    """A batch of one item whose integrand is g(t)."""
    return lambda items, t: np.broadcast_to(g(t), (items.size,) + t.shape)


class TestIntegrate:
    def test_polynomial(self):
        values, errs, _ = integrate(single(lambda t: t * t), 1, 1, 1e-12)
        assert values[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert errs[0] <= 1e-12

    def test_sine_hump(self):
        values, _, _ = integrate(single(lambda t: math.pi * np.sin(math.pi * t)), 1, 1, 1e-12)
        assert values[0] == pytest.approx(2.0, abs=1e-12)

    def test_oscillatory_with_panel_cap(self):
        s = 50.0
        values, _, _ = integrate(single(lambda t: np.cos(s * t)), 1, s / (0.5 * math.pi), 1e-12)
        assert values[0] == pytest.approx(math.sin(s) / s, abs=1e-12)

    def test_steep_exponential_adapts(self):
        # exp(-40 x) on [0, 5], rescaled to [0, 1]
        values, _, panels = integrate(single(lambda t: 5.0 * np.exp(-200.0 * t)), 1, 1, 1e-12)
        assert values[0] == pytest.approx((1.0 - math.exp(-200.0)) / 40.0, rel=1e-11)
        assert panels > 1

    def test_error_estimate_is_honest(self):
        # cos(7 x) exp(x) on [0, 2], rescaled to [0, 1]
        values, errs, _ = integrate(single(lambda t: 2.0 * np.cos(14.0 * t) * np.exp(2.0 * t)),
                                    1, 1, 1e-10)
        exact = (math.exp(2.0) * (math.cos(14.0) + 7.0 * math.sin(14.0)) - 1.0) / 50.0
        assert abs(values[0] - exact) <= max(errs[0], 1e-10)

    def test_budget_exhaustion_raises(self, monkeypatch):
        passes = []
        rule = quadrature.panel_rule
        monkeypatch.setattr(quadrature, "panel_rule", lambda f, a, b: passes.append(a.size) or rule(f, a, b))
        steep = single(lambda t: 5.0 * np.exp(-200.0 * t))
        # a pass of exactly the budget runs
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 16)
        assert integrate(steep, 1, 1, 1e-12)[2] == 16
        assert passes == [1, 2, 4, 8, 16]
        # one panel less, the doubling to 16 raises before panel_rule sees it
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 15)
        passes.clear()
        with pytest.raises(ToleranceNotReached, match="1.600e\\+01 panels exceeds the panel budget 15"):
            integrate(steep, 1, 1, 1e-12)
        assert passes == [1, 2, 4, 8]

    def test_round_off_floor_fails_at_once(self):
        calls = []
        f = single(lambda t: np.cos(3.0 * t))
        with pytest.raises(ToleranceNotReached, match="round-off.*budget"):
            integrate(lambda items, t: calls.append(t.shape) or f(items, t), 1, 1, 1e-300)
        assert calls == [(1, quadrature._NODES.size)]

    def test_initial_panels_count_against_budget(self, monkeypatch):
        # an oversized first pass is refused before any array is built
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)
        calls = []
        for panels in (1e300, math.inf, 4.5):
            with pytest.raises(ToleranceNotReached, match="panel budget 4"):
                integrate(lambda items, t: calls.append(t.shape), 1, panels, 1e-10)
        assert calls == []
        # a real count is rounded up: 3.5 runs on 4 panels, the whole budget
        values, _, panels = integrate(single(np.sin), 1, 3.5, 1e-10)
        assert panels == 4
        assert values[0] == pytest.approx(1.0 - math.cos(1.0), abs=1e-12)

    def test_items_refine_independently(self):
        freqs = np.array([1.0, 40.0, 3.0])
        batched = lambda items, t: np.cos(freqs[items, None, None] * t)
        values, errs, panels = integrate(batched, freqs.size, 1, 1e-12)
        assert panels > 1
        assert np.all(errs <= 1e-12)
        np.testing.assert_allclose(values, np.sin(freqs) / freqs, rtol=0.0, atol=1e-12)
        # the smooth items stay on the pass that first fit them
        alone, _, _ = integrate(single(np.cos), 1, 1, 1e-12)
        assert values[0] == alone[0]

    def test_blocks_split_items(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_NODE_BLOCK_ELEMENTS", 2 * quadrature._NODES.size * 4)
        blocks = []
        freqs = np.linspace(0.0, 5.0, 7)

        def batched(items, t):
            blocks.append(items.size)
            return np.cos(freqs[items, None, None] * t)

        values, _, _ = integrate(batched, freqs.size, 4, 1e-10)
        assert blocks == [2, 2, 2, 1]
        np.testing.assert_allclose(values, np.sinc(freqs / math.pi), rtol=0.0, atol=1e-10)


class TestRule:
    """The Gauss-Kronrod 15/31 tables, against exact moments and numpy's Gauss rule."""

    def test_exact_on_monomials(self):
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            # the rounded tables as exact binary values; x^d over [-1, 1] is 2/(d+1) for even d
            nodes = [mpmath.mpf(float(x)) for x in quadrature._NODES]
            for weights, degree in ((quadrature._WEIGHTS_KRONROD, 46), (quadrature._WEIGHTS_GAUSS, 29)):
                w = [mpmath.mpf(float(v)) for v in weights]
                for d in range(degree + 1):
                    exact = mpmath.mpf(2) / (d + 1) if d % 2 == 0 else 0
                    assert abs(mpmath.fsum(wj * xj ** d for wj, xj in zip(w, nodes)) - exact) <= eps, (degree, d)

    def test_symmetric(self):
        for table in (quadrature._NODES, quadrature._WEIGHTS_KRONROD, quadrature._WEIGHTS_GAUSS):
            assert table.shape == (31,)
        np.testing.assert_array_equal(quadrature._NODES, -quadrature._NODES[::-1])
        np.testing.assert_array_equal(quadrature._WEIGHTS_KRONROD, quadrature._WEIGHTS_KRONROD[::-1])
        np.testing.assert_array_equal(quadrature._WEIGHTS_GAUSS, quadrature._WEIGHTS_GAUSS[::-1])

    def test_gauss_nodes_are_every_other_kronrod_node(self):
        gauss = quadrature._WEIGHTS_GAUSS
        assert np.all(gauss[0::2] == 0.0) and np.all(gauss[1::2] > 0.0)
        nodes, _ = np.polynomial.legendre.leggauss(15)
        assert np.all(np.abs(quadrature._NODES[1::2] - nodes) <= 2 * np.spacing(np.abs(nodes)))


class TestPanelEdges:
    @pytest.mark.parametrize("panels", [1, 2, 7, 338, 4096])
    def test_graded_towards_one(self, panels):
        edges = quadrature._panel_edges(panels)
        assert edges[0] == 0.0 and edges[-1] == 1.0
        widths = np.diff(edges)
        assert np.all(widths > 0.0)
        assert np.all(np.diff(widths) <= 0.0)
        # edge m solves A t + (1 - A) t^2 = m / panels
        a = quadrature._EDGE_GRADE
        np.testing.assert_allclose(a * edges + (1.0 - a) * edges ** 2, np.arange(panels + 1) / panels,
                                   rtol=0.0, atol=4e-16)


class TestPanelRule:
    def test_leading_batch_axes(self):
        edges = np.linspace(0.0, 2.0, 5)
        freqs = np.array([1.0, 3.0, 7.0])
        kron, err = panel_rule(lambda x: np.cos(freqs[:, None, None] * x), edges[:-1], edges[1:])
        assert kron.shape == err.shape == (3, 4)
        for k, w in enumerate(freqs):
            single, single_err = panel_rule(lambda x: np.cos(w * x), edges[:-1], edges[1:])
            np.testing.assert_array_equal(kron[k], single)
            np.testing.assert_array_equal(err[k], single_err)


def _pass_values(todo, panels=202, step=0.05):
    """One _progression_pass over todo for cos(s_k 10 (1 - t^2)) exp(-t), s_k = k step."""
    values = {}
    for items, value, _, _ in quadrature._progression_pass(
            0.0, step, lambda t: 10.0 * ((1.0 - t) * (1.0 + t)), lambda t: np.exp(-t), np.asarray(todo), panels):
        values.update(zip(items.tolist(), value))
    return values


class TestCosineProgression:
    @pytest.mark.parametrize("start,step", [(0.0, 0.05), (1000.0, 0.5), (37.25, 1 / 1024)])
    def test_tables_match_expj_at_the_float_arguments(self, start, step):
        mpmath = pytest.importorskip("mpmath")
        # one panel of [0, 1] under the r = 10 phase: 0.17 <= phase <= 9.99
        nodes, _ = quadrature._panel_nodes(np.array([0.0]), np.array([1.0]))
        phase = 10.0 * ((1.0 - nodes) * (1.0 + nodes))
        counts = (1, 2, 3, 45, 46, 2001)
        # exp(i (start + j step) phase) to 40 digits, as exp(i start phase) exp(i step phase)^j
        exact = np.empty((max(counts), phase.size), dtype=complex)
        with mpmath.workdps(40):
            for node, x in enumerate(phase.ravel()):
                value, ratio = mpmath.expj(mpmath.mpf(start) * x), mpmath.expj(mpmath.mpf(step) * x)
                for j in range(max(counts)):
                    exact[j, node] = complex(value)
                    value *= ratio
        args = np.abs((start + np.arange(max(counts))[:, None] * step) * phase)
        bound = 4.0 * np.finfo(float).eps * (1.0 + args)
        for count in counts:
            table = quadrature._exp_progression(start, step, np.arange(count), phase)
            assert table.shape == (1, count, quadrature._NODES.size)
            assert np.all(np.abs(table[0] - exact[:count]) <= bound[:count])

    @pytest.mark.parametrize("items", [[0, 1, 700, 1999], [5, 700, 701, 2000]])
    def test_pass_builds_only_the_rows_of_its_items(self, monkeypatch, items):
        whole = _pass_values(np.arange(2001))
        built = []
        tables = quadrature._exp_progression
        monkeypatch.setattr(quadrature, "_exp_progression", lambda start, step, index, phase: (
            built.append((step, index.copy())) or tables(start, step, index, phase)))
        scattered = _pass_values(items)
        assert sorted(scattered) == items
        for k in items:
            assert abs(scattered[k] - whole[k]) <= 1e-15
        # the pass lays k = items[0] + a B + b with B = ceil(sqrt(span)); the
        # row tables step by B grid steps, the column tables by one
        width = math.isqrt(items[-1] - items[0]) + 1
        rows = {int(a) for stride, index in built if stride != 0.05 for a in index}
        assert rows == {(k - items[0]) // width for k in items}


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-10},
            {"abs_tol": math.nan},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)
