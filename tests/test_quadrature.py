import math

import numpy as np
import pytest

from spectral_chroma import DomainError, QuadratureSpec, ToleranceNotReached
from spectral_chroma.quadrature import integrate, panel_rule


class TestIntegrate:
    def test_polynomial(self):
        value, err, _ = integrate(lambda x: x * x, 0.0, 1.0, 1e-12, 100)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert err <= 1e-12

    def test_sine_hump(self):
        value, _, _ = integrate(np.sin, 0.0, math.pi, 1e-12, 1000)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_oscillatory_with_panel_cap(self):
        s = 50.0
        value, _, _ = integrate(lambda x: np.cos(s * x), 0.0, 1.0, 1e-12, 10000,
                                max_panel_width=0.5 * math.pi / s)
        assert value == pytest.approx(math.sin(s) / s, abs=1e-12)

    def test_steep_exponential_adapts(self):
        value, _, splits = integrate(lambda x: np.exp(-40.0 * x), 0.0, 5.0, 1e-12, 10000)
        assert value == pytest.approx((1.0 - math.exp(-200.0)) / 40.0, rel=1e-11)
        assert splits > 0

    def test_error_estimate_is_honest(self):
        value, err, _ = integrate(lambda x: np.cos(7.0 * x) * np.exp(x), 0.0, 2.0, 1e-10, 10000)
        exact = (math.exp(2.0) * (math.cos(14.0) + 7.0 * math.sin(14.0)) - 1.0) / 50.0
        assert abs(value - exact) <= max(err, 1e-10)

    def test_empty_interval(self):
        assert integrate(np.sin, 1.0, 1.0, 1e-10, 10)[0] == 0.0

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ToleranceNotReached):
            integrate(lambda x: np.cos(3.0 * x), 0.0, 1.0, 1e-300, 8)

    def test_initial_panels_count_against_budget(self):
        # 1e300 initial panels are refused before any array is built
        with pytest.raises(ToleranceNotReached, match="initial panels"):
            integrate(np.sin, 0.0, 1.0, 1e-10, 100, max_panel_width=1e-300)
        value, _, _ = integrate(np.sin, 0.0, 1.0, 1e-10, 4, max_panel_width=0.25)
        assert value == pytest.approx(1.0 - math.cos(1.0), abs=1e-12)


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


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-10
        assert spec.max_subdivisions == 65536
        assert spec.oscillation_panel_factor == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-10},
            {"abs_tol": math.nan},
            {"max_subdivisions": 0},
            {"oscillation_panel_factor": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)
