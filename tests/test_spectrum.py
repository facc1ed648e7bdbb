import math

import numpy as np
import pytest

import spectral_chroma.geometry as geometry
import spectral_chroma.quadrature as quadrature
import spectral_chroma.spectrum as spectrum
from spectral_chroma import (
    ORIGIN,
    DomainError,
    Point,
    QuadratureSpec,
    SpectralParameter,
    envelope,
    full_range_floor,
    principal_grid,
    scan_principal,
    verify_eigenfunction,
)

# regression values for the r=4 scan, pinned by the scan itself after
# cross-checking the minimum location against a 40-digit grid search
R4_MIN = -0.15307119445262743
R4_ARGMIN = 0.9841481056098315


def node_batch_sizes(monkeypatch) -> list[int]:
    """Items per node-path panel_rule call, recorded from here on."""
    sizes = []
    rule = quadrature.panel_rule

    def spy(f, lefts, rights):
        kron, err = rule(f, lefts, rights)
        sizes.append(kron.shape[0])
        return kron, err

    monkeypatch.setattr(quadrature, "panel_rule", spy)
    return sizes


class TestScanPrincipal:
    def test_r4_bracket_and_regression(self):
        summary = scan_principal(4.0, s_max=50.0, grid_step=0.05)
        assert -envelope(4.0) <= summary.m_numeric < 0.0
        assert summary.m_numeric == pytest.approx(R4_MIN, abs=1e-8)
        assert summary.argmin_s == pytest.approx(R4_ARGMIN, abs=1e-4)
        assert summary.M == 1.0
        assert summary.m_analytic == -envelope(4.0)
        assert not summary.degenerate

    def test_grid_halving_stability(self):
        a = scan_principal(4.0, s_max=20.0, grid_step=0.05)
        b = scan_principal(4.0, s_max=20.0, grid_step=0.025)
        assert abs(a.m_numeric - b.m_numeric) < 1e-6

    def test_floor_consistency_across_radii(self):
        for r in (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0):
            summary = scan_principal(r, s_max=20.0, grid_step=0.1)
            assert summary.m_analytic <= summary.m_numeric <= 0.0

    def test_degenerate_scan_flagged(self):
        summary = scan_principal(80.0)
        assert summary.degenerate
        assert summary.m_numeric == 0.0
        assert summary.M == 1.0

    def test_grid_takes_the_matrix_path(self, monkeypatch):
        sizes = node_batch_sizes(monkeypatch)
        summary = scan_principal(4.0)
        assert summary.s_max_scanned == 100.0
        # only the refinement sub-grids, one batch per level, use nodes
        assert sizes and set(sizes) == {33} and len(sizes) <= 7

    def test_default_window(self):
        summary = scan_principal(0.5, s_max=None, grid_step=2.0)
        assert summary.s_max_scanned == 100.0

    def test_keeps_its_grid(self):
        summary = scan_principal(4.0, s_max=5.0, grid_step=0.5)
        np.testing.assert_array_equal(summary.grid, np.arange(0.0, 5.25, 0.5))
        np.testing.assert_array_equal(summary.grid_values, principal_grid(summary.grid, 4.0))
        assert summary == scan_principal(4.0, s_max=5.0, grid_step=0.5)
        assert scan_principal(80.0).grid_values is None

    def test_grid_is_computed_on_first_read(self):
        # the summary holds no array until its grid is read, and then the
        # scanned values, under the scan's own quadrature settings
        quad = QuadratureSpec(abs_tol=1e-12)
        summary, grid, values = spectrum._scan(4.0, 5.0, 0.5, quad)
        assert not any(isinstance(v, np.ndarray) for v in vars(summary).values())
        np.testing.assert_array_equal(summary.grid, grid)
        np.testing.assert_array_equal(summary.grid_values, values)
        assert summary.grid_values is summary.grid_values
        assert spectrum._scan(80.0, None, 0.05, quad)[1:] == (None, None)

    def test_grid_size_capped_before_allocation(self):
        with pytest.raises(DomainError, match="scan grid"):
            scan_principal(4.0, grid_step=1e-300)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            scan_principal(0.0)
        with pytest.raises(DomainError):
            scan_principal(4.0, s_max=0.5)
        with pytest.raises(DomainError):
            scan_principal(4.0, grid_step=0.0)


class TestFullRangeFloor:
    def test_values(self):
        assert full_range_floor(2.0) == pytest.approx(-3.0 * math.exp(-1.0), rel=1e-15)
        assert full_range_floor(10.0) == pytest.approx(-11.0 * math.exp(-5.0), rel=1e-15)

    def test_floor_below_scanned_minimum(self):
        for r in (1.0, 3.0, 6.0):
            summary = scan_principal(r, s_max=30.0, grid_step=0.1)
            assert full_range_floor(r) <= summary.m_numeric

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            full_range_floor(0.0)


class TestVerifyEigenfunction:
    def test_constant_function(self):
        res = verify_eigenfunction(SpectralParameter.complementary(0.5), 1.5, Point(0.7, 2.0), 64)
        assert res <= 1e-12

    def test_base_at_origin(self):
        # every circle point sits at distance r from the origin, so the
        # identity holds up to quadrature noise already at small n
        res = verify_eigenfunction(SpectralParameter.principal(3.2), 1.5, ORIGIN, 16)
        assert res <= 1e-10

    def test_generic_base_converged(self):
        res = verify_eigenfunction(SpectralParameter.principal(2.0), 1.5, Point(0.7, 2.0), 2048)
        assert res < 1e-6

    def test_residual_decays_with_n(self):
        p = SpectralParameter.principal(8.0)
        base = Point(1.5, 0.7)
        coarse = verify_eigenfunction(p, 4.0, base, 64)
        fine = verify_eigenfunction(p, 4.0, base, 2048)
        assert fine < coarse
        assert fine < 1e-6
        assert coarse > 1e-10  # genuinely under-resolved at n=64

    def test_one_batch_call_and_no_scalar_calls(self, monkeypatch):
        batches = []
        batch = spectrum._eigenvalue_batch
        monkeypatch.setattr(spectrum, "_eigenvalue_batch", lambda *a: batches.append(a) or batch(*a))
        monkeypatch.setattr(spectrum, "eigenvalue", None, raising=False)
        res = verify_eigenfunction(SpectralParameter.principal(2.0), 1.5, Point(0.7, 2.0), 256)
        assert res < 1e-6
        assert len(batches) == 1
        assert batches[0][2].size == 256 + 2

    def test_one_geometry_call_and_no_scalar_circle_points(self, monkeypatch):
        circles, points = [], []
        coords = spectrum.circle_coords
        monkeypatch.setattr(spectrum, "circle_coords", lambda *a: circles.append(a) or coords(*a))
        point = geometry.circle_point
        monkeypatch.setattr(geometry, "circle_point", lambda *a: points.append(a) or point(*a))
        monkeypatch.setattr(spectrum, "circle_point", geometry.circle_point, raising=False)
        res = verify_eigenfunction(SpectralParameter.principal(2.0), 1.5, Point(0.7, 2.0), 2048)
        assert res < 1e-6
        assert len(circles) == 1
        assert np.size(circles[0][2]) == 2048
        assert points == []

    def test_rejects_n_over_cap(self):
        with pytest.raises(DomainError, match="n_points"):
            verify_eigenfunction(SpectralParameter.principal(1.0), 1.0, ORIGIN, spectrum.MAX_BATCH_POINTS + 1)

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            verify_eigenfunction(SpectralParameter.principal(1.0), 1.0, ORIGIN, 7)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            verify_eigenfunction(SpectralParameter.principal(1.0), 0.0, ORIGIN, 16)
