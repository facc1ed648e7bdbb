import math
import tracemalloc

import numpy as np
import pytest

import spectral_chroma.quadrature as quadrature
import spectral_chroma.spectrum as spectrum
import spectral_chroma.spherical as spherical
from spectral_chroma import (
    DEFAULT_QUADRATURE,
    ORIGIN,
    DomainError,
    Point,
    QuadratureSpec,
    SpectralParameter,
    circle_point,
    distance,
    eigenvalue,
    envelope,
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
        for r in (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0):
            summary = scan_principal(r, s_max=20.0, grid_step=0.1)
            assert summary.m_analytic <= summary.m_numeric <= 0.0

    def test_degenerate_scan_flagged(self):
        summary = scan_principal(80.0)
        assert summary.degenerate
        assert summary.m_numeric == 0.0
        assert summary.M == 1.0

    def test_grid_takes_the_matrix_path(self, monkeypatch):
        # below spherical._SERIES_MIN_R, where no point takes the series
        sizes = node_batch_sizes(monkeypatch)
        summary = scan_principal(1.5)
        assert summary.s_max_scanned == 100.0
        # only the probe near s = 4/r, a batch of one, and the three
        # 65-point refinement sub-grids, one batch per level, use nodes
        assert sizes == [1, 65, 65, 65]

    def test_prefix_below_r2_takes_the_matrix_path(self, monkeypatch):
        # the kept prefix, s = 0 included, is one progression on 3 panels
        # (one per 3 pi of the phase s r, 22.3 at s = 222.7); the node path
        # sees only the probe and the two refinement sub-grids
        calls = []
        progression = spherical._cosine_progression
        monkeypatch.setattr(spherical, "_cosine_progression",
                            lambda *a: calls.append(a) or progression(*a))
        sizes = node_batch_sizes(monkeypatch)
        scan_principal(0.1)
        assert [(c[0], c[2], math.ceil(c[5])) for c in calls] == [(0.0, 4455, 3)]
        assert sizes == [1, 65, 65]

    def test_default_window(self):
        summary = scan_principal(0.5, s_max=None, grid_step=2.0)
        assert summary.s_max_scanned == 100.0

    def test_keeps_its_grid(self):
        summary = scan_principal(4.0, s_max=5.0, grid_step=0.5)
        np.testing.assert_array_equal(summary.grid, np.arange(0.0, 5.25, 0.5))
        np.testing.assert_array_equal(summary.grid_values, principal_grid(summary.grid, 4.0))
        assert summary == scan_principal(4.0, s_max=5.0, grid_step=0.5)
        assert scan_principal(80.0).grid_values is None

    def test_grid_is_computed_on_first_read(self, monkeypatch):
        # the summary holds no array until its grid is read, and then the
        # whole grid and its values, under the scan's own quadrature
        # settings; the scan itself evaluated a prefix of it, the same bit
        # for bit at r >= 2
        calls = []

        def spy(grid, r, quad):
            values = principal_grid(grid, r, quad)
            calls.append((grid, quad, values))
            return values

        monkeypatch.setattr(spectrum, "principal_grid", spy)
        quad = QuadratureSpec(abs_tol=1e-12)
        summary = scan_principal(4.0, 5.0, 0.5, quad)
        assert not any(isinstance(v, np.ndarray) for v in vars(summary).values())
        # the probe's one point, then the kept prefix
        assert len(calls) == 2 and calls[0][0].size == 1
        grid, _, values = calls[1]
        np.testing.assert_array_equal(summary.grid, np.arange(0.0, 5.25, 0.5))
        assert 2 <= grid.size < summary.grid.size
        np.testing.assert_array_equal(summary.grid[:grid.size], grid)
        np.testing.assert_array_equal(summary.grid_values[:grid.size], values)
        # the whole grid, once, on first read
        assert len(calls) == 3 and calls[2][0] is summary.grid and calls[2][1] is quad
        assert summary.grid_values is calls[2][2]
        assert summary.grid_values is summary.grid_values and len(calls) == 3
        degenerate = scan_principal(80.0, None, 0.05, quad)
        assert (degenerate.grid, degenerate.grid_values) == (None, None) and len(calls) == 3

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
        # half the circle, angles 0 to pi, then the base and r
        assert batches[0][2].size == 256 // 2 + 1 + 2

    @staticmethod
    def circle_residual(param, r, base, n):
        """The residual from the whole circle's coordinates, by circle_point and distance."""
        radii = [distance(ORIGIN, circle_point(base, r, j * 2.0 * math.pi / n)) for j in range(n)]
        radii = np.array(radii + [distance(base, ORIGIN), r])
        lam = spectrum._eigenvalue_batch(param.kind, np.full(radii.size, param.value), radii,
                                         QuadratureSpec())
        return abs(float(np.mean(lam[:n])) - float(lam[-2] * lam[-1]))

    @pytest.mark.parametrize("n", [2048, 2049])
    def test_matches_the_mean_over_circle_points(self, n):
        for r, base in TestIntegrandWork.CIRCLE_SITES:
            for param in TestIntegrandWork.CIRCLE_PARAMS:
                res = verify_eigenfunction(param, r, base, n)
                assert abs(res - self.circle_residual(param, r, base, n)) <= 1e-15, (param, r)

    @pytest.mark.parametrize("base, n", [(Point(0.0, 0.5), 8), (Point(0.0, 0.5), 9), (Point(0.0, 2.0), 8),
                                         (Point(0.0, 2.0), 12)],
                             ids=["below-i-8", "below-i-9", "above-i-8", "above-i-12"])
    def test_matches_unconverged_means_over_circle_points(self, base, n):
        # on the imaginary axis, circle_point's angles 2 pi j / n fall on the
        # same points as verify's (all n below i, even n above it), so the
        # two agree before the trapezoid rule has converged
        param = SpectralParameter.principal(2.0)
        res = verify_eigenfunction(param, 1.5, base, n)
        assert res > 1e-8
        assert res == pytest.approx(self.circle_residual(param, 1.5, base, n), rel=1e-12)

    def test_memory_is_bounded_by_node_blocks(self):
        # the heaviest verify-circle case: 1027 radii on 5 panels, whose
        # integrand values are built in blocks of _NODE_BLOCK_ELEMENTS
        p, base = SpectralParameter.principal(20.0), Point(-0.3, 0.8)
        verify_eigenfunction(p, 5.0, base, 2048)
        tracemalloc.start()
        try:
            verify_eigenfunction(p, 5.0, base, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rejects_n_over_cap(self):
        with pytest.raises(DomainError, match="n_points"):
            verify_eigenfunction(SpectralParameter.principal(1.0), 1.0, ORIGIN, spectrum.MAX_BATCH_POINTS + 1)

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            verify_eigenfunction(SpectralParameter.principal(1.0), 1.0, ORIGIN, 7)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            verify_eigenfunction(SpectralParameter.principal(1.0), 0.0, ORIGIN, 16)


def refine_passes(monkeypatch) -> list[tuple[int, int]]:
    """(items, panels) of every quadrature pass, recorded from here on."""
    passes = []
    refine = quadrature._refine

    def spy(evaluate, *args):
        def recorded(todo, panels):
            passes.append((todo.size, panels))
            return evaluate(todo, panels)

        return refine(recorded, *args)

    monkeypatch.setattr(quadrature, "_refine", spy)
    return passes


def integrand_values(passes) -> int:
    """Integrand values of the recorded passes: items x panels x nodes per panel."""
    return sum(items * panels for items, panels in passes) * quadrature._NODES.size


def series_items(monkeypatch) -> list[int]:
    """Items the Harish-Chandra series certifies at the default abs_tol, per call, recorded from here on."""
    counts = []
    series = spherical._harish_chandra

    def spy(s, r):
        values, bounds = series(s, r)
        counts.append(int(np.count_nonzero(bounds <= DEFAULT_QUADRATURE.abs_tol)))
        return values, bounds

    monkeypatch.setattr(spherical, "_harish_chandra", spy)
    return counts


class TestIntegrandWork:
    """Integrand work, as integrand values summed over passes, held to upper bounds.

    The counts are exact and do not depend on the machine's speed, so a
    layout, panel-count or rule regression fails here however noisy the
    timing; counting values rather than panels keeps the bounds comparable
    across rules.  The finest passes are bounded by their recorded figures
    and the totals with about 0.5% room, since the items a second pass
    refines sit near abs_tol and rounding may move a few of them.  The
    items the Harish-Chandra series takes are counted exactly: their
    bounds lie orders of magnitude below abs_tol.
    """

    SWEEP_RADII = [0.1, 0.5, 2.0, 4.0, 7.0, 10.0, 15.0, 20.0, 30.0]
    # 0 where no value is integrated: from r = 2 on, the series and the
    # closed form for s = 0 take every value
    SWEEP_FINEST = [3, 1, 0, 0, 0, 0, 0, 0, 0]
    CIRCLE_SITES = [(1.5, Point(0.7, 2.0)), (5.0, Point(-0.3, 0.8))]
    CIRCLE_PARAMS = [SpectralParameter.principal(0.5), SpectralParameter.principal(2.0),
                     SpectralParameter.principal(20.0), SpectralParameter.complementary(0.3)]
    CIRCLE_FINEST = [1, 1, 3, 1, 1, 1, 2, 1]

    def test_default_scans(self, monkeypatch):
        passes, series = refine_passes(monkeypatch), series_items(monkeypatch)
        finest, total = [], 0
        for r in self.SWEEP_RADII:
            passes.clear()
            scan_principal(r)
            finest.append(max((panels for _, panels in passes), default=0))
            total += integrand_values(passes)
        assert all(f <= bound for f, bound in zip(finest, self.SWEEP_FINEST)), finest
        # 432,419 on 15/31 panels, on the grid points the decay bound cannot
        # rule out and the refinement sub-grids the curvature bound asks
        # for: 418,376 and 14,043 at r = 0.1 and 0.5, none from r = 2 on.
        # 1,122,324 with the first pass sized by sqrt(r) s (8 panels at
        # r = 0.1), s = 0 integrated and 33-point sub-grids; 1,134,600 with
        # seven refinement levels at every radius, 3,990,382 on the whole
        # grids, 23,969,572 before the series, 38,250,075 on 7/15 panels
        assert total <= 434_500
        # from r = 2 on, the probe, the 41 to 4 kept grid points with s > 0
        # (42, 22, 14, 10, 8, 6 and 5 kept, s = 0 included) and the
        # refinement sub-grids of 65 points, three levels at r = 2 to 20 and
        # two at r = 30 (TestRefinementDepth); 965 with four and three
        # levels of 33 points, and 7 * (1 + 7 * 33) + 100 = 1,724 with seven
        # levels at every radius
        assert sum(series) == 7 * 1 + (41 + 21 + 13 + 9 + 7 + 5 + 4) + 65 * (6 * 3 + 1 * 2)

    def test_small_radius_scan(self, monkeypatch):
        # the default window at r = 8e-4 is 1,000,001 points up to s = 5e4,
        # all kept, on 5 panels for the phase s r = 40: 155,002,201 values,
        # where 151 panels for sqrt(r) s took 4,681,020,522
        passes = refine_passes(monkeypatch)
        scan_principal(8e-4)
        assert [items for items, _ in passes] == [1, 1_000_001, 65]
        assert integrand_values(passes) <= 155_800_000

    def test_circle_verification(self, monkeypatch):
        passes, series = refine_passes(monkeypatch), series_items(monkeypatch)
        finest, total = [], 0
        for r, base in self.CIRCLE_SITES:
            for param in self.CIRCLE_PARAMS:
                passes.clear()
                verify_eigenfunction(param, r, base, 2048)
                # every case integrates what the series leaves in one batch,
                # accepted on its first pass: at r = 5 on the principal
                # series only the base, at distance 0.40 from i, below
                # spherical._SERIES_MIN_R
                assert len(passes) == 1, (param, r, passes)
                finest.append(passes[0][1])
                total += integrand_values(passes)
        assert all(f <= bound for f, bound in zip(finest, self.CIRCLE_FINEST)), finest
        # 157,108 with the series; 477,555 over half the circle before it;
        # 953,250 over the whole circle on 15/31 panels, 1,568,190 on 7/15 ones
        assert total <= 157_900
        # the 425 circle points at distance 2 or more from i at r = 1.5, and
        # at r = 5 all 1,025 and r itself, for each principal parameter
        assert sum(series) == 3 * (425 + 1026)

    @pytest.mark.parametrize("r,bound", [(100.0, 186), (300.0, 651), (600.0, 868)])
    def test_complementary_near_one_half(self, monkeypatch, r, bound):
        # its mass sits in t <~ 1/sqrt(sigma r), inside the widest panels of
        # every pass; 315/1,260/1,680 values on 7/15 panels
        passes = refine_passes(monkeypatch)
        eigenvalue(SpectralParameter.complementary(0.499), r)
        assert integrand_values(passes) <= bound


def refinement_batches(monkeypatch) -> list[int]:
    """Items per spectrum._eigenvalue_batch call, recorded from here on.

    A scan evaluates its grid through principal_grid, so within a scan
    only the refinement sub-grids, one batch per level, are recorded.
    """
    sizes = []
    batch = spectrum._eigenvalue_batch

    def spy(kind, values, radii, quad):
        sizes.append(values.size)
        return batch(kind, values, radii, quad)

    monkeypatch.setattr(spectrum, "_eigenvalue_batch", spy)
    return sizes


def fixed_width_levels(curvature, grid_step, width, abs_tol):
    """The level count that takes the bracket to 1e-9 in s, whatever the curvature."""
    narrowing = (spectrum._REFINE_POINTS - 1) / 2
    return math.ceil(math.log(width / 1e-9, narrowing)) if width > 1e-9 else 0


class TestRefinementDepth:
    """How many refinement sub-grids a scan lays, and what stopping there costs in value.

    The counts are exact and do not depend on the machine's speed.
    """

    def test_default_sweep(self, monkeypatch):
        batches, levels = refinement_batches(monkeypatch), []
        for r in TestIntegrandWork.SWEEP_RADII:
            batches.clear()
            scan_principal(r)
            levels.append(len(batches))
        # [2, 3, 3, 3, 3, 3, 3, 3, 2] with 65-point sub-grids; 32 with 33
        # points, [3, 3, 4, 4, 4, 4, 4, 3, 3]; 63, seven at every radius,
        # when the bracket was refined to 1e-9 in s
        assert sum(levels) <= 25, levels

    @pytest.mark.parametrize("abs_tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("r", [0.003, 0.1, 0.5, 2.0, 4.0, 10.0, 30.0, 50.0])
    def test_value_within_its_slack_of_a_fixed_width_refinement(self, monkeypatch, r, abs_tol):
        # the same grid and bracket refined to 1e-9 in s reads at most
        # _REFINE_SLACK abs_tol lower (about 0.01 abs_tol at most here); it
        # cannot read higher, as it samples every level the scan does and
        # more.  r = 50 at abs_tol 1e-10 is degenerate, m_numeric = 0 on both.
        quad = QuadratureSpec(abs_tol=abs_tol)
        scanned = scan_principal(r, quad=quad)
        monkeypatch.setattr(spectrum, "_refine_levels", fixed_width_levels)
        reference = scan_principal(r, quad=quad)
        assert 0.0 <= scanned.m_numeric - reference.m_numeric <= spectrum._REFINE_SLACK * abs_tol

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r", [1e-200, 5e-324])
    def test_no_levels_where_r_squared_underflows(self, monkeypatch, r):
        # every value reads 1 and r * r is 0, so the curvature bound asks
        # for no refinement, and nothing divides by it
        assert r * r == 0.0
        batches = refinement_batches(monkeypatch)
        summary = scan_principal(r, 1.0, 1e-4)
        assert batches == []
        assert (summary.m_numeric, summary.argmin_s) == (1.0, 0.0)
