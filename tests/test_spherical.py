import math
import tracemalloc

import numpy as np
import pytest

from spectral_chroma import (
    DEFAULT_QUADRATURE,
    DomainError,
    QuadratureSpec,
    SpectralParameter,
    ToleranceNotReached,
    eigenvalue,
    envelope,
    log_envelope,
    principal_grid,
)
from spectral_chroma import quadrature, spherical
from spectral_chroma.spherical import (
    COMPLEMENTARY,
    PRINCIPAL,
    _SERIES_MIN_R,
    _c_angle,
    _decay_bound,
    _eigenvalue_batch,
    _harish_chandra,
    _smooth_weight,
)
from oracles import eigenvalue_ode, eigenvalue_ode_batch, legendre

# Frozen references, computed with 40-digit arithmetic from two independent
# high-precision routes (hypergeometric evaluation of the conical Legendre
# function, and subdivided Gauss quadrature of the integral representation)
# that agreed to 22 digits.
PRINCIPAL_REFS = [
    (1.0, 2.0, 0.1972818801225096328208),
    (0.0, 1.0, 0.9408621592493498186239),
    (5.0, 1.0, -0.1661830696606811022523),
    (2.0, 1.5, -0.2098602801785281397096),
    (10.0, 0.5, -0.1746220416058153553842),
    (0.0, 4.0, 0.4640992940496052980607),
    (3.0, 4.0, 0.0155384359452944101308),
    (0.5, 10.0, -0.00786808901107196021178),
    (200.0, 30.0, 8.2040847045723780149e-9),
]
COMPLEMENTARY_REFS = [
    (0.5, 3.0, 1.0),
    (0.3, 2.0, 0.8663775323072228921168),
    (0.25, 7.0, 0.2860702384836357135181),
    (0.5, 30.0, 1.0),
]


class TestSpectralParameter:
    def test_canonical_sign(self):
        p = SpectralParameter.principal(-1.3)
        assert p.value == 1.3
        assert p.sign == -1

    def test_complementary_range(self):
        SpectralParameter.complementary(0.5)
        SpectralParameter.complementary(-0.5)
        with pytest.raises(DomainError):
            SpectralParameter.complementary(0.6)

    def test_rejects_bad_kind_and_nan(self):
        with pytest.raises(DomainError):
            SpectralParameter("spherical", 1.0)
        with pytest.raises(DomainError):
            SpectralParameter.principal(math.nan)


class TestEigenvalue:
    @pytest.mark.parametrize("s,r,expected", PRINCIPAL_REFS)
    def test_principal_reference_values(self, s, r, expected):
        assert eigenvalue(SpectralParameter.principal(s), r) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("sigma,r,expected", COMPLEMENTARY_REFS)
    def test_complementary_reference_values(self, sigma, r, expected):
        assert eigenvalue(SpectralParameter.complementary(sigma), r) == pytest.approx(expected, abs=1e-9)

    def test_degenerate_radius_is_one(self):
        assert eigenvalue(SpectralParameter.principal(7.0), 0.0) == 1.0

    def test_small_radius_limit(self):
        assert eigenvalue(SpectralParameter.principal(3.0), 1e-6) == pytest.approx(1.0, abs=1e-9)

    def test_trivial_endpoint_is_one(self):
        for r in (0.5, 3.0, 10.0, 30.0):
            v = eigenvalue(SpectralParameter.complementary(0.5), r)
            assert v == pytest.approx(1.0, abs=1e-9)

    def test_evenness(self):
        # kernels are even in the parameter; canonicalization makes it exact
        for s in (0.7, 1.3, 12.0):
            assert eigenvalue(SpectralParameter.principal(-s), 2.0) == eigenvalue(
                SpectralParameter.principal(s), 2.0
            )

    def test_principal_zero_matches_complementary_zero(self):
        a = eigenvalue(SpectralParameter.principal(0.0), 3.0)
        b = eigenvalue(SpectralParameter.complementary(0.0), 3.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_magnitude_bounded_by_one(self):
        rng = np.random.default_rng(201)
        for _ in range(50):
            s, r = rng.uniform(0.0, 50.0), rng.uniform(0.1, 20.0)
            assert abs(eigenvalue(SpectralParameter.principal(s), r)) <= 1.0 + 1e-9

    def test_complementary_positivity(self):
        for sigma in np.arange(0.0, 0.51, 0.1):
            for r in (0.5, 1.0, 5.0, 10.0, 30.0):
                assert eigenvalue(SpectralParameter.complementary(sigma), r) > 0.0

    def test_envelope_holds_on_sample(self):
        for r in (0.5, 2.0, 7.5, 15.0, 30.0):
            env = envelope(r)
            for s in np.arange(0.0, 50.1, 2.5):
                assert abs(eigenvalue(SpectralParameter.principal(s), r)) <= env + 1e-9

    def test_rejects_negative_radius(self):
        with pytest.raises(DomainError):
            eigenvalue(SpectralParameter.principal(1.0), -1.0)

    def test_budget_exhaustion_signals(self, monkeypatch):
        # on the complementary series, always integrated, at r = 100:
        # 2 initial panels fit, the refinement to 4 does not
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 3)
        with pytest.raises(ToleranceNotReached, match="panel budget 3"):
            eigenvalue(SpectralParameter.complementary(0.499), 100.0)

    def test_budget_caps_each_pass(self, monkeypatch):
        # 2 initial panels, then 4; the budget caps each pass, so a cap on
        # the panels of all passes together (6) would refuse this
        want = eigenvalue(SpectralParameter.complementary(0.499), 100.0)
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)
        assert eigenvalue(SpectralParameter.complementary(0.499), 100.0) == want

    def test_unreachable_tolerance_fails_before_refining(self, monkeypatch):
        passes = []
        rule = quadrature.panel_rule
        monkeypatch.setattr(quadrature, "panel_rule", lambda f, a, b: passes.append(a.size) or rule(f, a, b))
        with pytest.raises(ToleranceNotReached, match="round-off.*budget"):
            eigenvalue(SpectralParameter.principal(30.0), 5.0, QuadratureSpec(abs_tol=1e-300))
        assert passes == [8]  # the initial panels only


class TestOdeOracle:
    def test_agrees_with_quadrature(self):
        rng = np.random.default_rng(202)
        points = [(SpectralParameter.principal(rng.uniform(0.0, 50.0)), rng.uniform(0.05, 10.0))
                  for _ in range(25)]
        ode = eigenvalue_ode_batch(*zip(*points))
        for (p, r), u in zip(points, ode):
            assert abs(eigenvalue(p, r) - u) <= 1e-8

    def test_agrees_on_complementary(self):
        for sigma in (0.0, 0.2, 0.4, 0.5):
            for r in (0.5, 2.0, 8.0):
                p = SpectralParameter.complementary(sigma)
                assert abs(eigenvalue(p, r) - eigenvalue_ode(p, r)) <= 1e-8

    def test_constant_solution(self):
        assert eigenvalue_ode(SpectralParameter.complementary(0.5), 5.0) == pytest.approx(1.0, abs=1e-9)

    def test_initial_condition_at_tiny_radius(self):
        assert eigenvalue_ode(SpectralParameter.principal(5.0), 1e-6) == pytest.approx(1.0, abs=1e-9)

    def test_supported_window(self):
        with pytest.raises(ValueError):
            eigenvalue_ode(SpectralParameter.principal(101.0), 1.0)
        with pytest.raises(ValueError):
            eigenvalue_ode(SpectralParameter.principal(1.0), 31.0)


class TestPrincipalGrid:
    def test_matches_single_path(self):
        s = np.arange(0.0, 10.01, 0.5)
        grid = principal_grid(s, 4.0)
        single = [eigenvalue(SpectralParameter.principal(x), 4.0) for x in s]
        assert np.max(np.abs(grid - single)) <= 1e-9

    def test_progression_chunks_agree(self, monkeypatch):
        # 100 values per chunk: three coarse rows and one panel at a time
        s = np.arange(200) * 0.05
        whole = principal_grid(s, 7.0)
        monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", 100)
        np.testing.assert_allclose(principal_grid(s, 7.0), whole, rtol=0.0, atol=1e-14)

    def test_progression_memory_is_bounded_by_blocks(self):
        # the default r = 10 scan grid, first pass and refinement; its tables
        # and products hold at most _BLOCK_ELEMENTS values at a time
        s = np.arange(2001) * 0.05
        principal_grid(s, 10.0)
        tracemalloc.start()
        try:
            principal_grid(s, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_rejects_negative_grid(self):
        with pytest.raises(DomainError):
            principal_grid([-1.0, 0.0], 2.0)

    def test_degenerate_radius(self):
        assert np.all(principal_grid([0.0, 1.0, 5.0], 0.0) == 1.0)

    @pytest.mark.parametrize("kind,values,radii", [
        (PRINCIPAL, [0.0, 1.0, 5.0, 20.0, 2.0, 0.5, 40.0], [0.0, 2.0, 1.0, 4.0, 0.0, 7.0, 0.3]),
        (COMPLEMENTARY, [0.0, 0.3, 0.5, 0.25, 0.1, 0.45], [0.5, 0.0, 3.0, 10.0, 30.0, 1e-6]),
        # one shared panel misses abs_tol here, so both live items are refined
        (PRINCIPAL, [0.5, 0.0, 1.0], [1.5, 2.3, 0.0]),
        # large s near r = 2, where the mpmath reference needs its Pfaff fallback
        (PRINCIPAL, [900.0, 1.0], [1.9, 0.5]),
    ])
    def test_mixed_radius_batch(self, kind, values, radii):
        pytest.importorskip("mpmath")
        batch = _eigenvalue_batch(kind, np.array(values), np.array(radii), DEFAULT_QUADRATURE)
        for v, r, got in zip(values, radii, batch):
            param = SpectralParameter(kind, v)
            assert abs(got - eigenvalue(param, r)) <= DEFAULT_QUADRATURE.abs_tol
            assert abs(got - legendre(param, r)) <= 1e-10

    def test_batch_checks_every_radius(self):
        for bad in (-1.0, math.nan, 701.0):
            with pytest.raises(DomainError):
                _eigenvalue_batch(PRINCIPAL, np.ones(3), np.array([1.0, bad, 2.0]), DEFAULT_QUADRATURE)

    def test_panel_count_counts_against_budget(self):
        with pytest.raises(ToleranceNotReached, match="panel budget"):
            principal_grid([0.0, 1e300], 2.0)


class TestHarishChandra:
    @pytest.mark.parametrize("s", [1e-150, 1e-9, 1e-3, 0.5, 1.4705, 15.9, 16.0, 100.0, 1e6])
    def test_c_function_matches_mpmath(self, s):
        # c(s) = Gamma(is) / (sqrt(pi) Gamma(1/2 + is)): its angle from
        # _c_angle, its modulus from |c|^2 = coth(pi s) / (pi s)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            c = mpmath.gamma(1j * mpmath.mpf(s)) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(0.5 + 1j * mpmath.mpf(s)))
            angle, modulus = float(mpmath.arg(c)), float(abs(c))
        eps = np.finfo(float).eps
        assert abs(math.remainder(float(_c_angle(np.array([s]))[0]) - angle, 2.0 * math.pi)) <= 4.0 * eps
        assert abs(1.0 / math.sqrt(math.pi * s * math.tanh(math.pi * s)) - modulus) <= 4.0 * eps * modulus

    def test_agrees_with_integral_and_ode(self, monkeypatch):
        rng = np.random.default_rng(203)
        s, r = rng.uniform(0.0, 50.0, 25), rng.uniform(_SERIES_MIN_R, 30.0, 25)
        tol = DEFAULT_QUADRATURE.abs_tol
        assert np.all(_harish_chandra(s, r)[1] <= tol)
        series = _eigenvalue_batch(PRINCIPAL, s, r, DEFAULT_QUADRATURE)
        ode = eigenvalue_ode_batch([SpectralParameter.principal(x) for x in s], r)
        monkeypatch.setattr(spherical, "_SERIES_MIN_R", math.inf)
        integral = _eigenvalue_batch(PRINCIPAL, s, r, DEFAULT_QUADRATURE)
        assert np.max(np.abs(series - integral)) <= 2.0 * tol
        assert np.max(np.abs(series - ode)) <= 1e-8

    @pytest.mark.parametrize("r", [2.0, 4.0, 10.0, 30.0, 359.86, 700.0])
    def test_grid_point_equals_point_alone(self, r):
        s = np.arange(2001) * 0.05
        grid = principal_grid(s, r)
        for k in [1, 2, 3, 500, 1999, 2000]:
            assert grid[k] == eigenvalue(SpectralParameter.principal(s[k]), r), s[k]

    def test_item_equals_item_alone_at_per_item_radii(self):
        rng = np.random.default_rng(204)
        s, r = rng.uniform(1e-3, 100.0, 33), rng.uniform(_SERIES_MIN_R, 700.0, 33)
        batch = _eigenvalue_batch(PRINCIPAL, s, r, DEFAULT_QUADRATURE)
        for x, radius, got in zip(s, r, batch):
            assert got == eigenvalue(SpectralParameter.principal(x), radius)

    def test_unreachable_tolerance_falls_back(self):
        # at r = 4 and abs_tol 1e-20 the series' bound is above abs_tol, so
        # the item goes to the integral, whose round-off floor refuses it
        assert _harish_chandra(np.array([1.0]), np.float64(4.0))[1][0] > 1e-20
        with pytest.raises(ToleranceNotReached, match="round-off"):
            eigenvalue(SpectralParameter.principal(1.0), 4.0, QuadratureSpec(abs_tol=1e-20))


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_decay_bound_at_the_ends(self):
        # past double range the bound reads inf, which rules out nothing,
        # with no overflow or divide warning; above s = 1e300 it is the
        # bound at 1e300, larger than the true one and finite
        s = np.array([1e-6, 1e-4, 1.0, 1e300, 1.7976931348623157e308])
        for r in (5e-324, 1e-310, 1e-3, 4.0, 700.0):
            scale, bound = _decay_bound(s, r)
            assert np.all(bound > 0.0) and np.all(bound[:-1] >= bound[1:]), r
            assert np.all(np.isfinite(scale)), r
        assert np.all(np.isinf(_decay_bound(s[:3], 5e-324)[1]))
        assert _decay_bound(s[-1], 1e-3)[1] == _decay_bound(s[-2], 1e-3)[1]


class TestSmoothWeight:
    @pytest.mark.parametrize("panels", [1, 30, 4096])
    def test_matches_mpmath(self, panels):
        mpmath = pytest.importorskip("mpmath")
        edges = quadrature._panel_edges(panels)
        nodes, _ = quadrature._panel_nodes(edges[:-1], edges[1:])
        # every panel of 1 and 30, and of 4096 the eight at each end and every 128th
        nodes = nodes[np.unique(np.r_[0:8, 0:panels:max(1, panels // 32), -8:0] % panels)]
        before = nodes.copy()
        eps = np.finfo(float).eps
        for r in (5e-324, 1e-310, 1e-8, 0.5, 10.0, 359.86, 700.0):
            got = _smooth_weight(nodes, r)
            np.testing.assert_array_equal(nodes, before)
            with mpmath.workdps(50):
                rr = mpmath.mpf(r)
                for t, w in zip(nodes.ravel().tolist(), got.ravel().tolist()):
                    h = mpmath.mpf(t) ** 2 / 2
                    a, b = rr * (1 - h), rr * h
                    exact = 2 * mpmath.sqrt(2) / mpmath.pi / mpmath.sqrt(
                        (1 - h) * mpmath.sinh(a) / a * mpmath.sinh(b) / b)
                    # the r-proportional part is the rounding of a = r (1 - h)
                    assert abs(w - exact) <= (4.0 + r / 2.0) * eps * exact, (t, r)


class TestEnvelope:
    def test_values(self):
        assert envelope(0.0) == 1.0
        assert envelope(2.0) == pytest.approx(3.0 * math.exp(-1.0), rel=1e-15)
        assert envelope(10.0) == pytest.approx(11.0 * math.exp(-5.0), rel=1e-15)

    def test_log_space_region(self):
        # past the eigenvalue range, where exp(-r/2) is still a normal
        # double, the direct formula is within an ulp of 50-digit mpmath
        mpmath = pytest.importorskip("mpmath")
        for r in (800.0, 1000.0, 1400.0):
            with mpmath.workdps(50):
                error = abs(mpmath.mpf(envelope(r)) - (r + 1) * mpmath.exp(-mpmath.mpf(r) / 2))
            assert error <= math.ulp(envelope(r))

    def test_log_envelope_consistency(self):
        for r in (0.5, 2.0, 100.0):
            assert log_envelope(r) == pytest.approx(math.log(envelope(r)), rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            envelope(-1.0)
