"""Property sweeps of the eigenvalue routes and grid against mpmath's Legendre function."""

import math
from unittest import mock

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from spectral_chroma import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    SpectralParameter,
    eigenvalue,
    principal_grid,
    scan_principal,
)
import spectral_chroma.spectrum as spectrum
import spectral_chroma.spherical as spherical
from spectral_chroma.spherical import (
    MAX_EVAL_RADIUS,
    PRINCIPAL,
    _SERIES_MIN_R,
    _SERIES_S_WINDOW,
    _decay_bound,
    _eigenvalue_batch,
    _harish_chandra,
)

PARAMETERS = st.one_of(
    st.floats(0.0, 1e3).map(SpectralParameter.principal),
    st.floats(0.0, 0.5).map(SpectralParameter.complementary),
)


def legendre(param: SpectralParameter, r: float) -> float:
    """P_nu(cosh r) to about 30 digits, nu = -1/2 + is or -1/2 + sigma."""
    with mpmath.workdps(30):
        if param.kind == "principal":
            nu = mpmath.mpc(-0.5, param.value)
        else:
            nu = mpmath.mpf(-0.5) + param.value
        try:
            value = mpmath.legenp(nu, 0, mpmath.cosh(r), type=3, maxterms=10**6)
        except mpmath.libmp.NoConvergence:
            # for r near 2 legenp applies the Pfaff transformation
            # cosh(r/2)^(2 nu) 2F1(-nu, -nu; 1; tanh(r/2)^2) but drops
            # maxterms on the way, so large s needs it spelled out
            half = mpmath.mpf(r) / 2
            value = mpmath.cosh(half) ** (2 * nu) * mpmath.hyp2f1(
                -nu, -nu, 1, mpmath.tanh(half) ** 2, maxterms=10**6)
        return float(mpmath.re(value))


@settings(deadline=None, max_examples=50)
@given(param=PARAMETERS, r=st.floats(0.0, MAX_EVAL_RADIUS, exclude_min=True))
# the ends the graded panels stress: the widest first panel against a weight
# growing like exp(r t^2 / 4), the smallest radius, the most panels at a tiny
# radius, a complementary integrand peaked at t = 0, and a coarse-panel trap
@example(param=SpectralParameter.principal(0.5), r=700.0)
@example(param=SpectralParameter.principal(3.0), r=5e-324)
@example(param=SpectralParameter.principal(1e5), r=1e-3)
@example(param=SpectralParameter.complementary(0.5), r=600.0)
@example(param=SpectralParameter.principal(85.0), r=30.0)
# where 31-node panels are stretched furthest: verify-circle's widest radii
# at s = 20 and at s = 2, whose first pass is one panel, a large s on a
# coarse first pass, and sigma just below 1/2 on the widest panels
@example(param=SpectralParameter.principal(20.0), r=5.4)
@example(param=SpectralParameter.principal(2.0), r=5.4)
@example(param=SpectralParameter.principal(100.0), r=10.0)
@example(param=SpectralParameter.complementary(0.499), r=600.0)
def test_eigenvalue_within_abs_tol_of_legendre(param, r):
    exact = legendre(param, r)
    assert abs(eigenvalue(param, r) - exact) <= DEFAULT_QUADRATURE.abs_tol
    # the integral alone, which takes every value the series cannot certify
    with mock.patch.object(spherical, "_SERIES_MIN_R", math.inf):
        assert abs(eigenvalue(param, r) - exact) <= DEFAULT_QUADRATURE.abs_tol


def node_path(s, r):
    """principal_grid's values as the per-item node path computes them."""
    return _eigenvalue_batch(PRINCIPAL, s, np.full(s.size, r), DEFAULT_QUADRATURE)


# (s0, step): s0 = 0 with any step, or both on the lattice of 1/1024, where
# every s0 + k step is exact; either way the grid is a progression to the
# bit, which principal_grid requires of its matrix path
GRIDS = st.one_of(
    st.tuples(st.just(0.0), st.floats(0.01, 1.0)),
    st.tuples(st.integers(0, 100 * 1024), st.integers(11, 1024)).map(
        lambda ij: (ij[0] / 1024, ij[1] / 1024)),
)


@settings(deadline=None, max_examples=20)
@given(r=st.floats(0.0, _SERIES_MIN_R, exclude_min=True, exclude_max=True), start_step=GRIDS,
       n=st.integers(2, 3000))
# the default scan grids below the series' radii: scan-sweep's r = 0.1 and
# 0.5, and r just below 2, on the fewest panels per unit of phase there
@example(r=0.1, start_step=(0.0, 0.05), n=2001)
@example(r=0.5, start_step=(0.0, 0.05), n=2001)
@example(r=1.99, start_step=(0.0, 0.05), n=2001)
# a grid off s = 0, up to s = 85, on the widest panels below r = 2
@example(r=1.99, start_step=(50.0, 0.5), n=71)
def test_progression_grid_within_abs_tol(r, start_step, n):
    s0, step = start_step
    # at most 100 in s past s0, the span of the default scan grid for
    # r >= 0.4, so the point-by-point reference stays affordable
    n = min(n, 1 + int(100.0 / step))
    s = s0 + np.arange(n) * step
    with mock.patch.object(spherical, "_cosine_progression", wraps=spherical._cosine_progression) as matrix:
        grid = principal_grid(s, r)
    assert matrix.call_count == 1
    single = np.array([eigenvalue(SpectralParameter.principal(x), r) for x in s])
    assert np.max(np.abs(grid - single)) <= DEFAULT_QUADRATURE.abs_tol
    for k in {0, n // 3, (2 * n) // 3, n - 1}:
        assert abs(grid[k] - legendre(SpectralParameter.principal(s[k]), r)) <= DEFAULT_QUADRATURE.abs_tol
    # one point off the progression sends the whole grid down the node path
    off = s[:64].copy()
    off[-1] += 0.5 * step
    if off.size > 2:
        with mock.patch.object(spherical, "_cosine_progression") as matrix:
            np.testing.assert_array_equal(principal_grid(off, r), node_path(off, r))
        assert matrix.call_count == 0


@pytest.mark.parametrize("r", [0.1, 2.0, 10.0, 30.0])
def test_scan_refinement_stops_at_a_local_minimum(r):
    summary = scan_principal(r)
    tol = DEFAULT_QUADRATURE.abs_tol
    assert abs(summary.m_numeric - legendre(SpectralParameter.principal(summary.argmin_s), r)) <= tol
    for delta in (1e-3, 2e-2):
        for s in (max(summary.argmin_s - delta, 0.0), summary.argmin_s + delta):
            assert legendre(SpectralParameter.principal(s), r) >= summary.m_numeric - tol


@settings(deadline=None, max_examples=40)
@given(s=st.floats(1e-3, 300.0), r=st.floats(1e-3, 60.0))
@example(s=1e-3, r=1e-3)
@example(s=0.05, r=40.0)
@example(s=222.0, r=0.1)
def test_decay_bound_holds(s, r):
    # the bound the scan prunes by: it must not under-read the true value
    assert abs(legendre(SpectralParameter.principal(s), r)) <= _decay_bound(s, r)[1]


@settings(deadline=None, max_examples=30)
@given(r=st.floats(0.0, 40.0, exclude_min=True), s_max=st.floats(1.0, 120.0), step=st.floats(0.01, 1.0))
# default scans where the kept prefix ends one point past the minimum's
# bracket (r = 10, 20 and 40), the two default scans below the series'
# radii, and a window that ends before 4/r, the probe's place
@example(r=10.0, s_max=None, step=0.05)
@example(r=20.0, s_max=None, step=0.05)
@example(r=40.0, s_max=None, step=0.05)
@example(r=0.1, s_max=None, step=0.05)
@example(r=0.5, s_max=None, step=0.05)
@example(r=2.0, s_max=1.0, step=0.05)
def test_pruned_scan_matches_the_whole_grid(r, s_max, step):
    pruned = scan_principal(r, s_max, step)
    # the reduction over every grid point, with none ruled out
    with mock.patch.object(spectrum, "_undecided_points", lambda grid, *a: grid.size):
        whole = scan_principal(r, s_max, step)
    if r >= _SERIES_MIN_R:
        # the series is elementwise, so the kept points read as they do in the whole grid
        assert (pruned.m_numeric, pruned.argmin_s) == (whole.m_numeric, whole.argmin_s)
    else:
        # fewer points share fewer panels, so values may move within abs_tol
        exact = legendre(SpectralParameter.principal(pruned.argmin_s), r)
        assert abs(pruned.m_numeric - exact) <= DEFAULT_QUADRATURE.abs_tol


LARGE_RADIUS_CASE = (SpectralParameter.principal(1.4705), 359.86, QuadratureSpec(abs_tol=1e-80))


def test_estimate_bounds_error_at_large_radius():
    # the value users get, from the Harish-Chandra series
    param, r, quad = LARGE_RADIUS_CASE
    assert abs(eigenvalue(param, r, quad) - legendre(param, r)) <= quad.abs_tol


@pytest.mark.xfail(strict=True, reason="the (200 raw)^1.5 estimate lacks QUADPACK's resasc scale")
def test_integral_estimate_bounds_error_at_large_radius(monkeypatch):
    # the same input on the integral route, with the series turned away
    monkeypatch.setattr(spherical, "_SERIES_MIN_R", math.inf)
    param, r, quad = LARGE_RADIUS_CASE
    assert abs(eigenvalue(param, r, quad) - legendre(param, r)) <= quad.abs_tol


@settings(deadline=None, max_examples=50)
@given(s=st.floats(0.0, 100.0), r=st.floats(_SERIES_MIN_R, MAX_EVAL_RADIUS))
# s = 0, which the series leaves to the integral, s = 1e-9, whose pole
# cancellation its bound leaves there too, the largest radius, and the
# largest s of the sweep on the slowest-converging 2F1
@example(s=0.0, r=20.0)
@example(s=1e-9, r=20.0)
@example(s=1e-9, r=700.0)
@example(s=5.0, r=700.0)
@example(s=100.0, r=2.0)
def test_series_route_within_abs_tol_of_legendre(s, r):
    param = SpectralParameter.principal(s)
    exact = legendre(param, r)
    assert abs(eigenvalue(param, r) - exact) <= DEFAULT_QUADRATURE.abs_tol
    if s >= _SERIES_S_WINDOW[0]:
        # the series' reported bound is at least its true error
        value, bound = _harish_chandra(np.array([s]), np.float64(r))
        assert abs(value[0] - exact) <= bound[0]


# where the integral route lost its digits: relative errors of 6.5e-15 to
# 64, with the sign wrong at r = 600, s = 5
@pytest.mark.parametrize("r", [50.0, 70.0, 100.0, 120.0, 300.0, 600.0])
@pytest.mark.parametrize("s", [0.5, 5.0, 50.0])
def test_series_digits_at_large_radius(r, s):
    param = SpectralParameter.principal(s)
    exact = legendre(param, r)
    assert abs(eigenvalue(param, r) - exact) <= 1e-12 * abs(exact)


def test_series_at_large_s_near_the_smallest_radius():
    # no growth in the 2F1's terms at large s, so r = 2, s = 1000 takes the
    # series, with its bound far inside abs_tol
    param, r = SpectralParameter.principal(1000.0), 2.0
    assert _harish_chandra(np.array([param.value]), np.float64(r))[1][0] <= 1e-3 * DEFAULT_QUADRATURE.abs_tol
    exact = legendre(param, r)
    assert abs(eigenvalue(param, r) - exact) <= 1e-12 * abs(exact)
