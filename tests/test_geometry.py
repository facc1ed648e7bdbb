import math
import re

import numpy as np
import pytest

from spectral_chroma import (
    MAX_CIRCLE_RADIUS,
    ORIGIN,
    DomainError,
    Point,
    circle_point,
    distance,
)
from spectral_chroma.geometry import coord_distance


def iwasawa_action(rng):
    """The isometry z -> (az+b)/(cz+d) of shear(x) * diag(e^(t/2), e^(-t/2)) * rotation(phi)."""
    x = rng.uniform(-2.0, 2.0)
    t = rng.uniform(-3.0, 3.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    e = math.exp(0.5 * t)
    c, d = -math.sin(phi) / e, math.cos(phi) / e
    a, b = e * math.cos(phi) + x * c, e * math.sin(phi) + x * d

    def act(p: Point) -> Point:
        z = complex(p.x, p.y)
        w = (a * z + b) / (c * z + d)
        return Point(w.real, w.imag)

    return act


def random_point(rng) -> Point:
    return Point(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 5.0))


class TestPoint:
    def test_rejects_boundary_and_lower_half(self):
        for y in (0.0, -1.0, -1e-300):
            with pytest.raises(DomainError):
                Point(0.0, y)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Point(math.nan, 1.0)
        with pytest.raises(DomainError):
            Point(0.0, math.inf)


class TestDistance:
    def test_origin_to_e(self):
        assert distance(ORIGIN, Point(0.0, math.e)) == pytest.approx(1.0, abs=1e-12)

    def test_identity_is_zero(self):
        assert distance(ORIGIN, ORIGIN) == 0.0

    def test_unit_horizontal(self):
        assert distance(ORIGIN, Point(1.0, 1.0)) == pytest.approx(math.acosh(1.5), abs=1e-15)

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            p, q = random_point(rng), random_point(rng)
            assert distance(p, q) == distance(q, p)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(102)
        for _ in range(200):
            p, q, z = (random_point(rng) for _ in range(3))
            assert distance(p, q) <= distance(p, z) + distance(z, q) + 1e-12

    def test_positive_for_distinct(self):
        assert distance(ORIGIN, Point(1e-8, 1.0)) > 0.0

    def test_tiny_heights_do_not_underflow(self):
        # y1 * y2 = 1e-400 underflows; 2 asinh(1e200 / 2) = 2 log(1e200) to double precision
        p, q = Point(0.0, 1e-200), Point(1.0, 1e-200)
        assert distance(p, q) == pytest.approx(400.0 * math.log(10.0), rel=1e-15)
        assert distance(p, q) == distance(q, p)

    def test_tiny_separation_does_not_underflow(self):
        # the squared separation 1e-400 would underflow to a distance of 0
        p, q = Point(0.0, 1e-200), Point(1e-200, 1e-200)
        assert distance(p, q) == pytest.approx(2.0 * math.asinh(0.5), rel=1e-15)

    def test_huge_separation_matches_mpmath(self):
        # the squared separation 1e400 would overflow
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            y = mpmath.mpf(1e200)
            want = float(mpmath.acosh(1 + (y - 1) ** 2 / (2 * y)))
        assert distance(ORIGIN, Point(0.0, 1e200)) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(460.517, abs=1e-3)

    def test_overflowing_ratio_matches_mpmath(self):
        # the separation 1e308 is finite, but divided by sqrt(exp(-1.5)) it is not
        mpmath = pytest.importorskip("mpmath")
        y = math.exp(-1.5)
        with mpmath.workdps(40):
            x1, y1 = mpmath.mpf(1e308), mpmath.mpf(y)
            want = float(mpmath.acosh(1 + (x1 ** 2 + (y1 - 1) ** 2) / (2 * y1)))
        assert want == pytest.approx(1419.892, abs=1e-3)
        assert coord_distance(1e308, y, 0.0, 1.0) == pytest.approx(want, rel=1e-15)
        assert coord_distance(0.0, 1.0, 1e308, y) == coord_distance(1e308, y, 0.0, 1.0)
        # in an array, the overflowing pair leaves its neighbours as they were
        d = coord_distance(np.array([0.0, 1e308, 1.0]), np.array([1.0, y, 1.0]), 0.0, 1.0)
        assert d[0] == 0.0 and d[1] == coord_distance(1e308, y, 0.0, 1.0)
        assert d[2] == distance(ORIGIN, Point(1.0, 1.0))

    def test_separation_beyond_double_range_is_refused(self):
        with pytest.raises(DomainError, match="leaves double range"):
            distance(Point(-1e308, 1.0), Point(1e308, 1.0))

    def test_isometry_invariance(self):
        rng = np.random.default_rng(104)
        for _ in range(1000):
            g = iwasawa_action(rng)
            p, q = random_point(rng), random_point(rng)
            assert abs(distance(g(p), g(q)) - distance(p, q)) < 1e-10


class TestCirclePoint:
    def test_theta_zero_at_origin(self):
        q = circle_point(ORIGIN, 1.0, 0.0)
        assert abs(q.x) < 1e-15
        assert q.y == pytest.approx(math.e, rel=1e-13)

    def test_degenerate_circle(self):
        q = circle_point(ORIGIN, 0.0, 1.234)
        assert q.x == pytest.approx(0.0, abs=1e-15)
        assert q.y == pytest.approx(1.0, abs=1e-15)

    def test_sweep_keeps_radius(self):
        center = ORIGIN
        for theta in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
            assert abs(distance(center, circle_point(center, 2.0, theta)) - 2.0) <= 1e-10

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 5.0, 10.0, 40.0])
    def test_random_centers(self, r):
        rng = np.random.default_rng(106)
        for _ in range(25):
            center = random_point(rng)
            for theta in rng.uniform(0.0, 2.0 * math.pi, 64):
                assert abs(distance(center, circle_point(center, r, theta)) - r) <= 1e-9

    def test_coords_match_circle_point_and_map_composition(self):
        mpmath = pytest.importorskip("mpmath")
        center = Point(-0.3, 0.8)
        thetas = np.arange(256) * (2.0 * math.pi / 256)
        eps = np.finfo(float).eps
        for r in (1e-300, 1e-8, 0.5, 5.0, 40.0):
            # the image of i under origin_to(center) * rotation(theta/2) * push(r);
            # cosh r - sinh r cos(theta) cancels up to 2r/ln(10), about 35 digits at
            # r = 40, so 80 digits leave 40 for the reference
            with mpmath.workdps(80):
                R = mpmath.mpf(r)
                for theta in thetas:
                    q = circle_point(center, r, theta)
                    denom = mpmath.cosh(R) - mpmath.sinh(R) * mpmath.cos(theta)
                    ref_x = center.x - center.y * mpmath.sinh(R) * mpmath.sin(theta) / denom
                    ref_y = center.y / denom
                    assert abs(q.x - ref_x) <= 16 * eps * max(abs(ref_x), center.y), (r, theta)
                    assert abs(q.y - ref_y) <= 16 * eps * ref_y, (r, theta)

    def test_sweep_is_injective(self):
        # theta covers the circle once: 8 equally spaced angles, 8 spots
        pts = [circle_point(Point(0.4, 1.3), 1.0, k * math.pi / 4.0) for k in range(8)]
        for i in range(8):
            for j in range(i + 1, 8):
                assert distance(pts[i], pts[j]) > 1e-6

    def test_rejects_bad_radius(self):
        for r in (-0.1, MAX_CIRCLE_RADIUS + 1.0, math.nan):
            with pytest.raises(DomainError):
                circle_point(ORIGIN, r, 0.0)

    # y overflows at the top of the first circle and underflows to 0 on the second
    @pytest.mark.parametrize("center, r", [(Point(0.0, 1e300), 40.0), (Point(0.0, 5e-324), 1.5)],
                             ids=["center0", "center1"])
    def test_rejects_circle_outside_double_range(self, center, r):
        with pytest.raises(DomainError, match=re.escape(f"base ({center.x}, {center.y})")):
            for theta in np.linspace(0.0, 6.0, 8):
                circle_point(center, r, theta)

    def test_circles_near_the_ends_of_double_range(self):
        thetas = np.linspace(0.0, 6.0, 8)
        center = Point(0.0, 1e-310)
        for theta in thetas:
            assert abs(distance(center, circle_point(center, 1.5, theta)) - 1.5) <= 1e-9
        # x0 - y0 * 2 sinh(r) sin(theta/2) cos(theta/2) / D rounds to x0
        for theta in thetas:
            assert circle_point(Point(1e308, 1.0), 1.5, theta).x == 1e308
