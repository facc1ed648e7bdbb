import math
import re
import tracemalloc

import numpy as np
import pytest

from spectral_chroma import (
    MAX_CIRCLE_RADIUS,
    ORIGIN,
    DomainError,
    MoebiusMap,
    Point,
    circle_point,
    distance,
)
from spectral_chroma import geometry
from spectral_chroma.geometry import circle_coords, coord_distance


def random_map(rng) -> MoebiusMap:
    # Iwasawa-style sample: shear * diagonal * rotation, unit determinant
    x = rng.uniform(-2.0, 2.0)
    t = rng.uniform(-3.0, 3.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    shear = MoebiusMap(1.0, x, 0.0, 1.0)
    return shear.compose(MoebiusMap.push(t)).compose(MoebiusMap.rotation(phi))


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

    def test_separation_beyond_double_range_is_refused(self):
        with pytest.raises(DomainError, match="leaves double range"):
            distance(Point(-1e308, 1.0), Point(1e308, 1.0))


class TestMoebiusMap:
    def test_identity_fixes_points(self):
        p = Point(0.3, 2.0)
        q = MoebiusMap.identity().apply(p)
        assert (q.x, q.y) == (0.3, 2.0)

    def test_push_moves_origin_up(self):
        r = 1.7
        q = MoebiusMap.push(r).apply(ORIGIN)
        assert q.x == 0.0
        assert q.y == pytest.approx(math.exp(r), rel=1e-14)

    def test_rotation_stabilizes_origin(self):
        for phi in np.linspace(0.0, math.pi, 17):
            q = MoebiusMap.rotation(phi).apply(ORIGIN)
            assert abs(q.x) < 1e-15
            assert q.y == pytest.approx(1.0, abs=1e-15)

    def test_determinant_renormalized(self):
        g = MoebiusMap(2.0, 0.0, 0.0, 2.0)
        assert abs(g.a * g.d - g.b * g.c - 1.0) <= 1e-12
        assert g == MoebiusMap.identity()

    def test_sign_quotient_equality(self):
        g = MoebiusMap(1.0, 2.0, 0.5, 2.0)
        h = MoebiusMap(-1.0, -2.0, -0.5, -2.0)
        assert g == h
        assert hash(g) == hash(h)

    def test_rejects_nonpositive_determinant(self):
        with pytest.raises(DomainError):
            MoebiusMap(1.0, 0.0, 0.0, -1.0)
        with pytest.raises(DomainError):
            MoebiusMap(1.0, 1.0, 1.0, 1.0)

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            g = random_map(rng)
            p = random_point(rng)
            q = g.inverse().apply(g.apply(p))
            assert q.x == pytest.approx(p.x, abs=1e-10)
            assert q.y == pytest.approx(p.y, rel=1e-10)

    def test_isometry_invariance(self):
        rng = np.random.default_rng(104)
        for _ in range(1000):
            g = random_map(rng)
            p, q = random_point(rng), random_point(rng)
            assert abs(distance(g.apply(p), g.apply(q)) - distance(p, q)) < 1e-10

    def test_image_stays_in_half_plane(self):
        rng = np.random.default_rng(105)
        for _ in range(200):
            assert random_map(rng).apply(random_point(rng)).y > 0.0


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
            theta = rng.uniform(0.0, 2.0 * math.pi)
            assert abs(distance(center, circle_point(center, r, theta)) - r) <= 1e-9
            x, y = circle_coords(center, r, rng.uniform(0.0, 2.0 * math.pi, 64))
            assert np.all(np.abs(coord_distance(center.x, center.y, x, y) - r) <= 1e-9)

    def test_coords_match_circle_point_and_map_composition(self):
        center = Point(-0.3, 0.8)
        thetas = np.arange(256) * (2.0 * math.pi / 256)
        x, y = circle_coords(center, 5.0, thetas)
        for theta, xj, yj in zip(thetas, x, y):
            q = circle_point(center, 5.0, theta)
            assert (q.x, q.y) == (xj, yj)
            # the composition one MoebiusMap at a time, as a loop reference;
            # scalar and array sin/cos may differ in the last bit
            g = MoebiusMap.origin_to(center).compose(MoebiusMap.rotation(0.5 * theta)).compose(MoebiusMap.push(5.0))
            ref = g.apply(ORIGIN)
            assert xj == pytest.approx(ref.x, rel=1e-13, abs=1e-13)
            assert yj == pytest.approx(ref.y, rel=1e-13)

    def test_blocks_give_the_same_bits(self, monkeypatch):
        thetas = np.arange(100) * (2.0 * math.pi / 100)
        whole = circle_coords(Point(0.7, 2.0), 1.5, thetas)
        monkeypatch.setattr(geometry, "_BLOCK_POINTS", 7)
        np.testing.assert_array_equal(circle_coords(Point(0.7, 2.0), 1.5, thetas), whole)

    def test_memory_is_bounded_by_blocks(self):
        n = 10**6
        thetas = np.arange(n) * (2.0 * math.pi / n)
        tracemalloc.start()
        try:
            x, y = circle_coords(Point(0.7, 2.0), 1.5, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.size == y.size == n
        # the two coordinate arrays plus block temporaries (161 MB unblocked)
        assert peak < 2 * x.nbytes + 16 * 2**20

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
            with pytest.raises(DomainError):
                circle_coords(ORIGIN, r, np.linspace(0.0, 6.0, 8))

    @pytest.mark.parametrize("center", [Point(1e308, 1.0), Point(0.0, 1e-310)])
    def test_rejects_circle_outside_double_range(self, center):
        with pytest.raises(DomainError, match=re.escape(f"base ({center.x}, {center.y})")):
            circle_coords(center, 1.5, np.linspace(0.0, 6.0, 8))
