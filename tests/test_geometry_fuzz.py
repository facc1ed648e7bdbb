"""Property test of the public geometry API over the whole double range.

distance and circle_point, alone and over the angles of one circle, either
return finite values (and points with y > 0) or raise DomainError, for
coordinates of magnitude 1e-310 to 1e308 of either sign; no other exception
may escape.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from spectral_chroma import MAX_CIRCLE_RADIUS, DomainError, Point, circle_point, distance

MAGNITUDES = st.builds(lambda e: 10.0 ** e, st.floats(-310.0, 308.0))
REALS = st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda v: -v))
# mostly valid points; a signed y exercises the Point check as well
POINTS = st.builds(lambda x, y: (x, y), REALS, st.one_of(MAGNITUDES, REALS))

# a refused input raises DomainError without a RuntimeWarning on the way
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FUZZ = settings(deadline=None, max_examples=300)


def outcome(fn, *args):
    """fn(*args), or None when it raises DomainError."""
    try:
        return fn(*args)
    except DomainError:
        return None


def finite_point(p):
    return isinstance(p, Point) and math.isfinite(p.x) and math.isfinite(p.y) and p.y > 0.0


@FUZZ
@given(p=POINTS, q=POINTS)
def test_distance(p, q):
    p, q = outcome(Point, *p), outcome(Point, *q)
    if p is None or q is None:
        return
    d = outcome(distance, p, q)
    assert d is None or (math.isfinite(d) and d >= 0.0), (p, q, d)
    assert outcome(distance, q, p) == d


@FUZZ
@given(center=POINTS, r=REALS, theta=REALS)
def test_circle_point(center, r, theta):
    center = outcome(Point, *center)
    if center is None:
        return
    p = outcome(circle_point, center, r, theta)
    assert p is None or finite_point(p), (center, r, theta, p)


@FUZZ
@given(center=POINTS, r=st.one_of(REALS, st.floats(0.0, MAX_CIRCLE_RADIUS)),
       thetas=st.lists(REALS, max_size=4))
# y overflows, x stays at x0 = 1e308, y underflows to 0
@example(center=(0.0, 1e300), r=40.0, thetas=[])
@example(center=(1e308, 1.0), r=1.5, thetas=[1.0])
@example(center=(0.0, 5e-324), r=1.5, thetas=[])
def test_circle_coords(center, r, thetas):
    """The coordinates of one circle, at theta and its mirror angle -theta.

    Each point is finite with y > 0 or raises DomainError, and the circle is
    symmetric about the vertical line through its centre: -theta gives the
    same y, bit for bit, and the same outcome.
    """
    center = outcome(Point, *center)
    if center is None:
        return
    for theta in [0.0, math.pi, *thetas]:
        p, mirror = outcome(circle_point, center, r, theta), outcome(circle_point, center, r, -theta)
        assert p is None or finite_point(p), (center, r, theta, p)
        assert (p is None) == (mirror is None), (center, r, theta, p, mirror)
        assert p is None or p.y == mirror.y, (center, r, theta, p, mirror)
