"""Property test of the public geometry API over the whole double range.

distance, circle_point and MoebiusMap either return finite values or raise
DomainError, for coordinates of magnitude 1e-310 to 1e308 of either sign;
no other exception may escape.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from spectral_chroma import DomainError, MoebiusMap, Point, circle_point, distance

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


def finite_map(g):
    return isinstance(g, MoebiusMap) and all(math.isfinite(v) for v in (g.a, g.b, g.c, g.d))


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
@given(entries=st.tuples(REALS, REALS, REALS, REALS), other=st.tuples(REALS, REALS, REALS, REALS),
       p=POINTS)
def test_moebius_map(entries, other, p):
    g, h, p = outcome(MoebiusMap, *entries), outcome(MoebiusMap, *other), outcome(Point, *p)
    for m in (g, h):
        assert m is None or finite_map(m), m
    if g is None:
        return
    inv = outcome(g.inverse)
    assert inv is None or finite_map(inv), (g, inv)
    if h is not None:
        gh = outcome(g.compose, h)
        assert gh is None or finite_map(gh), (g, h, gh)
    if p is not None:
        image = outcome(g.apply, p)
        assert image is None or finite_point(image), (g, p, image)


@FUZZ
@given(v=REALS, p=POINTS)
def test_generators(v, p):
    for make in (MoebiusMap.rotation, MoebiusMap.push):
        m = outcome(make, v)
        assert m is None or finite_map(m), (make, v, m)
    p = outcome(Point, *p)
    if p is not None:
        m = outcome(MoebiusMap.origin_to, p)
        assert m is None or finite_map(m), (p, m)
