"""Upper half-plane model of the hyperbolic plane.

Points, the distance formula, and an explicit parametrization of the
circle of radius r around any center.  The distance formula is computed
elementwise over NumPy arrays and the scalar distance goes through it;
circle_point is one scalar closed form.  Everything here is a pure
function of its inputs and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# exp(r) and exp(-r) in a circle's denominator stay well inside double
# range up to here; beyond, squared coordinates start to drown the
# distance formula
MAX_CIRCLE_RADIUS = 40.0


@dataclass(frozen=True)
class Point:
    """A point x + iy of the upper half-plane, y > 0 strictly."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"point coordinates must be finite, got ({self.x}, {self.y})")
        if not self.y > 0.0:
            raise DomainError(f"point must satisfy y > 0, got y = {self.y}")


#: The distinguished point i, stabilized by the rotation subgroup.
ORIGIN = Point(0.0, 1.0)


def coord_distance(x1, y1, x2, y2):
    """Hyperbolic distance between (x1, y1) and (x2, y2), elementwise.

    acosh(1 + rho / (2 y y')) with rho the squared Euclidean distance,
    evaluated in the equivalent half-angle form 2 asinh(q) with
    q = hypot(dx, dy) / (2 sqrt(y) sqrt(y')), so nearby points keep their
    full separation instead of vanishing into the 1 + eps plateau of acosh.
    Neither the squared separation nor the heights' product is formed, so
    neither can underflow or overflow on its own.  Symmetric at the bit
    level: every floating-point operation commutes under swapping the two
    points.  Where q overflows but the separation is finite, the distance
    is 2 log q = 2 (log(sep) - (log y + log y') / 2), which 2 asinh(q / 2)
    = 2 log q + O(1/q^2) equals in double there.  Separations that leave
    double range come out as inf.
    """
    with np.errstate(over="ignore", divide="ignore"):
        separation = np.hypot(x2 - x1, y2 - y1)
        q = separation / (np.sqrt(y1) * np.sqrt(y2))
        d = 2.0 * np.arcsinh(0.5 * q)
        far = np.isinf(q) & np.isfinite(separation)
        if np.any(far):
            d = np.where(far, 2.0 * (np.log(separation) - 0.5 * (np.log(y1) + np.log(y2))), d)[()]
        return d


def distance(p: Point, q: Point) -> float:
    """Hyperbolic distance between two points (see coord_distance).

    Points whose separation leaves double range raise DomainError.
    """
    d = float(coord_distance(p.x, p.y, q.x, q.y))
    if math.isinf(d):
        raise DomainError(f"the separation of ({p.x}, {p.y}) and ({q.x}, {q.y}) leaves double range")
    return d


def circle_point(center: Point, r: float, theta: float) -> Point:
    """Point at hyperbolic distance r from center, angle parameter theta.

    The image of the origin i under
    origin_to(center) * rotation(theta/2) * push(r), in closed form: with
    c = cos(theta/2), s = sin(theta/2) and D = exp(-r) c^2 + exp(r) s^2,
    x = x0 - y0 * 2 sinh(r) s c / D and y = y0 / D for center (x0, y0).
    theta in [0, 2*pi) sweeps the circle exactly once, and theta = 0 gives
    (x0, y0 exp(r)).  Supported radii: 0 <= r <= MAX_CIRCLE_RADIUS.  A
    point that is not representable in double precision raises
    DomainError.
    """
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"circle radius must be a finite non-negative real, got {r}")
    if r > MAX_CIRCLE_RADIUS:
        raise DomainError(f"circle radius {r} exceeds the supported range r <= {MAX_CIRCLE_RADIUS}")
    if not math.isfinite(theta):
        raise DomainError("circle angles must be finite")
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    # D = cosh r - sinh r cos(theta) as a sum of non-negative terms, which
    # cannot cancel near theta = 0 at large r
    d = math.exp(-r) * c * c + math.exp(r) * s * s
    x = center.x - center.y * (2.0 * math.sinh(r) * s * c / d)
    y = center.y / d
    if not (math.isfinite(x) and math.isfinite(y) and y > 0.0):
        raise DomainError(f"the circle of radius {r} around base ({center.x}, {center.y}) leaves double range")
    return Point(x, y)
