"""Upper half-plane model of the hyperbolic plane.

Points, orientation-preserving isometries (real 2x2 matrices up to sign),
the distance formula, and an explicit parametrization of the circle of
radius r around any center.  Matrix entries, the distance formula and
circles are computed elementwise over NumPy arrays, so a whole circle of
sample points comes from one Möbius composition; the scalar MoebiusMap,
distance and circle_point go through the same formulas.  Everything here
is a pure function of its inputs and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# diag(exp(r/2), exp(-r/2)) entries stay well inside double range up to
# here; beyond, squared coordinates start to drown the distance formula
MAX_CIRCLE_RADIUS = 40.0

# circle angles composed at once; each holds about 21 temporaries, so one
# block stays near 11 MB however many points the circle has
_BLOCK_POINTS = 65_536


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


# Entries (a, b, c, d) of the matrices below, elementwise over floats or
# arrays.  _unit_det marks an invalid matrix by NaN entries, which every
# later product and image inherits, so one finiteness check at the end
# covers every step.

def _unit_det(a, b, c, d):
    """Renormalize to unit determinant with a positive leading nonzero entry.

    A matrix whose determinant is not finite and positive, or whose
    renormalized entries are not all finite, comes back as NaN entries.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        det = a * d - b * c
        scale = 1.0 / np.sqrt(np.where(np.isfinite(det) & (det > 0.0), det, np.nan))
        a, b, c, d = a * scale, b * scale, c * scale, d * scale
    valid = np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(d)
    a, b, c, d = (np.where(valid, v, np.nan) for v in (a, b, c, d))
    lead = np.where(a != 0.0, a, np.where(b != 0.0, b, np.where(c != 0.0, c, d)))
    flip = np.where(lead < 0.0, -1.0, 1.0)
    return a * flip, b * flip, c * flip, d * flip


def _rotation(phi):
    return np.cos(phi), np.sin(phi), -np.sin(phi), np.cos(phi)


def _push(r):
    e = np.exp(0.5 * r)
    return e, 0.0, 0.0, 1.0 / e


def _origin_to(p: Point):
    s = math.sqrt(p.y)
    return s, p.x / s, 0.0, 1.0 / s


def _compose(g, h):
    """Entries of the matrix product g * h (apply h first)."""
    a, b, c, d = g
    e, f, k, m = h
    return a * e + b * k, a * f + b * m, c * e + d * k, c * f + d * m


def _apply(a, b, c, d, x, y):
    # y' = y * det / |cz+d|^2 computed directly, so the sign of the
    # imaginary part can never be lost to cancellation
    cxd = c * x + d
    cy = c * y
    denom = cxd * cxd + cy * cy
    num_x = (a * x + b) * cxd + a * c * y * y
    return num_x / denom, y / denom


@dataclass(frozen=True)
class MoebiusMap:
    """Orientation-preserving isometry z -> (az+b)/(cz+d).

    The matrix is renormalized to unit determinant on construction and
    stored with a canonical sign, so (a, b, c, d) and (-a, -b, -c, -d)
    produce equal objects.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        entries = (self.a, self.b, self.c, self.d)
        unit = [float(v) for v in _unit_det(*entries)]
        if math.isnan(unit[0]):
            with np.errstate(all="ignore"):
                det = self.a * self.d - self.b * self.c
            raise DomainError(f"matrix needs finite entries and a positive determinant, got {entries}, det {det}")
        for name, v in zip("abcd", unit):
            object.__setattr__(self, name, v)

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def rotation(cls, phi: float) -> "MoebiusMap":
        """Rotation fixing the origin i; rotates the plane by angle 2*phi."""
        return cls(*_rotation(phi))

    @classmethod
    def push(cls, r: float) -> "MoebiusMap":
        """Diagonal map sending the origin i to exp(r)*i along the axis."""
        with np.errstate(all="ignore"):
            entries = _push(r)
        return cls(*entries)

    @classmethod
    def origin_to(cls, p: Point) -> "MoebiusMap":
        """Upper-triangular map taking the origin i to p."""
        return cls(*_origin_to(p))

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """Matrix product self * other (apply other first)."""
        return MoebiusMap(*_compose((self.a, self.b, self.c, self.d), (other.a, other.b, other.c, other.d)))

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def apply(self, p: Point) -> Point:
        # NumPy scalars, so an underflowed |cz+d|^2 yields a non-finite
        # image (refused by Point) instead of ZeroDivisionError
        with np.errstate(all="ignore"):
            x, y = _apply(*np.array([self.a, self.b, self.c, self.d]), p.x, p.y)
        return Point(float(x), float(y))


def coord_distance(x1, y1, x2, y2):
    """Hyperbolic distance between (x1, y1) and (x2, y2), elementwise.

    acosh(1 + rho / (2 y y')) with rho the squared Euclidean distance,
    evaluated in the equivalent half-angle form 2 asinh(q) with
    q = sqrt(rho) / (2 sqrt(y) sqrt(y')), so nearby points keep their full
    separation instead of vanishing into the 1 + eps plateau of acosh.
    The denominator is formed from the two square roots, so the heights'
    product is never formed and cannot underflow.  Symmetric at the bit
    level: every floating-point operation commutes under swapping the two
    points.  Separations whose square leaves double range come out as inf.
    """
    with np.errstate(over="ignore"):
        dx = x2 - x1
        dy = y2 - y1
        rho = dx * dx + dy * dy
        return 2.0 * np.arcsinh(0.5 * (np.sqrt(rho) / (np.sqrt(y1) * np.sqrt(y2))))


def distance(p: Point, q: Point) -> float:
    """Hyperbolic distance between two points (see coord_distance).

    Points whose squared separation leaves double range raise DomainError.
    """
    d = float(coord_distance(p.x, p.y, q.x, q.y))
    if math.isinf(d):
        raise DomainError(f"the separation of ({p.x}, {p.y}) and ({q.x}, {q.y}) leaves double range")
    return d


def circle_coords(center: Point, r: float, thetas) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (x, y) of the points at angle parameters thetas on a circle.

    Each point is the image of the origin i under
    origin_to(center) * rotation(theta/2) * push(r), composed over arrays
    of matrix entries with every step validated and renormalized as in
    MoebiusMap.  theta in [0, 2*pi) sweeps the circle exactly once; the
    rotation matrix acts on the plane by twice its angle, hence theta/2.
    Supported radii: 0 <= r <= MAX_CIRCLE_RADIUS.  A circle whose points
    are not representable in double precision raises DomainError.  The
    angles are composed in blocks of _BLOCK_POINTS, so the temporaries
    do not grow with the number of points.
    """
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"circle radius must be a finite non-negative real, got {r}")
    if r > MAX_CIRCLE_RADIUS:
        raise DomainError(f"circle radius {r} exceeds the supported range r <= {MAX_CIRCLE_RADIUS}")
    thetas = np.asarray(thetas, dtype=float)
    if not np.all(np.isfinite(thetas)):
        raise DomainError("circle angles must be finite")
    x, y = np.empty(thetas.shape), np.empty(thetas.shape)
    angles, x_flat, y_flat = thetas.reshape(-1), x.reshape(-1), y.reshape(-1)
    with np.errstate(all="ignore"):
        base = _unit_det(*_origin_to(center))
        push = _unit_det(*_push(r))
    # elementwise, so blocks of angles give the same bits as one composition
    for start in range(0, angles.size, _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        with np.errstate(all="ignore"):
            g = _unit_det(*_compose(base, _unit_det(*_rotation(0.5 * angles[block]))))
            g = _unit_det(*_compose(g, push))
            x_flat[block], y_flat[block] = _apply(*g, ORIGIN.x, ORIGIN.y)
        if not np.all(np.isfinite(x_flat[block]) & np.isfinite(y_flat[block]) & (y_flat[block] > 0.0)):
            raise DomainError(
                f"the circle of radius {r} around base ({center.x}, {center.y}) leaves double range")
    return x, y


def circle_point(center: Point, r: float, theta: float) -> Point:
    """Point at hyperbolic distance r from center, angle parameter theta.

    One point of circle_coords, with the same parametrization and range.
    """
    x, y = circle_coords(center, r, [theta])
    return Point(float(x[0]), float(y[0]))
