"""Numerical-range data of the circle-averaging operator.

Scans the principal series for its minimum (the quantity that drives the
independence-ratio bound), reports the certified analytic floor, and checks
the eigenfunction identity directly by discrete circle averaging, with
the circle evaluated as arrays through the Möbius route of geometry.  Grid
and refinement sub-grid evaluations are batch calls independent of each
other; summaries are assembled by a single reducer with no shared mutable
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .geometry import ORIGIN, Point, circle_coords, coord_distance
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec
from .spherical import (
    MAX_EVAL_RADIUS,
    PRINCIPAL,
    SpectralParameter,
    _eigenvalue_batch,
    envelope,
    principal_grid,
)

# below this, scanned values are indistinguishable from quadrature noise
_DEGENERATE_FLOOR = 1e-12

#: width in s of the bracket the scan minimum is refined to
REFINE_XTOL = 1e-9

# points per refinement sub-grid; each level narrows the bracket 16-fold
_REFINE_POINTS = 33

# default scan grid step in s
_GRID_STEP = 0.05

#: scan grids and circle samples beyond this many points are rejected
#: before anything is allocated
MAX_BATCH_POINTS = 1_000_000


@dataclass(frozen=True)
class SpectrumSummary:
    """Scan result for one radius.

    M is assigned, not scanned: on a finite-volume quotient the constant
    function is an eigenfunction with eigenvalue 1, while the plane itself
    has sup strictly below 1; the bound pipeline uses the quotient value.
    m_numeric is the scanned (uncertified) minimum; m_analytic the
    certified floor -(r+1)exp(-r/2).  grid and grid_values are the
    scanned grid and its eigenvalues (None when degenerate); they are
    computed on first read and then kept, so a summary whose grid is never
    read holds no array.
    """

    r: float
    M: float
    m_numeric: float
    m_analytic: float
    argmin_s: float
    s_max_scanned: float
    grid_step: float
    degenerate: bool = False
    _quad: QuadratureSpec = field(default=DEFAULT_QUADRATURE, compare=False, repr=False)

    @cached_property
    def grid(self) -> np.ndarray | None:
        return None if self.degenerate else _scan_grid(self.s_max_scanned, self.grid_step)

    @cached_property
    def grid_values(self) -> np.ndarray | None:
        return None if self.degenerate else principal_grid(self.grid, self.r, self._quad)


def _scan_grid(s_max: float, grid_step: float) -> np.ndarray:
    return np.arange(0.0, s_max + 0.5 * grid_step, grid_step)


def default_s_max(r: float) -> float:
    """Scan window wide enough for several oscillation lobes: max(100, 40/r)."""
    return max(100.0, 40.0 / r)


def scan_principal(
    r: float,
    s_max: float | None = None,
    grid_step: float = _GRID_STEP,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> SpectrumSummary:
    """Scan the principal series on [0, s_max] and refine the minimum.

    The grid minimum is refined inside its bracketing cell by batched
    sub-grids, each laid over the neighbours of the lowest point so far,
    for a level count fixed in advance that takes the bracket to
    REFINE_XTOL in s.  When the envelope is already below the quadrature
    noise scale the scan is skipped and the summary is flagged degenerate
    with m_numeric = 0.
    """
    return _scan(r, s_max, grid_step, quad)[0]


def _scan(r: float, s_max: float | None, grid_step: float,
          quad: QuadratureSpec) -> tuple[SpectrumSummary, np.ndarray | None, np.ndarray | None]:
    """scan_principal's summary, with the grid and eigenvalues it scanned.

    The grid and values are None when the scan is degenerate.  The CSV scan
    prints them, so it evaluates its grid once.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"scan needs r > 0, got {r}")
    if s_max is None:
        s_max = default_s_max(r)
    if not (math.isfinite(s_max) and s_max >= 1.0):
        raise DomainError(f"s_max < 1 would make the scan vacuous, got {s_max}")
    if not (math.isfinite(grid_step) and grid_step > 0.0):
        raise DomainError(f"grid_step must be positive, got {grid_step}")
    if not s_max / grid_step <= MAX_BATCH_POINTS:
        raise DomainError(
            f"scan grid of {s_max / grid_step:.3e} points exceeds the supported {MAX_BATCH_POINTS}"
        )

    env = envelope(r)
    m_analytic = -env
    if env < max(10.0 * quad.abs_tol, _DEGENERATE_FLOOR):
        return SpectrumSummary(
            r=r, M=1.0, m_numeric=0.0, m_analytic=m_analytic, argmin_s=0.0,
            s_max_scanned=s_max, grid_step=grid_step, degenerate=True, _quad=quad,
        ), None, None

    grid = _scan_grid(s_max, grid_step)
    values = principal_grid(grid, r, quad)
    i = int(np.argmin(values))
    argmin_s, m_numeric = float(grid[i]), float(values[i])
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    # fixed before the loop, so it ends however coarse the doubles near lo are
    width = hi - lo
    levels = math.ceil(math.log(width / REFINE_XTOL, (_REFINE_POINTS - 1) / 2)) if width > REFINE_XTOL else 0
    for _ in range(levels):
        step = (hi - lo) / (_REFINE_POINTS - 1)
        sub = lo + np.arange(_REFINE_POINTS) * step
        sub_values = _eigenvalue_batch(PRINCIPAL, sub, r, quad)
        j = int(np.argmin(sub_values))
        if sub_values[j] < m_numeric:
            argmin_s, m_numeric = float(sub[j]), float(sub_values[j])
        lo, hi = max(lo, argmin_s - step), min(hi, argmin_s + step)

    return SpectrumSummary(
        r=r, M=1.0, m_numeric=m_numeric, m_analytic=m_analytic, argmin_s=argmin_s,
        s_max_scanned=float(s_max), grid_step=float(grid_step), _quad=quad,
    ), grid, values


def full_range_floor(r: float) -> float:
    """Certified lower bound -(r+1)exp(-r/2) for the whole numerical range.

    Complementary-series values are strictly positive, so the principal
    envelope floors every value the operator can attain on a quotient.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"full_range_floor needs r > 0, got {r}")
    return -envelope(r)


def verify_eigenfunction(
    param: SpectralParameter,
    r: float,
    base: Point,
    n_points: int,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Residual of the eigenfunction identity at one base point.

    phi(z) = eigenvalue(param, distance(z, i)) is averaged over n_points
    equally spaced points of the radius-r circle around base, and the
    result is compared with eigenvalue(param, r) * phi(base).  Equal angle
    steps realize the rotation-invariant measure, so this is a trapezoid
    rule on a smooth periodic integrand and the residual decays spectrally
    in n_points.  The circle points come from one array Möbius composition
    and all n_points + 2 eigenvalues from one batch call.
    """
    if n_points < 8:
        raise DomainError(f"n_points must be at least 8, got {n_points}")
    if n_points > MAX_BATCH_POINTS:
        raise DomainError(f"n_points {n_points} exceeds the supported {MAX_BATCH_POINTS}")
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"verification needs r > 0, got {r}")

    x, y = circle_coords(base, r, np.arange(n_points) * (2.0 * math.pi / n_points))
    # distances to i of the circle points and of the base, then r itself
    dist = coord_distance(np.append(x, base.x), np.append(y, base.y), ORIGIN.x, ORIGIN.y)
    if not np.all(dist <= MAX_EVAL_RADIUS):
        raise DomainError(f"the circle of radius {r} around base ({base.x}, {base.y}) reaches distance "
                          f"{np.max(dist)} from i, beyond the supported range r <= {MAX_EVAL_RADIUS}")
    radii = np.append(dist, r)
    lam = _eigenvalue_batch(param.kind, np.full(radii.size, param.value), radii, quad)
    return abs(float(np.mean(lam[:n_points])) - float(lam[-2] * lam[-1]))
