"""Numerical-range data of the circle-averaging operator.

Scans the principal series for its minimum (the quantity that drives the
independence-ratio bound), evaluating only the grid points that the
Harish-Chandra decay bound |phi_s(r)| <= 2 |c(s)| exp(-r/2) / (1 - exp(-2r))
cannot rule out, reports the certified analytic floor, and checks
the eigenfunction identity directly by discrete circle averaging, with
each circle point's distance from i given by the law of cosines.
scan_principal is the only scan; the whole grid, ruled-out points
included, is evaluated only when a summary's grid_values is read.  Grid
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
from .geometry import ORIGIN, Point, coord_distance
from .quadrature import _EPS, DEFAULT_QUADRATURE, QuadratureSpec
from .spherical import (
    MAX_EVAL_RADIUS,
    PRINCIPAL,
    SpectralParameter,
    _decay_bound,
    _eigenvalue_batch,
    envelope,
    principal_grid,
)

# below this, scanned values are indistinguishable from quadrature noise
_DEGENERATE_FLOOR = 1e-12

# share of abs_tol by which the sampled scan minimum may exceed the true one
_REFINE_SLACK = 0.1

# points per refinement sub-grid; each level narrows the bracket 16-fold
_REFINE_POINTS = 33

# default scan grid step in s
_GRID_STEP = 0.05

# outward factor on spherical._decay_bound for the rounding of its own
# arithmetic.  Its exp, tanh and expm1 are taken as within 4 ulps each
# (NumPy's vectorized loops included), its products, quotients and square
# root within half an ulp, and the square root halves its argument's
# error; together under 13 eps, and the cut's own product and sum add 2
# eps.  The bound itself is nearly tight (against mpmath, |phi| / bound
# reads up to 0.9999992), so it has no slack of its own to absorb them.
_DECAY_ROUNDING = 64.0 * _EPS

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
    certified floor -(r+1)exp(-r/2) for the whole numerical range:
    complementary-series values are strictly positive, so the principal
    envelope floors every value the operator can attain on a quotient.
    grid and grid_values are the whole scan grid and its eigenvalues (None
    when degenerate), including the points the scan ruled out without
    evaluating them; the CSV scan prints them as its rows.  They are
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

    One grid point near s = 4/r, the probe, is evaluated first.  When its
    value is negative, the Harish-Chandra decay bound on |phi_s(r)|, which
    shrinks as s grows, rules out every grid point past the first one
    where the bound, with a margin for rounding and for abs_tol on each
    value, lies below minus the probe's value; the grid is evaluated up to
    that point only (_undecided_points).  No point ruled out could have
    read below the minimum of those kept.  From r = 2 on, where the series
    evaluates each point on its own, the result is bit for bit that of
    the whole grid whenever the series takes every point ruled out, as it
    does at the default abs_tol; below r = 2, fewer points share fewer
    panels, and grid values may move within abs_tol.  This is the only
    scan: the CSV scan prints the summary's whole grid and grid_values
    beside this minimum.

    The grid minimum is refined inside its bracketing cell by batched
    sub-grids, each laid over the neighbours of the lowest point so far,
    for a level count fixed in advance by a curvature bound
    (_refine_levels): the refinement stops at the first spacing w, the
    grid's own included, with r^2 envelope(r) w^2 / 8 <= _REFINE_SLACK
    abs_tol, which bounds how far a minimum sampled at spacing w lies above
    the true minimum of its bracket.  m_numeric is the lowest value
    sampled and argmin_s its point, resolved to that final spacing.  When
    the envelope is already below the quadrature noise scale the scan is
    skipped and the summary is flagged degenerate with m_numeric = 0.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"scan needs r > 0, got {r}")
    if s_max is None:
        s_max = default_s_max(r)
    if not math.isfinite(s_max):
        raise DomainError(f"s_max must be finite, got {s_max}; the default window max(100, 40/r) "
                          f"overflows for r below about 2.2e-307")
    if not s_max >= 1.0:
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
        )

    grid = _scan_grid(s_max, grid_step)
    grid = grid[:_undecided_points(grid, grid_step, r, quad)]
    values = principal_grid(grid, r, quad)
    i = int(np.argmin(values))
    argmin_s, m_numeric = float(grid[i]), float(values[i])
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    # fixed before the loop, so it ends however coarse the doubles near lo are
    for _ in range(_refine_levels(r * r * env, float(grid_step), hi - lo, quad.abs_tol)):
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
    )


def _refine_levels(curvature: float, grid_step: float, width: float, abs_tol: float) -> int:
    """Sub-grid levels after which a sampled minimum is within _REFINE_SLACK abs_tol of the true one.

    curvature bounds |d^2 phi_s(r) / ds^2|: phi_s(r) is the integral of
    cos(s x) K(x) over x in [-r, r] with a kernel K > 0, so
    |d^2 phi_s / ds^2| = |int x^2 cos(s x) K| <= r^2 phi_0(r) <= r^2
    envelope(r).  Near an interior minimum the function so lies within
    curvature (w/2)^2 / 2 of it at the nearest of points w apart.  Level 0 is the grid itself, at spacing grid_step; level k >= 1
    samples the bracket at spacing width / 32 / 16^(k-1).  The count is the
    first k whose spacing meets the bound; a one-point grid, with no
    bracket, takes none.  An r^2 that underflows to 0 takes none either;
    nothing divides by it, and spacings that underflow end the count.
    """
    target = 8.0 * _REFINE_SLACK * abs_tol
    if width == 0.0 or curvature * grid_step * grid_step <= target:
        return 0
    levels, spacing = 1, width / (_REFINE_POINTS - 1)
    while curvature * spacing * spacing > target:
        levels, spacing = levels + 1, spacing / ((_REFINE_POINTS - 1) / 2)
    return levels


def _undecided_points(grid: np.ndarray, grid_step: float, r: float, quad: QuadratureSpec) -> int:
    """How many leading points of a scan grid may hold its minimum, by the decay bound.

    One point is evaluated first: the grid point nearest s = 4/r, where the
    minimum lies at every radius of the default scans (s r between 3.83
    and 4.32), or the window's last point if it ends before 4/r.  If its
    value m is negative, the first index k >= 1 with
    B(s_k) (1 + _DECAY_ROUNDING) + 3 abs_tol < -m, where B is
    spherical._decay_bound's bound on |phi_s(r)|, cuts the grid: B
    decreases in s, so no point past k can hold the grid minimum.  The
    points up to k, k included, are kept, so the minimum keeps both
    neighbours of its bracket.  Without a negative m or such a k the whole
    grid is kept.
    """
    # the probe index, found without dividing by r * step, which may underflow
    last = grid.size - 1
    probe = last if r * float(grid[-1]) <= 4.0 else min(round(4.0 / r / grid_step), last)
    m = float(principal_grid(grid[probe:probe + 1], r, quad)[0])
    if m >= 0.0:
        return grid.size
    # The margin.  Each evaluated value is within abs_tol of the truth: the
    # probe's m, each kept point's value and the value a pruned point would
    # have had.  A pruned point j > k would so read at least
    # -B(s_j) - abs_tol >= -B(s_k) - abs_tol > m + 2 abs_tol, and the kept
    # value at the probe's s reads at most m + 2 abs_tol.  The probe is
    # kept, as B(s) + abs_tol >= -m at its own s, and so is point k, which
    # cannot be the minimum either.  No pruned point can undercut the kept
    # minimum or tie with it.
    ruled_out = np.flatnonzero(_decay_bound(grid[1:], r)[1] * (1.0 + _DECAY_ROUNDING)
                               + 3.0 * quad.abs_tol < -m)
    return grid.size if ruled_out.size == 0 else int(ruled_out[0]) + 2


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
    in n_points.  phi needs only each point's distance d from i, given by
    the hyperbolic law of cosines: with D = distance(base, i) and theta
    measured at base from the geodesic towards i,
    sinh^2(d/2) = sinh^2((r-D)/2) + sinh(r) sinh(D) sin^2(theta/2), a sum
    that cannot cancel.  theta and -theta give the same d, so only the
    angles 2 pi j / n_points with j <= n_points / 2 are evaluated, with
    trapezoid weights 1, 2, ..., 2 and 1 at j = n_points / 2; their
    n_points // 2 + 1 eigenvalues, phi(base) and eigenvalue(param, r) come
    from one batch call.  The circle's farthest point from i, at distance
    r + D, must lie within MAX_EVAL_RADIUS.
    """
    if n_points < 8:
        raise DomainError(f"n_points must be at least 8, got {n_points}")
    if n_points > MAX_BATCH_POINTS:
        raise DomainError(f"n_points {n_points} exceeds the supported {MAX_BATCH_POINTS}")
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"verification needs r > 0, got {r}")
    d0 = float(coord_distance(base.x, base.y, ORIGIN.x, ORIGIN.y))
    if not r + d0 <= MAX_EVAL_RADIUS:
        raise DomainError(f"the circle of radius {r} around base ({base.x}, {base.y}) reaches distance "
                          f"{r + d0} from i, beyond the supported range r <= {MAX_EVAL_RADIUS}")

    sin_half = np.sin(np.arange(n_points // 2 + 1) * (math.pi / n_points))
    q = np.sqrt(math.sinh(0.5 * (r - d0)) ** 2 + (math.sinh(r) * math.sinh(d0)) * (sin_half * sin_half))
    weights = np.full(sin_half.size, 2.0)
    weights[0] = 1.0
    if n_points % 2 == 0:
        weights[-1] = 1.0
    # distances to i of the half circle's points and of the base, then r itself
    radii = np.append(2.0 * np.arcsinh(q), (d0, r))
    lam = _eigenvalue_batch(param.kind, np.full(radii.size, param.value), radii, quad)
    return abs(float(weights @ lam[:-2]) / n_points - float(lam[-2] * lam[-1]))
