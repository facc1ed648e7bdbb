"""Eigenvalues of the circle-averaging operator on the hyperbolic plane.

The rotation-invariant eigenfunctions attach to each spectral parameter an
eigenvalue equal to the conical Legendre value P_{-1/2+is}(cosh r).  This
module evaluates it two independent ways:

* ``eigenvalue``           -- singular integral representation
                              sqrt(2)/pi * int_0^r k(x)/sqrt(cosh r - cosh x) dx
                              with kernel k(x) = cos(s x) on the principal
                              series and cosh(sigma x) on the complementary
                              series, desingularized by x = r - u^2 with
                              u = sqrt(r) t and integrated over t in [0, 1]
                              by the batched Gauss-Kronrod ``integrate``;
* ``eigenvalue_ode``       -- the radial differential equation
                              u'' + coth(t) u' + lam u = 0, u(0) = 1, u'(0) = 0.

The ODE oracle needs scipy (the ``oracle`` extra), which is imported only
when it runs, so the package itself loads on NumPy alone.
It also provides the uniform envelope (r+1) exp(-r/2) that bounds every
principal-series eigenvalue.  Evaluation is stateless; grid sweeps are safe
to run unsynchronized in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StepSizeUnderflow
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, _cosine_progression, integrate

_TWO_SQRT2_OVER_PI = 2.0 * math.sqrt(2.0) / math.pi
# sqrt(r) max(value, 1.5) per initial panel, see _eigenvalue_batch
_PANEL_PHASE = 3.0 * math.pi

PRINCIPAL = "principal"
COMPLEMENTARY = "complementary"

# sinh overflows past ~710, where the eigenvalues are below 1e-150 anyway
MAX_EVAL_RADIUS = 700.0

# supported window of the ODE route
ODE_MAX_S = 100.0
ODE_MAX_R = 30.0
_ODE_SEED_T = 1e-4


@dataclass(frozen=True)
class SpectralParameter:
    """A point of the unitary dual.

    ``principal`` carries a real parameter s (eigenvalue may oscillate in
    sign), ``complementary`` a real shift sigma with |sigma| <= 1/2
    (eigenvalue strictly positive).  The stored value is canonicalized to
    be non-negative -- both kernels are even -- with the original sign kept
    as metadata only.
    """

    kind: str
    value: float
    sign: int = 1

    def __post_init__(self):
        if self.kind not in (PRINCIPAL, COMPLEMENTARY):
            raise DomainError(f"unknown spectral parameter kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise DomainError(f"spectral parameter must be finite, got {self.value}")
        if self.value < 0.0:
            object.__setattr__(self, "sign", -1)
            object.__setattr__(self, "value", -self.value)
        if self.kind == COMPLEMENTARY and self.value > 0.5:
            raise DomainError(f"complementary parameter needs |sigma| <= 1/2, got {self.sign * self.value}")

    @classmethod
    def principal(cls, s: float) -> "SpectralParameter":
        return cls(PRINCIPAL, s)

    @classmethod
    def complementary(cls, sigma: float) -> "SpectralParameter":
        return cls(COMPLEMENTARY, sigma)


def envelope(r: float) -> float:
    """Uniform principal-series bound (r+1) exp(-r/2)."""
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"envelope needs r >= 0, got {r}")
    if r > 700.0:
        # exp underflows first; go through log space
        return math.exp(log_envelope(r))
    return (r + 1.0) * math.exp(-0.5 * r)


def log_envelope(r: float) -> float:
    """log of the envelope, usable far past the underflow point."""
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"log_envelope needs r >= 0, got {r}")
    return math.log1p(r) - 0.5 * r


def _smooth_weight(t: np.ndarray, r) -> np.ndarray:
    """Weight of the desingularized integrand on t in [0, 1], sqrt(2)/pi included.

    After x = r - u^2 and u = sqrt(r) t, sqrt(2)/pi dx/sqrt(cosh r - cosh x)
    becomes w(t) dt with w(t) = 2 sqrt(2)/pi / sqrt((1 - h) sinhc(r (1 - h))
    sinhc(r h)), sinhc(x) = sinh(x)/x and h = t^2/2, using cosh r - cosh x
    = 2 sinh((r+x)/2) sinh((r-x)/2) to dodge cancellation.  No factor
    sqrt(r) is formed, so even subnormal radii keep full precision: r h is
    raised to the smallest subnormal where it underflows to 0, and sinhc
    reads exactly 1 there.  The chain works in place on arrays of the
    broadcast shape of t and r, and leaves t as it is.
    """
    h = 0.5 * t * t
    g = 1.0 - h
    x = r * g
    w = np.sinh(x)
    w /= x
    w *= g
    np.multiply(r, h, out=x)
    np.maximum(x, 5e-324, out=x)
    sinhc = np.sinh(x)
    sinhc /= x
    w *= sinhc
    np.sqrt(w, out=w)
    return np.divide(_TWO_SQRT2_OVER_PI, w, out=w)


def _check_radius(r: float):
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"radius must be a finite non-negative real, got {r}")
    if r > MAX_EVAL_RADIUS:
        raise DomainError(
            f"radius {r} exceeds the supported range r <= {MAX_EVAL_RADIUS}; "
            "eigenvalues there are below 1e-150"
        )


def eigenvalue(param: SpectralParameter, r: float, quad: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Averaging-operator eigenvalue at spectral parameter ``param``, radius r.

    Absolute error is bounded by quad.abs_tol.  The limit value 1 is
    returned for r = 0 (degenerate circle).  This is a batch of one.
    """
    return float(_eigenvalue_batch(param.kind, np.array([param.value]), r, quad)[0])


def _eigenvalue_batch(kind: str, values: np.ndarray, radii, quad: QuadratureSpec) -> np.ndarray:
    """Eigenvalues of one kind for canonical parameters at one or per-item radii.

    All items start on the same ceil(max sqrt(r) max(value, 1.5) / _PANEL_PHASE)
    panels in t = u / sqrt(r), graded towards t = 1, where cos(s r (1 - t^2))
    oscillates fastest (quadrature._panel_edges), so each item sees a
    bounded stretch of the oscillation on each 31-node panel; for values
    up to 1.5 that is one panel per 2 pi of u on average.  The panels of
    items that miss quad.abs_tol are doubled, up to quadrature._MAX_PANELS
    panels per pass, the first included.  Principal-series values at
    one radius that form an arithmetic progression (every scan grid) are
    summed as matrix products of shared exponential tables; every other
    batch, including a batch of one, from integrand values at the nodes.
    r = 0 gives the limit value 1.
    """
    radii = np.asarray(radii, dtype=float)
    _check_radius(float(radii.min()))
    _check_radius(float(radii.max()))
    out = np.ones(values.shape)
    live = np.nonzero(np.broadcast_to(radii > 0.0, values.shape))[0]
    if live.size == 0:
        return out
    v, r = values[live], (radii if radii.ndim == 0 else radii[live])
    panels = float(np.max(np.sqrt(r) * np.maximum(v, 1.5))) / _PANEL_PHASE
    if kind == PRINCIPAL and r.ndim == 0 and v.size > 1:
        step = v[1] - v[0]
        if np.array_equal(v, v[0] + np.arange(v.size) * step):
            out[live] = _cosine_progression(
                v[0], step, v.size, lambda t: r * ((1.0 - t) * (1.0 + t)),
                lambda t: _smooth_weight(t, r), panels, quad.abs_tol)[0]
            return out
    kernel = np.cos if kind == PRINCIPAL else np.cosh

    def integrand(items, t):
        rb = r if r.ndim == 0 else r[items, None, None]
        fv = v[items, None, None] * rb * ((1.0 - t) * (1.0 + t))
        kernel(fv, out=fv)
        fv *= _smooth_weight(t, rb)
        return fv

    out[live] = integrate(integrand, v.size, panels, quad.abs_tol)[0]
    return out


def principal_grid(s_values, r: float, quad: QuadratureSpec = DEFAULT_QUADRATURE) -> np.ndarray:
    """Principal-series eigenvalues for a whole grid of s at one radius.

    The grid shares panels sized for the largest s; grid points whose
    Kronrod-Gauss estimate misses quad.abs_tol are refined on their own.
    An evenly spaced grid, s == s[0] + arange(n) * (s[1] - s[0]) exactly,
    is summed without one cosine per point and node (see
    quadrature._cosine_progression); its values agree with the node path
    to rounding, and both stay within quad.abs_tol.
    """
    s = np.atleast_1d(np.asarray(s_values, dtype=float))
    if s.ndim != 1:
        raise DomainError("s_values must be one-dimensional")
    if not np.all(np.isfinite(s)) or np.any(s < 0.0):
        raise DomainError("s grid must be finite and non-negative")
    return _eigenvalue_batch(PRINCIPAL, s, r, quad)


def _series_seed(lam, t):
    # even Taylor series of the regular solution about t = 0, elementwise
    a1 = -lam / 4.0
    a2 = lam * (lam + 2.0 / 3.0) / 64.0
    a3 = (-a2 * (lam + 4.0 / 3.0) + 2.0 * a1 / 45.0) / 36.0
    t2 = t * t
    u = 1.0 + t2 * (a1 + t2 * (a2 + t2 * a3))
    du = t * (2.0 * a1 + t2 * (4.0 * a2 + t2 * 6.0 * a3))
    return u, du


def _ode_lambda(param: SpectralParameter) -> float:
    if param.kind == COMPLEMENTARY:
        return 0.25 - param.value * param.value
    if param.value > ODE_MAX_S:
        raise StepSizeUnderflow(f"s = {param.value} outside the supported ODE range s <= {ODE_MAX_S}")
    return param.value * param.value + 0.25


def eigenvalue_ode(param: SpectralParameter, r: float) -> float:
    """Same eigenvalue through the radial differential equation.

    The regular solution of u'' + coth(t) u' + lam u = 0, u(0) = 1,
    u'(0) = 0 is evaluated at t = r, with lam = s^2 + 1/4 on the principal
    series and 1/4 - sigma^2 on the complementary one.  The solution is
    Taylor-seeded just off the coordinate singularity at t = 0 and carried
    to r by an 8th-order adaptive Runge-Kutta scheme.  Supported window:
    s <= 100, r <= 30.  This is a batch of one.
    """
    return float(_eigenvalue_ode_batch([param], [r])[0])


def _eigenvalue_ode_batch(params, radii) -> np.ndarray:
    """ODE-route eigenvalues for a sequence of parameters at per-item radii.

    With t = r tau every item runs over tau in [tau0, 1], so the whole batch
    is one DOP853 system of 2 n equations.  Each item is Taylor-seeded at
    t = r tau0, where tau0 = _ODE_SEED_T / max r; items with r <= _ODE_SEED_T
    take the series value directly (1 at r = 0).
    """
    radii = np.asarray(radii, dtype=float)
    for r in radii:
        if not (math.isfinite(r) and r >= 0.0):
            raise DomainError(f"radius must be a finite non-negative real, got {r}")
        if r > ODE_MAX_R:
            raise StepSizeUnderflow(f"r = {r} outside the supported ODE range r <= {ODE_MAX_R}")
    lam = np.array([_ode_lambda(p) for p in params])
    out = np.empty(radii.shape)
    seeded = radii <= _ODE_SEED_T
    out[seeded] = _series_seed(lam[seeded], radii[seeded])[0]
    live = ~seeded
    if not np.any(live):
        return out
    lam, r = lam[live], radii[live]
    tau0 = _ODE_SEED_T / float(np.max(r))

    def rhs(tau, y):
        # y = (u, du/dt) per item; d/dtau = r d/dt
        u, du = y[:r.size], y[r.size:]
        return np.concatenate((r * du, -r * (du / np.tanh(r * tau) + lam * u)))

    try:
        from scipy.integrate import solve_ivp
    except ImportError as exc:
        raise ImportError("the ODE oracle needs scipy: pip install 'spectral-chroma[oracle]'") from exc
    sol = solve_ivp(rhs, (tau0, 1.0), np.concatenate(_series_seed(lam, r * tau0)),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise StepSizeUnderflow(f"radial integration failed: {sol.message}")
    out[live] = sol.y[:r.size, -1]
    return out
