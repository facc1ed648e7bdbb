"""Eigenvalues of the circle-averaging operator on the hyperbolic plane.

The rotation-invariant eigenfunctions attach to each spectral parameter an
eigenvalue equal to the conical Legendre value P_{-1/2+is}(cosh r).  This
module evaluates it two independent ways:

* ``_harish_chandra``  -- the Harish-Chandra series
                          2 Re[c(s) exp((-1/2 + is) r)
                          2F1(1/2, 1/2 - is; 1 - is; exp(-2r))],
                          which ``eigenvalue`` and ``principal_grid`` try
                          first for principal-series values at r >= 2,
                          keeping a value only where its error bound meets
                          abs_tol;
* ``eigenvalue``       -- the singular integral
                          sqrt(2)/pi * int_0^r k(x)/sqrt(cosh r - cosh x) dx
                          with kernel k(x) = cos(s x) on the principal
                          series and cosh(sigma x) on the complementary
                          series, desingularized by x = r - u^2 with
                          u = sqrt(r) t and integrated over t in [0, 1] by
                          the batched Gauss-Kronrod ``integrate``, for
                          every value the series does not take.

The tests check both against mpmath's Legendre function and against the
radial differential equation u'' + coth(t) u' + lam u = 0.  Those
references live in tests/oracles.py; the package itself needs NumPy alone.
It also provides the uniform envelope (r+1) exp(-r/2) that bounds every
principal-series eigenvalue.  Evaluation is stateless; grid sweeps are safe
to run unsynchronized in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, _EPS, _cosine_progression, integrate

_TWO_SQRT2_OVER_PI = 2.0 * math.sqrt(2.0) / math.pi
# sqrt(r) max(value, 1.5) per initial panel, see _eigenvalue_batch
_PANEL_PHASE = 3.0 * math.pi

PRINCIPAL = "principal"
COMPLEMENTARY = "complementary"

# sinh overflows past ~710, where the eigenvalues are below 1e-150 anyway
MAX_EVAL_RADIUS = 700.0

# principal-series items at r >= _SERIES_MIN_R with s inside _SERIES_S_WINDOW
# try the Harish-Chandra series first (_harish_chandra).  In the window 1/s
# stays far inside double range, and s r <= 7e8 keeps the rounding error of
# the phase s r, which is carried on its own, below 6e-8.  An item at radius
# r sums max(2, ceil(_SERIES_DECAY / r)) terms of the series' 2F1, which
# leave out less than exp(-2 _SERIES_DECAY) = 4.2e-18 of it.
_SERIES_MIN_R = 2.0
_SERIES_S_WINDOW = (1e-150, 1e6)
_SERIES_DECAY = 20.0
# items per _harish_chandra call, whose tables hold _GAMMA_SHIFT values per item
_SERIES_BLOCK = 2048
# the series' rounding error, in units of eps 2 |c(s)| exp(-r/2) / (1 - exp(-2r));
# against mpmath it reads below 2
_SERIES_ROUNDING = 128.0
# Gamma(w) / Gamma(w + 1/2) is taken at w + _GAMMA_SHIFT from Stirling's series
# log Gamma(w) - log Gamma(w + 1/2) = -log(w) / 2 + sum_j C_j w^(1 - 2j),
# C_j = (2 - 2^(1 - 2j)) B_2j / (2j (2j - 1)) with B_2j the Bernoulli numbers
_GAMMA_SHIFT = 16
_GAMMA_RATIO_TERMS = (1 / 8, -1 / 192, 1 / 640, -17 / 14336, 31 / 18432, -691 / 180224)


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
    """Uniform principal-series bound (r+1) exp(-r/2).

    Within 1.5 ulps while exp(-r/2) is a normal double, up to r = 1416.8;
    past it the factor is subnormal and keeps fewer digits, and the result
    underflows to 0 from about r = 1504 on.
    """
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"envelope needs r >= 0, got {r}")
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

    Principal-series items with r >= _SERIES_MIN_R = 2 and s in
    _SERIES_S_WINDOW (so s > 0) are evaluated by the Harish-Chandra series
    first (_harish_chandra); each one whose error bound is at most
    quad.abs_tol keeps that value.  The remaining items, all of them where
    none takes the series, are integrated as one batch, as follows.
    All items start on the same ceil(max sqrt(r) max(value, 1.5) / _PANEL_PHASE)
    panels in t = u / sqrt(r), graded towards t = 1, where cos(s r (1 - t^2))
    oscillates fastest (quadrature._panel_edges), so each item sees a
    bounded stretch of the oscillation on each 31-node panel; for values
    up to 1.5 that is one panel per 2 pi of u on average.  The panels of
    items that miss quad.abs_tol are doubled, up to quadrature._MAX_PANELS
    panels per pass, the first included.  Principal-series values at
    one radius that form an arithmetic progression (every scan grid below
    _SERIES_MIN_R) are summed as matrix products of shared exponential tables; every other
    batch, including a batch of one, from integrand values at the nodes.
    r = 0 gives the limit value 1.
    """
    radii = np.asarray(radii, dtype=float)
    _check_radius(float(radii.min()))
    _check_radius(float(radii.max()))
    out = np.ones(values.shape)
    todo = np.broadcast_to(radii > 0.0, values.shape).copy()
    if kind == PRINCIPAL:
        lo, hi = _SERIES_S_WINDOW
        series = np.flatnonzero((radii >= _SERIES_MIN_R) & (values >= lo) & (values <= hi))
        for start in range(0, series.size, _SERIES_BLOCK):
            block = series[start:start + _SERIES_BLOCK]
            got, bound = _harish_chandra(values[block], radii if radii.ndim == 0 else radii[block])
            certified = bound <= quad.abs_tol
            out[block[certified]] = got[certified]
            todo[block[certified]] = False
    live = np.flatnonzero(todo)
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


def _harish_chandra(s: np.ndarray, r) -> tuple[np.ndarray, np.ndarray]:
    """Principal-series eigenvalues by the Harish-Chandra series, and a bound on each one's error.

    P_{-1/2+is}(cosh r) = 2 Re[c(s) exp((-1/2 + is) r) F], with
    c(s) = Gamma(is) / (sqrt(pi) Gamma(1/2 + is)) and
    F = 2F1(1/2, 1/2 - is; 1 - is; q), q = exp(-2 r) (Helgason, Groups and
    Geometric Analysis, ch. IV).  F's term ratios
    q (k + 1/2) (k + 1/2 - is) / ((k + 1) (k + 1 - is)) are below q in
    modulus for every s, so its terms are below q^k, their sum below
    1 / (1 - q), and the terms after the first n below q^n / (1 - q).  An
    item sums n = max(2, ceil(_SERIES_DECAY / r)) terms, a count set by its
    radius alone, with q^n <= exp(-2 _SERIES_DECAY).  s > 0 lies in
    _SERIES_S_WINDOW, and r >= _SERIES_MIN_R is one radius or one per item.

    All arithmetic is real and elementwise, complex products written out:
    NumPy may round a complex product differently in a batch of one, and
    no item's value may depend on its batch.  |c(s)|^2 is
    coth(pi s) / (pi s), its angle comes from _c_angle, and the phase s r
    is carried exactly, as its rounding plus the rounding error
    (_two_product), so no digit of the phase is lost.

    The bound is _decay_bound's 2 |c(s)| exp(-r/2) / (1 - q) times
    _SERIES_ROUNDING eps, for the rounding of the terms, their sum, c(s)
    and the phase, plus q^n for the terms left out.
    """
    terms = np.maximum(2.0, np.ceil(_SERIES_DECAY / r))
    # the term ratios, one row per k, as q (k + 1/2) / (k + 1) times
    # (k + 1/2 - is) / (k + 1 - is) = 1 - (k + 1 + is) / (2 |k + 1 - is|^2),
    # and 0 from an item's own term count on
    k = np.arange(np.max(terms) - 1.0)[:, None]
    twice = 2.0 * ((k + 1.0) ** 2 + s * s)
    re = 1.0 - (k + 1.0) / twice
    im = -s / twice
    factor = np.exp(-2.0 * r) * ((k + 0.5) / (k + 1.0)) * (k + 1.0 < terms)
    re *= factor
    im *= factor
    # F = 1 + ratio_0 (1 + ratio_1 (1 + ...)) by Horner's rule
    f_re, f_im = 1.0 + re[-1], im[-1]
    for j in range(re.shape[0] - 2, -1, -1):
        f_re, f_im = 1.0 + (re[j] * f_re - im[j] * f_im), re[j] * f_im + im[j] * f_re
    phase, phase_error = _two_product(s, r)
    turn = _c_angle(s) + phase_error
    cos, sin = np.cos(turn), np.sin(turn)
    g_re, g_im = cos * f_re - sin * f_im, sin * f_re + cos * f_im
    scale, decay = _decay_bound(s, r)
    values = scale * (np.cos(phase) * g_re - np.sin(phase) * g_im)
    bounds = decay * (_SERIES_ROUNDING * _EPS + np.exp(-2.0 * r * terms))
    return values, bounds


def _decay_bound(s, r):
    """2 |c(s)| exp(-r/2), and the bound 2 |c(s)| exp(-r/2) / (1 - exp(-2r)) on |phi_s(r)|, elementwise.

    |c(s)|^2 = coth(pi s) / (pi s).  The bound holds for every s > 0 and
    r > 0, since the Harish-Chandra series' 2F1 is below 1 / (1 - exp(-2r))
    in modulus (_harish_chandra), and it decreases in s.  s must be
    positive; above 1e300, where pi s would overflow, s is taken as 1e300,
    whose bound is larger.  1 - exp(-2r) is taken as -expm1(-2r), which
    keeps its digits at small r and is positive for every r > 0; where the
    quotient overflows, as at subnormal r, the bound is inf.
    """
    s = np.minimum(s, 1e300)
    scale = 2.0 * np.exp(-0.5 * r) / np.sqrt(np.pi * s * np.tanh(np.pi * s))
    with np.errstate(over="ignore"):
        return scale, scale / -np.expm1(-2.0 * r)


def _c_angle(s: np.ndarray) -> np.ndarray:
    """The angle of Gamma(is) / Gamma(1/2 + is) for s > 0, elementwise.

    Gamma(w) / Gamma(w + 1/2) is taken at w = _GAMMA_SHIFT + is from
    Stirling's series for its logarithm, whose imaginary part is
    -arg(w) / 2 - sum_j C_j |w|^(1 - 2j) sin((2j - 1) arg w), and carried
    down to is by the angles of (is + k + 1/2) / (is + k),
    -atan2(s / 2, s^2 + k (k + 1/2)), for k < _GAMMA_SHIFT.
    """
    w_angle = np.arctan2(s, _GAMMA_SHIFT)
    odd = np.arange(1.0, 2 * len(_GAMMA_RATIO_TERMS), 2.0)[:, None]
    stirling = np.exp(-0.5 * odd * np.log(_GAMMA_SHIFT**2 + s * s))
    stirling *= np.sin(odd * w_angle)
    stirling *= np.array(_GAMMA_RATIO_TERMS)[:, None]
    k = np.arange(_GAMMA_SHIFT, dtype=float)[:, None]
    shifts = np.arctan2(0.5 * s, s * s + k * (k + 0.5))
    return -0.5 * w_angle - _row_sum(stirling) - _row_sum(shifts)


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """The sum of the rows, added pairwise in an order fixed by their count alone.

    NumPy's own sum over the first axis changes its order with the number
    of columns, and no column's sum may depend on the others.
    """
    while rows.shape[0] > 1:
        half = rows.shape[0] // 2
        paired = rows[:half] + rows[half:2 * half]
        if rows.shape[0] % 2:
            paired[0] += rows[-1]
        rows = paired
    return rows[0]


def _two_product(a, b):
    """(p, e) with p = fl(a b) and a b = p + e exactly (Dekker, 1971), elementwise."""
    p = a * b
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _split(a):
    # a = hi + lo, each half of a's significand (Veltkamp's splitting)
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


def principal_grid(s_values, r: float, quad: QuadratureSpec = DEFAULT_QUADRATURE) -> np.ndarray:
    """Principal-series eigenvalues for a whole grid of s at one radius.

    From r = 2 on, each point with s > 0 takes the Harish-Chandra series
    when its error bound is at most quad.abs_tol, and its value is the
    same, bit for bit, as that point's own eigenvalue.  The other points
    (all of them below r = 2, s = 0, and points the series cannot
    certify) share panels sized for their largest s; those whose
    Kronrod-Gauss estimate misses quad.abs_tol are refined on their own.
    An evenly spaced set of them, s == s[0] + arange(n) * (s[1] - s[0])
    exactly, is summed without one cosine per point and node (see
    quadrature._cosine_progression); its values agree with the node path
    to rounding, and all stay within quad.abs_tol.
    """
    s = np.atleast_1d(np.asarray(s_values, dtype=float))
    if s.ndim != 1:
        raise DomainError("s_values must be one-dimensional")
    if not np.all(np.isfinite(s)) or np.any(s < 0.0):
        raise DomainError("s grid must be finite and non-negative")
    return _eigenvalue_batch(PRINCIPAL, s, r, quad)
