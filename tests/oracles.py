"""Independent references for the eigenvalues, shared by the tests.

* ``legendre``         -- mpmath's conical Legendre function P_{-1/2+is}(cosh r)
                          or P_{-1/2+sigma}(cosh r) to about 30 digits;
* ``eigenvalue_ode``   -- the radial differential equation
                          u'' + coth(t) u' + lam u = 0, u(0) = 1, u'(0) = 0,
                          solved by scipy's DOP853.

Neither route shares code with the package's Harish-Chandra series or its
Gauss-Kronrod integral.  mpmath and scipy are imported only when a
reference is computed, so a test module that imports this one still
collects without them.
"""

import math

import numpy as np

from spectral_chroma.spherical import COMPLEMENTARY, PRINCIPAL, SpectralParameter

# supported window of the ODE route
ODE_MAX_S = 100.0
ODE_MAX_R = 30.0
_ODE_SEED_T = 1e-4


def legendre(param: SpectralParameter, r: float) -> float:
    """P_nu(cosh r) to about 30 digits, nu = -1/2 + is or -1/2 + sigma."""
    import mpmath

    with mpmath.workdps(30):
        if param.kind == PRINCIPAL:
            nu = mpmath.mpc(-0.5, param.value)
        else:
            nu = mpmath.mpf(-0.5) + param.value
        try:
            value = mpmath.legenp(nu, 0, mpmath.cosh(r), type=3, maxterms=10**6)
        except mpmath.libmp.NoConvergence:
            # for r near 2 legenp applies the Pfaff transformation
            # cosh(r/2)^(2 nu) 2F1(-nu, -nu; 1; tanh(r/2)^2) but drops
            # maxterms on the way, so large s needs it spelled out
            half = mpmath.mpf(r) / 2
            value = mpmath.cosh(half) ** (2 * nu) * mpmath.hyp2f1(
                -nu, -nu, 1, mpmath.tanh(half) ** 2, maxterms=10**6)
        return float(mpmath.re(value))


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
        raise ValueError(f"s = {param.value} outside the supported ODE range s <= {ODE_MAX_S}")
    return param.value * param.value + 0.25


def eigenvalue_ode(param: SpectralParameter, r: float) -> float:
    """The eigenvalue through the radial differential equation.

    The regular solution of u'' + coth(t) u' + lam u = 0, u(0) = 1,
    u'(0) = 0 is evaluated at t = r, with lam = s^2 + 1/4 on the principal
    series and 1/4 - sigma^2 on the complementary one.  The solution is
    Taylor-seeded just off the coordinate singularity at t = 0 and carried
    to r by an 8th-order adaptive Runge-Kutta scheme.  Supported window:
    s <= 100, r <= 30.  This is a batch of one.
    """
    return float(eigenvalue_ode_batch([param], [r])[0])


def eigenvalue_ode_batch(params, radii) -> np.ndarray:
    """ODE-route eigenvalues for a sequence of parameters at per-item radii.

    With t = r tau every item runs over tau in [tau0, 1], so the whole batch
    is one DOP853 system of 2 n equations.  Each item is Taylor-seeded at
    t = r tau0, where tau0 = _ODE_SEED_T / max r; items with r <= _ODE_SEED_T
    take the series value directly (1 at r = 0).  A parameter or radius
    outside the supported window raises ValueError.
    """
    from scipy.integrate import solve_ivp

    radii = np.asarray(radii, dtype=float)
    for r in radii:
        if not (math.isfinite(r) and 0.0 <= r <= ODE_MAX_R):
            raise ValueError(f"r = {r} outside the supported ODE range 0 <= r <= {ODE_MAX_R}")
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

    sol = solve_ivp(rhs, (tau0, 1.0), np.concatenate(_series_seed(lam, r * tau0)),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"radial integration failed: {sol.message}")
    out[live] = sol.y[:r.size, -1]
    return out
