"""Reference values computed apart from the package under test.

Eigenvalues come from mpmath's Legendre function P_{-1/2+is}(cosh r) (and
P_{-1/2+sigma} on the complementary series) at 30 significant digits;
bounds and graph spectra come from their closed forms.  Nothing here
imports spectral_chroma, and nothing is a stored copy of program output.
Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import functools
import math

import mpmath

mpmath.mp.dps = 30

#: agreement demanded between a reported eigenvalue and mpmath; this is the
#: package's default absolute quadrature tolerance, which it promises to meet
ABS_TOL = 1e-10
#: the CLI's verification threshold
VERIFY_THRESHOLD = 1e-6


@functools.lru_cache(maxsize=None)
def legendre(kind: str, value: float, r: float) -> float:
    """Averaging-operator eigenvalue at radius r, from mpmath."""
    if kind == "principal":
        degree = mpmath.mpc(-0.5, value)
    else:
        degree = mpmath.mpf(-0.5) + mpmath.mpf(value)
    return float(mpmath.re(mpmath.legenp(degree, 0, mpmath.cosh(mpmath.mpf(r)), type=3)))


def floor(r: float) -> float:
    """Certified envelope floor -(r+1) e^{-r/2}."""
    return -(r + 1.0) * math.exp(-0.5 * r)


def close(a: float, b: float, rel: float = 1e-14) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def check_eigenvalue(label: str, kind: str, value: float, r: float, got: float) -> list[str]:
    ref = legendre(kind, value, r)
    if abs(got - ref) <= ABS_TOL:
        return []
    return [f"{label}: {kind} {value} at r={r} gave {got!r}, mpmath {ref!r}"]


def check_scan(label: str, r: float, m_numeric: float, m_analytic: float, argmin_s: float,
               s_max: float, degenerate: bool, delta: float) -> list[str]:
    """A scan summary against the floor and mpmath around its minimiser.

    The scanned minimum may not undercut the certified floor, must equal
    mpmath at its own argmin, and mpmath at argmin +/- delta may not lie
    below it (the refinement stops at a local minimum).
    """
    problems = []
    if degenerate:
        problems.append(f"{label}: flagged degenerate at r={r}")
    if not close(m_analytic, floor(r)):
        problems.append(f"{label}: m_analytic {m_analytic!r} != floor {floor(r)!r}")
    if not m_numeric >= floor(r) - ABS_TOL:
        problems.append(f"{label}: m_numeric {m_numeric!r} below the floor {floor(r)!r}")
    if not 0.0 <= argmin_s <= s_max:
        problems.append(f"{label}: argmin_s {argmin_s!r} outside [0, {s_max}]")
        return problems
    problems += check_eigenvalue(label, "principal", argmin_s, r, m_numeric)
    for s in (max(argmin_s - delta, 0.0), argmin_s + delta):
        ref = legendre("principal", s, r)
        if ref < m_numeric - ABS_TOL:
            problems.append(f"{label}: mpmath at s={s!r} ({ref!r}) below m_numeric {m_numeric!r}")
    return problems


def circulant_extremes(n: int, connections) -> tuple[float, float]:
    """Largest and smallest adjacency eigenvalue of the circulant graph on
    Z_n joining i to i +/- d for d in connections (all d < n/2)."""
    spectrum = [
        math.fsum(2.0 * math.cos(2.0 * math.pi * k * d / n) for d in connections)
        for k in range(n)
    ]
    return max(spectrum), min(spectrum)


def bounds_closed_form(r: float, lam: float, c: float) -> dict:
    """Bound report at radius r with spectral gap lam < 1/4 and exponent c."""
    env = (r + 1.0) * math.exp(-0.5 * r)
    beta = min(0.5 * r, 1.0 + (1.0 + 4.0 * lam) ** -0.5) * math.exp(-0.5 * c * r)
    exact = env / (1.0 + env)
    nevo_alpha = beta / (1.0 + beta)
    return {
        "ind_ratio_exact": exact,
        "ind_ratio_relaxed": env,
        "chi_lower": math.exp(0.5 * r) / (r + 1.0),
        "m_used": -env,
        "pp_chi_upper": 5 * (math.ceil(r / math.log(4.0)) + 1),
        "beta": beta,
        "alpha_bound": nevo_alpha,
        "winner": "nevo" if nevo_alpha < exact else "main_theorem",
    }
