"""Property sweep of the quadrature eigenvalue against mpmath's Legendre function."""

import pytest

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from spectral_chroma import DEFAULT_QUADRATURE, SpectralParameter, eigenvalue
from spectral_chroma.spherical import MAX_EVAL_RADIUS

PARAMETERS = st.one_of(
    st.floats(0.0, 1e3).map(SpectralParameter.principal),
    st.floats(0.0, 0.5).map(SpectralParameter.complementary),
)


def legendre(param: SpectralParameter, r: float) -> float:
    """P_nu(cosh r) to about 30 digits, nu = -1/2 + is or -1/2 + sigma."""
    with mpmath.workdps(30):
        if param.kind == "principal":
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


@settings(deadline=None, max_examples=50)
@given(param=PARAMETERS, r=st.floats(0.0, MAX_EVAL_RADIUS, exclude_min=True))
def test_eigenvalue_within_abs_tol_of_legendre(param, r):
    assert abs(eigenvalue(param, r) - legendre(param, r)) <= DEFAULT_QUADRATURE.abs_tol
