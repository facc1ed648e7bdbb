"""Property test of the CLI exit-code contract, run in process through main(argv).

Every input gets an answer or a documented exit code; no exception other
than argparse's SystemExit may escape.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from spectral_chroma import cli, spectrum

DOCUMENTED = {0, 2, 3, 5}

# magnitudes 1e-310 .. 1e308 of either sign, plus the special values and
# a band of ordinary ones where answers (not just refusals) come back
REALS = st.one_of(
    st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-310.0, 308.0), st.sampled_from([1.0, -1.0])),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.floats(-50.0, 50.0),
)

# absent or one of a few values: refused, unreachable, looser than the
# default; a drawn tolerance could land in a band that needs many passes
TOLS = st.sampled_from([None, math.nan, math.inf, -1.0, 0.0, 1e-300, 1e-6])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["verify", "eval"]))
    flag = draw(st.sampled_from(["--s", "--sigma"]))
    argv = [command, f"--r={draw(REALS)!r}", f"{flag}={draw(REALS)!r}"]
    if command == "verify":
        argv += [f"--n={draw(st.integers(8, 256))}", f"--base={draw(REALS)!r},{draw(REALS)!r}"]
    tol = draw(TOLS)
    if tol is not None:
        argv.append(f"--tol={tol!r}")
    return argv


@pytest.fixture
def no_nan_radii(monkeypatch):
    batch = spectrum._eigenvalue_batch

    def checked(kind, values, radii, quad):
        assert not np.any(np.isnan(radii))
        return batch(kind, values, radii, quad)

    monkeypatch.setattr(spectrum, "_eigenvalue_batch", checked)


@settings(deadline=None, max_examples=60, suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_every_input_gets_a_documented_exit_code(argv, no_nan_radii, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code in DOCUMENTED, argv


@pytest.mark.parametrize("data,line_no", [(b"\xff\n", 1), (b"0 1\n1 2\n# caf\xe9\n2 0\n", 3)])
def test_edge_list_that_is_not_utf8_exits_2(data, line_no, tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_bytes(data)
    assert cli.main(["graph", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line {line_no}: not UTF-8\n"
