"""Property tests: no float given on the command line ends in a traceback.

``weakmeter`` must answer every input with exit 0, 3 (parse/validation) or
4 (computation).  Values cover signed zeros, subnormals, +-1e308, nan and
+-inf as well as hypothesis' own float draws.
"""

import contextlib
import io
import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from weakmeter.cli import EXIT_COMPUTE, EXIT_OK, EXIT_PARSE, list_bundles, main  # noqa: E402
from weakmeter.optics import STATE_IDS  # noqa: E402

FLOAT_FIELDS = ("coupling.g", "coupling.gprime", "coupling.t", "coupling.kick_time",
                "coupling.kick_sign", "meter.delta", "preselect.theta", "postselect.alpha")

EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-200, 1.0, -1.0,
         1e300, 1e308, -1e308, math.nan, math.inf, -math.inf)

floats = st.one_of(st.sampled_from(EDGES), st.floats())

# derandomized, so every run draws the same examples and writes no example database
FUZZ = settings(max_examples=80, derandomize=True, deadline=None, database=None)


def yaml_number(value: float) -> str:
    if math.isnan(value):
        return ".nan"
    if math.isinf(value):
        return ".inf" if value > 0 else "-.inf"
    return repr(value)


def run_main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")  # wide meters warn about truncation
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_COMPUTE)
    assert "Traceback" not in err
    if code == EXIT_PARSE:
        assert err.startswith("error: ") and err.count("\n") == 1


@FUZZ
@given(bundle=st.sampled_from(list_bundles()), field=st.sampled_from(FLOAT_FIELDS),
       value=floats)
def test_run_with_any_float_override(bundle, field, value):
    assert_clean_exit(*run_main(["run", f"bundle:{bundle}", "--set",
                                 f"{field}={yaml_number(value)}"]))


@FUZZ
@given(bundle=st.sampled_from(list_bundles()),
       value=st.one_of(st.integers(max_value=256), st.floats(max_value=256.0)))
def test_run_with_any_meter_size(bundle, value):
    text = yaml_number(value) if isinstance(value, float) else str(value)
    assert_clean_exit(*run_main(["run", f"bundle:{bundle}", "--set", f"meter.N={text}"]))


@FUZZ
@given(state=st.sampled_from(sorted(STATE_IDS)), theta=st.none() | floats,
       alpha=st.none() | floats)
def test_show_state_with_any_angles(state, theta, alpha):
    # --flag=value keeps argparse from reading -5e-324 or -inf as an option
    argv = ["show-state", state]
    argv += [] if theta is None else [f"--theta={theta!r}"]
    argv += [] if alpha is None else [f"--alpha={alpha!r}"]
    assert_clean_exit(*run_main(argv))
