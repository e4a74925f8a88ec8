"""Property tests: no float on the command line and no scenario document ends in a traceback.

``weakmeter`` must answer every input with exit 0, 3 (parse/validation) or
4 (computation).  Values cover signed zeros, subnormals, +-1e308, nan and
+-inf as well as hypothesis' own float draws.  Whole documents are fuzzed
for structure too: sections of a valid document dropped or swapped for
random YAML trees, and fully random trees.
"""

import contextlib
import copy
import io
import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import yaml  # noqa: E402

from weakmeter.cli import EXIT_COMPUTE, EXIT_OK, EXIT_PARSE, list_bundles, main  # noqa: E402
from weakmeter.dynamics import VARIANTS  # noqa: E402
from weakmeter.errors import ScenarioError  # noqa: E402
from weakmeter.optics import STATE_IDS  # noqa: E402
from weakmeter.scenario import parse_scenario, run_scenario  # noqa: E402
from weakmeter.weakvalue import observable_ids  # noqa: E402

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


# a valid document every structural edit starts from
BASE = {
    "name": "fuzz",
    "preselect": {"id": "disembody_in", "theta": 0.5},
    "postselect": {"id": "disembody_f", "alpha": 0.25},
    "coupling": {"variant": "measure_sigma_zR_noisy", "g": 1.0e-3, "gprime": 1.0e-3,
                 "t": 1.0, "kick_time": 1.0, "measure_arm": None, "kick_sign": 1},
    "meter": {"N": 8, "delta": 1.0},
    "observables": ["sigma_z_L", "sigma_z_R"],
    "sweep": {"preselect.theta": {"values": [0.25, 0.5]},
              "meter.N": {"start": 4, "stop": 8, "steps": 2}},
}
# documents within these bounds are also run; any document is parsed
MAX_HALF_WIDTH = 16
MAX_POINTS = 12

FIELD_KEYS = sorted({key for section in BASE.values() if isinstance(section, dict)
                     for key in section} | {"alpha", "theta", "values", "start", "stop",
                                            "steps"} | set(BASE))
SWEEP_PATHS = [f"{section}.{key}" for section in ("preselect", "postselect", "coupling", "meter")
               for key in BASE[section]]
IDS = sorted(STATE_IDS) + list(observable_ids()) + list(VARIANTS) + ["L", "R"]

keys = st.one_of(st.sampled_from(FIELD_KEYS + SWEEP_PATHS), st.text(max_size=8),
                 st.integers())
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, st.text(max_size=8),
                    st.sampled_from(IDS))
trees = st.recursive(scalars, lambda children: st.one_of(
    st.lists(children, max_size=4), st.dictionaries(keys, children, max_size=4)),
    max_leaves=12)


ADD = object()  # stands for a new entry among a mapping's keys


def edit(draw, node):
    """``node`` with up to two entries added, dropped, swapped for a tree, or edited in turn."""
    if isinstance(node, dict):
        node = dict(node)
        for key in draw(st.sets(st.sampled_from([*node, ADD]), max_size=2)):
            action = "add" if key is ADD else draw(st.sampled_from(("drop", "replace", "edit")))
            if action == "add":
                node[draw(keys)] = draw(trees)
            elif action == "drop":
                del node[key]
            else:
                node[key] = draw(trees) if action == "replace" else edit(draw, node[key])
        return node
    if isinstance(node, list):
        items = st.sampled_from(node) | trees if node else trees
        return draw(st.lists(items, max_size=4))
    return draw(st.one_of(st.just(node), scalars, trees))


@st.composite
def edited_documents(draw):
    return edit(draw, copy.deepcopy(BASE))


def point_count(doc) -> int | None:
    """Sweep points of a parsed document, or None if one would exceed the run bounds."""
    count = 1
    for path, spec in doc.sweep.items():
        values = spec["values"] if "values" in spec else [spec["start"], spec["stop"]]
        if path == "meter.N" and max(abs(v) for v in values) > MAX_HALF_WIDTH:
            return None
        count *= len(spec["values"]) if "values" in spec else spec["steps"]
    if doc.meter["N"] > MAX_HALF_WIDTH or count > MAX_POINTS:
        return None
    return count


def check_document(text: str, path) -> None:
    try:
        doc = parse_scenario(text)
    except ScenarioError:
        doc = None  # the only error a document may raise
    if doc is not None:
        count = point_count(doc)
        if count is None:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # wide meters warn about truncation
            assert len(run_scenario(doc)) == count
    path.write_text(text, encoding="utf-8")
    assert_clean_exit(*run_main(["run", str(path)]))


DOC_FUZZ = settings(max_examples=150, derandomize=True, deadline=None, database=None)


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.yaml"


@DOC_FUZZ
@given(doc=edited_documents())
# each once ended in a traceback: a sweep key that is no string, a key that is no
# angle reaching a message as it was (here with a line break)
@example(doc={**BASE, "sweep": {0: None}})
@example(doc={**BASE, "preselect": {"id": "disembody_in", "theta": 0.5, "\n": None}})
def test_edited_document_parses_runs_and_exits_cleanly(doc, scenario_path):
    check_document(yaml.safe_dump(doc), scenario_path)


@DOC_FUZZ
@given(doc=trees)
def test_random_document_tree_exits_cleanly(doc, scenario_path):
    check_document(yaml.safe_dump(doc), scenario_path)
