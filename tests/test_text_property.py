"""Property test: a scenario's canonical text is PyYAML's safe_dump of the document.

The config hash is sha256 of :func:`scenario_to_text`, and hashes are
published in every record.  The text is written from the validated schema,
so it must equal ``yaml.safe_dump(doc.to_dict(), sort_keys=True,
default_flow_style=False)`` byte for byte.  Documents come from the bundles
through ``parse_scenario`` and ``apply_override``: random names (YAML
indicators, quotes, line breaks, non-ASCII, long lines, words YAML reads as
null, bool or number), edge floats in every number field, ``kick_time``
unset and set, sweeps as value lists and as ranges, and observable lists.
The text also reads back as the same document, names like ``1e3`` included.
Plain names (a letter, then letters, digits, ``_`` and ``-``) are written
without PyYAML unless its resolver reads them as another type (``yes``,
``No``, ``null``, ``on``); the examples pin both sides of that rule.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import yaml  # noqa: E402

from weakmeter.cli import list_bundles, load_bundle  # noqa: E402
from weakmeter.errors import WeakmeterError  # noqa: E402
from weakmeter.scenario import apply_override, parse_scenario, scenario_to_text  # noqa: E402
from weakmeter.weakvalue import observable_ids  # noqa: E402

BASES = {name: parse_scenario(load_bundle(name)) for name in list_bundles()}

NAME_PIECES = (": ", "#", "- ", "-", "'", '"', "\n", "\r\n", "\t", " ", "é", "猫", " ",
               "\x85", "null", "yes", "1e3", "~", "[a]", "{b}", "&x", "*y", "!z", "%", "@",
               "x" * 90, "word " * 20)

FLOAT_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-7, 0.1, 0.5, 1.0, 1.5, 100.0, 1e16, 1e17,
               1e22, 1e308, -1e308, 0.3333333333333333, -0.25)

NUMBER_PATHS = ("coupling.g", "coupling.gprime", "coupling.t", "coupling.kick_time",
                "meter.delta", "preselect.theta", "postselect.alpha")
SWEEP_PATHS = NUMBER_PATHS + ("coupling.kick_sign", "meter.N")

names = st.one_of(
    st.lists(st.one_of(st.sampled_from(NAME_PIECES), st.text(max_size=12)),
             min_size=1, max_size=6).map("".join),
    st.text(min_size=1),
).filter(bool)
floats = st.one_of(st.sampled_from(FLOAT_EDGES),
                   st.floats(allow_nan=False, allow_infinity=False))
sweeps = st.one_of(
    st.builds(lambda values: {"values": values}, st.lists(floats, min_size=1, max_size=4)),
    st.builds(lambda start, stop, steps: {"start": start, "stop": stop, "steps": steps},
              floats, floats, st.integers(min_value=1, max_value=10**20)),
)
edits = st.one_of(
    st.tuples(st.sampled_from(NUMBER_PATHS), floats),
    st.tuples(st.just("coupling.kick_time"), st.none()),
    st.tuples(st.just("coupling.kick_sign"), st.sampled_from((1, -1))),
    st.tuples(st.just("meter.N"), st.integers(min_value=1, max_value=10**20)),
    st.tuples(st.just("observables"),
              st.lists(st.sampled_from(observable_ids()), max_size=5)),
    st.tuples(st.just("sweep"),
              st.dictionaries(st.sampled_from(SWEEP_PATHS), sweeps, max_size=3)),
)

# derandomized, so every run draws the same examples and writes no example database
PROPERTY = settings(max_examples=300, derandomize=True, deadline=None, database=None)


def safe_dump_text(doc) -> str:
    return yaml.safe_dump(doc.to_dict(), sort_keys=True, default_flow_style=False)


@PROPERTY
@given(base=st.sampled_from(sorted(BASES)), name=names, changes=st.lists(edits, max_size=6))
@example(base="cheshire", name="a: b # c", changes=[("coupling.kick_time", -0.0)])
@example(base="disembodiment", name="- null\n'yes'\n" + "é" * 90,
         changes=[("coupling.g", 1e17), ("coupling.t", 1e308),
                  ("sweep", {"preselect.theta": {"values": [-0.0, 5e-324]}})])
@example(base="parallel_noise_1", name="1e3",
         changes=[("coupling.kick_time", 50.0), ("observables", []),
                  ("sweep", {"meter.N": {"start": 8.0, "stop": 1e17, "steps": 3}})])
@example(base="cheshire", name="yes", changes=[])
@example(base="cheshire", name="No", changes=[])
@example(base="cheshire", name="null", changes=[])
@example(base="cheshire", name="on", changes=[])
@example(base="cheshire", name="a-b", changes=[])
@example(base="cheshire", name="a_b", changes=[])
@example(base="cheshire", name="-a", changes=[])
@example(base="cheshire", name="1e3", changes=[])
@example(base="cheshire", name="x" * 200, changes=[])
def test_text_is_safe_dump(base, name, changes):
    doc = apply_override(BASES[base], "name", name)
    for path, value in changes:
        try:
            doc = apply_override(doc, path, value)
        except WeakmeterError:
            pass  # a value the rules reject leaves the document as it was
    assert scenario_to_text(doc) == safe_dump_text(doc)
    assert parse_scenario(scenario_to_text(doc)) == doc
