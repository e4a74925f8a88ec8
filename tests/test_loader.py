"""The scenario loader reads alike on libyaml and on PyYAML's pure-Python parser.

``ScenarioLoader`` is built on ``yaml.CSafeLoader`` when PyYAML ships
libyaml, and on ``yaml.SafeLoader`` otherwise; ``scenario._loader`` builds
either.  Each test here runs under both bases, so the fallback stays tested
on a machine that has libyaml.  The divergences README lists are pinned as
they are, not papered over.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import test_scenario
from weakmeter import scenario
from weakmeter.cli import EXIT_PARSE, list_bundles, load_bundle, main
from weakmeter.errors import ParameterRangeError, ScenarioSyntaxError
from weakmeter.scenario import parse_scenario

LIBYAML = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")

BASES = {"libyaml": getattr(yaml, "CSafeLoader", None), "pure": yaml.SafeLoader}


@pytest.fixture(params=list(BASES))
def base(request, monkeypatch):
    """Run the test with ``ScenarioLoader`` on each base in turn."""
    if BASES[request.param] is None:
        pytest.skip("PyYAML without libyaml")
    use(request.param, monkeypatch)
    return request.param


def outcome(text: str):
    """The document ``text`` parses to, or its error's type, message and line."""
    try:
        return parse_scenario(text)
    except ScenarioSyntaxError as exc:
        return type(exc), str(exc), exc.line
    except Exception as exc:
        return type(exc), str(exc)


def use(base_name: str, monkeypatch) -> None:
    monkeypatch.setattr(scenario, "ScenarioLoader", scenario._loader(BASES[base_name]))


def under(base_name: str, monkeypatch, text: str):
    use(base_name, monkeypatch)
    return outcome(text)


def test_loader_is_built_on_libyaml_when_pyyaml_has_it():
    if yaml.__with_libyaml__:
        assert issubclass(scenario.ScenarioLoader, yaml.CSafeLoader)
    else:
        assert issubclass(scenario.ScenarioLoader, yaml.SafeLoader)


def test_twin_on_either_base_reads_exponent_floats(base):
    assert yaml.load("g: 2e-3", Loader=scenario.ScenarioLoader) == {"g": 0.002}
    assert yaml.safe_load("g: 2e-3") == {"g": "2e-3"}  # the base classes are untouched


# every document text of tests/test_scenario.py, besides the bundles
DOC_TEXTS = {name: value for name, value in vars(test_scenario).items()
             if name.isupper() and isinstance(value, str)}


@LIBYAML
@pytest.mark.parametrize("label", sorted(DOC_TEXTS) + [f"bundle:{n}" for n in list_bundles()])
def test_documents_parse_alike(monkeypatch, label):
    text = load_bundle(label[7:]) if label.startswith("bundle:") else DOC_TEXTS[label]
    libyaml = under("libyaml", monkeypatch, text)
    assert under("pure", monkeypatch, text) == libyaml
    if label != "CHESHIRE_WITH":  # a template: its observables are a placeholder
        assert isinstance(libyaml, scenario.ScenarioDoc)


MALFORMED = {
    "unclosed-flow-seq": "name: [unclosed\npreselect: {id: cheshire_in}\n",
    "unclosed-flow-map": "name: x\npreselect: {id: cheshire_in\n",
    "unclosed-quote": "name: 'x\n",
    "bad-indent": "name: x\npreselect:\n  id: amp_in\n theta: 0.5\n",
    "sequence-after-mapping": "name: x\n- amp_in\n",
    "mapping-in-plain-value": "name: a: b: c\n",
    "at-start": "name: @x\n",
    "backtick-start": "name: `x\n",
    "percent-start": "name: %x\n",
    "tab-indent": "name: x\n\tpreselect: {}\n",
    "undefined-alias": "name: *x\n",
    "control-char": "name: a\x01b\n",
    "control-char-after-non-ascii": "name: é\nmeter: {N: 8}\x7f\n",
    "control-char-after-crlf": "name: x\r\npreselect: \x02\r\n",
    "lone-surrogate": "name: x\n\ud800: 1\n",
    "bad-timestamp": "name: 2020-13-45\n",
    "bad-int-tag": "name: x\nmeter: {N: !!int eight}\n",
    "unhashable-key": "name: x\n[a]: 1\n",
    "deep-nesting": "name: x\nsweep: " + "[" * 20_000 + "]" * 20_000 + "\n",
}


@pytest.mark.parametrize("label", list(MALFORMED))
def test_malformed_text_names_its_line(base, label):
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(MALFORMED[label])
    assert err.value.line is not None
    assert "\n" not in str(err.value)


@LIBYAML
@pytest.mark.parametrize("label", list(MALFORMED))
def test_malformed_text_fails_on_the_same_line(monkeypatch, label):
    lines = {}
    for base_name in BASES:
        use(base_name, monkeypatch)
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(MALFORMED[label])
        lines[base_name] = err.value.line
    assert lines["libyaml"] == lines["pure"]


def test_deep_nesting_of_a_short_text_is_one_error(base):
    # short of the length that is scanned: libyaml composes 1,000 levels, the
    # pure-Python composer runs out of recursion; both end in ScenarioSyntaxError
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("[" * 1000 + "]" * 1000)


def test_nesting_past_the_c_stack_is_rejected_before_composing():
    # in a child process, so a guard that fails cannot take the test run down with it
    code = ("from weakmeter.scenario import parse_scenario\n"
            "try:\n    parse_scenario('[' * 100_000)\n"
            "except ValueError as exc:\n    print(f'{type(exc).__name__}: {exc}')\n")
    env = dict(os.environ, PYTHONPATH=str(Path(scenario.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("ScenarioSyntaxError: collections nest deeper than 100 levels "
                           "(line 1, column 101)\n")


def test_reader_error_is_located_from_the_text(base):
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(MALFORMED["control-char-after-non-ascii"])
    # libyaml counts the offset in UTF-8 bytes and PyYAML in characters; the
    # location comes from the text, so both report the character itself
    assert (err.value.line, err.value.column) == (2, 14)
    assert str(err.value).startswith("unacceptable character #x007f: ")


# ---- divergences of libyaml, as README states them ----


@LIBYAML
def test_tab_separator_follows_yaml_1_2_on_libyaml(monkeypatch):
    text = test_scenario.MINIMAL.replace("name: minimal", "name:\tminimal")
    assert under("libyaml", monkeypatch, text) == parse_scenario(test_scenario.MINIMAL)
    kind, message, line = under("pure", monkeypatch, text)
    assert kind is ScenarioSyntaxError and line == 2
    assert message.startswith("found character '\\t' that cannot start any token")


@LIBYAML
def test_surrogate_escape_is_rejected_by_libyaml_at_scan_time(monkeypatch):
    text = test_scenario.MINIMAL.replace("name: minimal", 'name: "\\ud800"')
    assert under("libyaml", monkeypatch, text) == (
        ScenarioSyntaxError, "found invalid Unicode character escape code (line 2, column 10)", 2)
    # PyYAML reads the escape; the name rule rejects it
    assert under("pure", monkeypatch, text) == (
        ParameterRangeError, "scenario name '\\ud800' cannot be written as UTF-8")


@LIBYAML
def test_error_wording_and_one_column_differ(monkeypatch):
    assert under("libyaml", monkeypatch, "name: @x\n") == (
        ScenarioSyntaxError, "found character that cannot start any token (line 1, column 7)", 1)
    assert under("pure", monkeypatch, "name: @x\n") == (
        ScenarioSyntaxError,
        "found character '@' that cannot start any token (line 1, column 7)", 1)
    # a bad escape: same line, libyaml's column one to the left
    assert under("libyaml", monkeypatch, 'name: "\\q"\n')[1].endswith("(line 1, column 8)")
    assert under("pure", monkeypatch, 'name: "\\q"\n')[1].endswith("(line 1, column 9)")


@LIBYAML
@pytest.mark.parametrize("text, libyaml_line, pure_line", [
    ("name: [unclosed", 2, 1),  # an error at the end of a text without a final line break
    ("%x\n", 1, 2),  # an unknown directive with no document after it
], ids=["no-final-line-break", "bare-directive"])
def test_lines_that_differ(monkeypatch, text, libyaml_line, pure_line):
    assert under("libyaml", monkeypatch, text)[2] == libyaml_line
    assert under("pure", monkeypatch, text)[2] == pure_line


@LIBYAML
def test_plain_scalar_style():
    # the name rule tests plainness as `not node.style` for this reason
    def style(loader):
        node = loader("name: 1e3").get_single_node()
        return node.value[0][1].style

    assert style(scenario._loader(yaml.CSafeLoader)) == ""
    assert style(scenario._loader(yaml.SafeLoader)) is None


# ---- names written by scenario_to_text ----


@pytest.mark.parametrize("name", ["1e3", "1e100", "2E8", "-1e-5", "1.0e+3"])
def test_exponent_looking_name_reads_as_a_string(base, name):
    doc = parse_scenario(test_scenario.MINIMAL.replace("name: minimal", f"name: {name}"))
    assert doc.name == name
    assert parse_scenario(scenario.scenario_to_text(doc)) == doc


def test_exponent_floats_elsewhere_stay_numbers(base):
    doc = parse_scenario(test_scenario.MINIMAL + "coupling: {g: 2e-3}\nmeter: {N: 8, delta: 1e0}\n")
    assert (doc.coupling["g"], doc.meter["delta"]) == (0.002, 1.0)
    with pytest.raises(ParameterRangeError, match="nonempty string 'name'"):
        parse_scenario(test_scenario.MINIMAL.replace("name: minimal", "name: 1.5"))


def test_cli_reports_a_reader_error_on_one_line(base, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(test_scenario.MINIMAL.replace("name: minimal", "name: a\x01b"),
                   encoding="utf-8")
    assert main(["run", str(bad)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unacceptable character #x0001: ")
    assert captured.err.endswith("(line 2, column 8)\n") and captured.err.count("\n") == 1


# ---- duplicate keys ----


@pytest.mark.parametrize("text, key, line", [
    (test_scenario.MINIMAL + "coupling: {g: 1.0, g: 0.002}\n", "g", 6),
    (test_scenario.MINIMAL + "name: other\n", "name", 6),
    (test_scenario.MINIMAL + "meter:\n  N: 8\n  delta: 1.0\n  N: 16\n", "N", 9),
], ids=["flow", "top-level", "block"])
def test_duplicate_key_exits_on_one_line(base, tmp_path, capsys, text, key, line):
    bad = tmp_path / "dup.yaml"
    bad.write_text(text, encoding="utf-8")
    assert main(["run", str(bad)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: duplicate key {key!r}, first given on line ")
    assert f"(line {line}, column " in captured.err and captured.err.count("\n") == 1


def test_explicit_key_overrides_a_merged_one(base):
    # only a mapping's own keys are checked: a merge may bring a key in twice,
    # and an explicit key may override a merged one
    text = "a: &a {g: 1.0, t: 2.0}\nb: {<<: [*a, {g: 3.0}], g: 0.5}\n"
    assert scenario.load_yaml(text) == {"a": {"g": 1.0, "t": 2.0}, "b": {"g": 0.5, "t": 2.0}}
