"""One rule set per parameter: library constructors and scenario files agree.

Every row is one bad value for one rule.  The rule lives with the object it
guards (``CouplingSpec``, ``meter.check_meter``, ``optics.check_state``), and
the scenario layer calls it, so the library constructor, ``parse_scenario``,
``apply_override``, ``weakmeter run --set`` and a sweep row all reject the
value with the same error type and the same rule text.
"""

import dataclasses
import math

import numpy as np
import pytest
import yaml

from weakmeter.cli import EXIT_PARSE, main
from weakmeter.dynamics import CouplingSpec
from weakmeter.errors import ParameterRangeError, UnknownIdError
from weakmeter.meter import make_meter
from weakmeter.optics import named_state
from weakmeter.scenario import apply_override, parse_scenario, run_scenario

PLAIN = """
name: plain
preselect: {id: amp_in, theta: 0.5}
postselect: {id: amp_f}
coupling: {variant: noiseless_kick, g: 1.0e-3, gprime: 1.0e-3, t: 10.0, kick_time: 10.0}
meter: {N: 8, delta: 1.0}
observables: [sigma_z_R]
"""

PARALLEL = """
name: parallel
preselect: {id: disembody_in, theta: 0.5}
postselect: {id: disembody_f, alpha: 0.25}
coupling: {variant: parallel_1, g: 1.0e-3, gprime: 1.0e-3, t: 100.0, measure_arm: R}
meter: {N: 8, delta: 1.0}
observables: [sigma_z_R]
"""

# (base, path, bad value, error type, rule text every route must carry)
RULES = [
    (PLAIN, "coupling.variant", "bogus", UnknownIdError, "unknown coupling variant 'bogus'"),
    (PLAIN, "coupling.g", math.nan, ParameterRangeError, "must be finite"),
    (PLAIN, "coupling.g", -1.0, ParameterRangeError,
     "coupling constants g, gprime must be nonnegative"),
    (PLAIN, "coupling.gprime", -1.0, ParameterRangeError,
     "coupling constants g, gprime must be nonnegative"),
    # moved: the library accepted t = 0 for a variant without static noise
    (PLAIN, "coupling.t", 0.0, ParameterRangeError, "coupling.t must be positive, got 0.0"),
    # moved: the library accepted an overflowing g' t
    (PLAIN, "coupling.gprime", 1e308, ParameterRangeError,
     "coupling.gprime * coupling.t must be finite, got 1e+308 * 10.0"),
    (PLAIN, "coupling.kick_time", 11.0, ParameterRangeError,
     "coupling.kick_time = 11.0 outside [0, t=10.0]"),
    (PLAIN, "coupling.measure_arm", "R", ParameterRangeError,
     "coupling.measure_arm applies to the parallel variants only"),
    (PARALLEL, "coupling.measure_arm", "X", ParameterRangeError,
     "coupling.measure_arm must be L or R, got 'X'"),
    (PLAIN, "coupling.kick_sign", 2, ParameterRangeError, "coupling.kick_sign must be 1 or -1"),
    # moved: True and 1.0 passed, and reached records and the config hash as written
    (PLAIN, "coupling.kick_sign", True, ParameterRangeError,
     "coupling.kick_sign must be 1 or -1, got True"),
    (PLAIN, "coupling.kick_sign", 1.0, ParameterRangeError,
     "coupling.kick_sign must be 1 or -1, got 1.0"),
    (PLAIN, "meter.N", 0, ParameterRangeError, "meter.N must be a positive integer, got 0"),
    # moved: make_meter truncated a non-integral half-width with int()
    (PLAIN, "meter.N", 8.5, ParameterRangeError, "meter.N must be a positive integer, got 8.5"),
    (PLAIN, "meter.delta", -1.0, ParameterRangeError, "meter.delta must be positive"),
    (PLAIN, "meter.delta", 1e-200, ParameterRangeError,
     "4 delta^2 a nonzero finite float, got 1e-200"),
    (PLAIN, "meter.delta", 1e300, ParameterRangeError,
     "4 delta^2 a nonzero finite float, got 1e+300"),
    (PLAIN, "preselect.id", "noisy_f", ParameterRangeError, "state 'noisy_f' requires 'alpha'"),
    (PLAIN, "preselect.theta", 1.5, ParameterRangeError,
     ".theta = 1.5 out of range (-1, 1) (units of pi)"),
    (PLAIN, "preselect.theta", -1.0, ParameterRangeError,
     ".theta = -1.0 out of range (-1, 1) (units of pi)"),
    # moved: named_state took any alpha
    (PARALLEL, "postselect.alpha", 7.0, ParameterRangeError,
     ".alpha = 7.0 out of range (-1, 1) (units of pi)"),
]

IDS = [f"{path}={value}" for _, path, value, _, _ in RULES]


def with_value(base: str, path: str, value) -> dict:
    data = yaml.safe_load(base)
    section, leaf = path.split(".")
    data[section][leaf] = value
    return data


def library_call(base: str, path: str, value):
    """The constructor that owns the field, called with the base values and the bad one."""
    data = with_value(base, path, value)
    section = path.split(".")[0]
    if section == "coupling":
        return CouplingSpec(**data["coupling"])
    if section == "meter":
        return make_meter(data["meter"]["N"], data["meter"]["delta"])
    state = dict(data[section])
    return named_state(state.pop("id"), **{k: v * np.pi for k, v in state.items()})


@pytest.mark.parametrize("base,path,value,kind,text", RULES, ids=IDS)
def test_library_rejects(base, path, value, kind, text):
    with pytest.raises(kind) as err:
        library_call(base, path, value)
    assert type(err.value) is kind
    assert text in str(err.value)


@pytest.mark.parametrize("base,path,value,kind,text", RULES, ids=IDS)
def test_parse_rejects(base, path, value, kind, text):
    with pytest.raises(kind) as err:
        parse_scenario(yaml.safe_dump(with_value(base, path, value)))
    assert type(err.value) is kind
    assert text in str(err.value)


@pytest.mark.parametrize("base,path,value,kind,text", RULES, ids=IDS)
def test_override_rejects(base, path, value, kind, text):
    with pytest.raises(kind) as err:
        apply_override(parse_scenario(base), path, value)
    assert type(err.value) is kind
    assert text in str(err.value)


# a sweep list takes finite numbers only (no bool), and gives an integer field
# its integral values as ints, so a swept kick_sign 1.0 is the valid 1
SWEPT = [row for row in RULES if type(row[2]) in (int, float) and math.isfinite(row[2])
         and not (row[1] == "coupling.kick_sign" and row[2] in (1, -1))]


@pytest.mark.parametrize("base,path,value,kind,text", SWEPT,
                         ids=[f"{path}={value}" for _, path, value, _, _ in SWEPT])
def test_sweep_row_rejects(base, path, value, kind, text):
    section, leaf = path.split(".")
    good = parse_scenario(base).to_dict()[section][leaf]
    doc = parse_scenario(base + f"sweep:\n  {path}: {{values: [{good!r}, {value!r}]}}\n")
    first, bad = run_scenario(doc)
    assert first.error == ""
    assert bad.error.startswith(f"{kind.__name__}: ")
    assert text in bad.error
    assert bad.weak_values == {} and bad.mean_p is None


@pytest.mark.parametrize("base,path,value,kind,text", RULES, ids=IDS)
def test_cli_set_rejects(tmp_path, capsys, base, path, value, kind, text):
    # weakmeter run FILE --set PATH=VALUE, the value written as YAML
    scenario = tmp_path / "base.yaml"
    scenario.write_text(base, encoding="utf-8")
    raw = yaml.safe_dump(value).splitlines()[0]
    assert main(["run", str(scenario), "--set", f"{path}={raw}"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert text in err


@pytest.mark.parametrize("values", ["[1, -1]", "[1.0, -1.0]"])
def test_kick_sign_sweeps_as_ints(values):
    # _sweep_points hands the integer field integral values as ints
    doc = parse_scenario(PLAIN + f"sweep:\n  coupling.kick_sign: {{values: {values}}}\n")
    plus, minus = run_scenario(doc)
    assert [plus.point, minus.point] == [{"coupling.kick_sign": 1}, {"coupling.kick_sign": -1}]
    assert type(minus.point["coupling.kick_sign"]) is int
    assert plus.error == minus.error == ""
    assert minus.fit_value == pytest.approx(-plus.fit_value, rel=1e-9)


@pytest.mark.parametrize("value", [math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0), -0.0])
def test_angles_just_inside_the_range_pass_every_route(value):
    doc = apply_override(parse_scenario(PLAIN), "preselect.theta", value)
    assert doc.preselect["theta"] == value
    (record,) = run_scenario(doc)
    assert "ParameterRangeError" not in record.error  # theta -> +-pi may degenerate the overlap
    # the radian round trip of named_state keeps the value inside (-pi, pi)
    named_state("amp_in", theta=value * np.pi)
    named_state("noisy_f", alpha=value * np.pi)


@pytest.mark.parametrize("path,value", [("meter.N", np.int64(8)), ("meter.N", np.uint8(8)),
                                        ("coupling.kick_sign", np.int64(-1)),
                                        ("coupling.kick_sign", np.int32(-1))],
                         ids=["N-int64", "N-uint8", "kick_sign-int64", "kick_sign-int32"])
def test_numpy_integers_are_stored_as_plain_ints(path, value):
    # a numpy integer passes the integer rules and is kept as the int it equals,
    # so the config text (and hash) is that of the plain int and the run succeeds
    plain = apply_override(parse_scenario(PLAIN), path, int(value))
    doc = apply_override(parse_scenario(PLAIN), path, value)
    section, leaf = path.split(".")
    assert type(getattr(doc, section)[leaf]) is int
    assert doc.config_hash() == plain.config_hash()
    (record,) = run_scenario(doc)
    assert record.error == "" and record.config_hash == plain.config_hash()
    if path == "coupling.kick_sign":
        assert type(CouplingSpec(variant="noiseless_kick", kick_sign=value).kick_sign) is int


def strings(value):
    """Every string in ``value``, keys included."""
    if isinstance(value, dict):
        return [s for key, item in value.items() for s in strings(key) + strings(item)]
    if isinstance(value, (list, tuple)):
        return [s for item in value for s in strings(item)]
    return [value] if isinstance(value, str) else []


@pytest.mark.parametrize("base,path,value", [
    (PLAIN, "coupling.variant", "measure_sigma_zR"),
    (PARALLEL, "coupling.measure_arm", "L"),
    (PLAIN, "preselect.id", "amp_in"),
    (PLAIN, "postselect.id", "amp_f"),
    (PLAIN, "observables", ["sigma_z_R", "pi_L"]),
    (PLAIN, "sweep", {"coupling.g": {"values": [1e-3]}, "preselect.theta": {"values": [0.5]}}),
    (PLAIN, "name", "plain"),
], ids=["variant", "measure_arm", "preselect-id", "postselect-id", "observables",
        "sweep-paths", "name"])
def test_numpy_strings_are_stored_as_plain_str(base, path, value):
    # np.str_ passes every id rule as the str it equals; it is stored as that
    # str, so the config text (and hash) is that of the plain document
    def numpy(item):
        if isinstance(item, dict):
            return {np.str_(key): numpy(sub) for key, sub in item.items()}
        if isinstance(item, list):
            return [numpy(sub) for sub in item]
        return np.str_(item) if isinstance(item, str) else item

    plain = apply_override(parse_scenario(base), path, value)
    doc = apply_override(parse_scenario(base), path, numpy(value))
    assert all(type(s) is str for s in strings(dataclasses.asdict(doc)))
    assert doc.config_hash() == plain.config_hash()
    assert [r.error for r in run_scenario(doc)] == [r.error for r in run_scenario(plain)]
    assert run_scenario(doc)[0].config_hash == plain.config_hash()


@pytest.mark.parametrize("name", ["\ud800", "a\udcffb"])
def test_name_that_utf8_cannot_write_is_rejected(name):
    # the text route, where only PyYAML's parser reads a surrogate escape, is
    # pinned in tests/test_loader.py
    with pytest.raises(ParameterRangeError, match="cannot be written as UTF-8"):
        apply_override(parse_scenario(PLAIN), "name", name)
