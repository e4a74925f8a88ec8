import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from weakmeter.cli import list_bundles, load_bundle
from weakmeter.dynamics import COUPLINGS, VARIANTS
from weakmeter.errors import (
    ParameterRangeError,
    ScenarioSyntaxError,
    UnknownIdError,
    UnknownKeyError,
)
from weakmeter.optics import STATE_IDS
from weakmeter.scenario import (
    apply_override,
    parse_scenario,
    records_to_csv,
    records_to_jsonl,
    run_scenario,
    scenario_to_text,
)

MINIMAL = """
name: minimal
preselect: {id: cheshire_in}
postselect: {id: cheshire_f}
observables: [pi_L, pi_R, sigma_z_L, sigma_z_R]
"""

DISEMBODY_SWEEP = """
name: disembody-sweep
preselect: {id: disembody_in, theta: 0.5}
postselect: {id: disembody_f, alpha: 0.25}
coupling: {variant: measure_sigma_zR_noisy, g: 1.0e-3}
meter: {N: 16, delta: 2.0}
observables: [sigma_z_R]
sweep:
  preselect.theta: {start: 0.07, stop: 0.87, steps: 9}
"""

NOISY = """
name: noisy
preselect: {id: noisy_in}
postselect: {id: noisy_f, alpha: 0.25}
coupling: {variant: spin_orbit, g: 1.0e-3, gprime: 1.0e-3, t: 100.0}
meter: {N: 32, delta: 4.0}
observables: [sigma_z, effective_spin_orbit]
"""


class TestParsing:
    def test_minimal_doc_fills_defaults(self):
        doc = parse_scenario(MINIMAL)
        assert doc.meter == {"N": 64, "delta": 4.0}
        assert doc.coupling["variant"] == "noiseless_kick"
        assert doc.coupling["g"] == 1e-3
        assert doc.coupling["gprime"] == 1e-3
        assert doc.coupling["kick_time"] is None
        assert doc.observables == ("pi_L", "pi_R", "sigma_z_L", "sigma_z_R")

    def test_unknown_observable_names_field(self):
        text = MINIMAL.replace("sigma_z_R", "sigma_y_R")
        with pytest.raises(UnknownIdError, match="sigma_y_R"):
            parse_scenario(text)

    def test_repeated_observable_is_rejected(self):
        # a record holds one weak value per id, so a repeat would drop a CSV row
        with pytest.raises(ScenarioSyntaxError, match="^observable 'pi_L' is listed twice"):
            parse_scenario(MINIMAL.replace("sigma_z_R]", "pi_L]"))

    def test_unknown_state_id(self):
        with pytest.raises(UnknownIdError, match="ghost_in"):
            parse_scenario(MINIMAL.replace("cheshire_in", "ghost_in"))

    def test_unknown_top_level_key(self):
        with pytest.raises(UnknownKeyError):
            parse_scenario(MINIMAL + "\nlaser_power: 9000\n")

    def test_unknown_coupling_key(self):
        text = MINIMAL + "\ncoupling: {variant: spin_orbit, warp: 9}\n"
        with pytest.raises(UnknownKeyError, match="warp"):
            parse_scenario(text)

    def test_out_of_range_angle(self):
        text = """
name: bad
preselect: {id: amp_in, theta: 1.5}
postselect: {id: amp_f}
"""
        with pytest.raises(ParameterRangeError, match="theta"):
            parse_scenario(text)

    def test_missing_required_state_param(self):
        text = """
name: bad
preselect: {id: amp_in}
postselect: {id: amp_f}
"""
        with pytest.raises(ParameterRangeError, match="theta"):
            parse_scenario(text)

    def test_syntax_error_carries_location(self):
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario("name: [unclosed\npreselect: {id: cheshire_in}")
        assert err.value.line is not None

    def test_bad_meter_parameters(self):
        with pytest.raises(ParameterRangeError):
            parse_scenario(MINIMAL + "\nmeter: {N: 0, delta: 4.0}\n")
        with pytest.raises(ParameterRangeError):
            parse_scenario(MINIMAL + "\nmeter: {N: 8, delta: -1.0}\n")

    def test_sweep_requires_numeric_leaf(self):
        text = MINIMAL + """
sweep:
  preselect.id: {start: 0, stop: 1, steps: 2}
"""
        with pytest.raises(ParameterRangeError):
            parse_scenario(text)

    @pytest.mark.parametrize("sweep", ["{values: [0.001, .nan]}", "{values: [0.001, .inf]}",
                                       "{start: 0.001, stop: .inf, steps: 3}"],
                             ids=["nan-value", "inf-value", "inf-stop"])
    def test_non_finite_sweep_number_rejects_the_document(self, sweep):
        # unlike a finite out-of-range value, which fails only its own row
        # (test_bad_swept_value_fails_alone)
        with pytest.raises(ParameterRangeError, match="must be finite"):
            parse_scenario(NOISY + f"sweep:\n  coupling.g: {sweep}\n")

    def test_sweep_path_must_exist(self):
        text = MINIMAL + """
sweep:
  preselect.theta: {start: 0, stop: 1, steps: 2}
"""
        with pytest.raises(UnknownKeyError):
            parse_scenario(text)

    @pytest.mark.parametrize("key", ["0", "null", "1.5", "true", "2020-01-01"])
    def test_sweep_path_that_is_not_a_string(self, key):
        # found by the document fuzz: an int key ended in AttributeError
        with pytest.raises(UnknownKeyError, match="does not address a scenario field"):
            parse_scenario(MINIMAL + f"sweep:\n  {key}: {{values: [0.5]}}\n")

    def test_round_trip(self):
        doc = parse_scenario(DISEMBODY_SWEEP)
        again = parse_scenario(scenario_to_text(doc))
        assert again == doc


class TestOverrides:
    def test_set_existing_field(self):
        doc = parse_scenario(NOISY)
        doc = apply_override(doc, "coupling.g", 1e-4)
        assert doc.coupling["g"] == 1e-4

    def test_set_state_angle(self):
        doc = parse_scenario(NOISY)
        doc = apply_override(doc, "postselect.alpha", 0.3)
        assert doc.postselect["alpha"] == 0.3

    def test_unknown_path_rejected(self):
        doc = parse_scenario(NOISY)
        with pytest.raises(UnknownKeyError):
            apply_override(doc, "coupling.bogus", 1.0)
        with pytest.raises(UnknownKeyError):
            apply_override(doc, "nowhere.g", 1.0)

    def test_override_is_validated(self):
        doc = parse_scenario(NOISY)
        with pytest.raises(ParameterRangeError):
            apply_override(doc, "coupling.t", -1.0)


class TestRun:
    def test_cheshire_quartet(self):
        doc = parse_scenario(MINIMAL)
        records = run_scenario(doc)
        assert len(records) == 1
        wv = records[0].weak_values
        assert abs(wv["pi_L"] - 1) <= 1e-12
        assert abs(wv["pi_R"]) <= 1e-12
        assert abs(wv["sigma_z_L"]) <= 1e-12
        assert abs(wv["sigma_z_R"] - 1) <= 1e-12
        assert records[0].error == ""

    def test_sweep_count(self):
        records = run_scenario(parse_scenario(DISEMBODY_SWEEP))
        assert len(records) == 9
        thetas = [rec.point["preselect.theta"] for rec in records]
        np.testing.assert_allclose(thetas, np.linspace(0.07, 0.87, 9))

    def test_noisy_effective_column_and_fit(self):
        records = run_scenario(parse_scenario(NOISY))
        rec = records[0]
        alpha = 0.25 * np.pi
        formula = (0.1 + 1j) * np.tan(alpha)
        got = rec.weak_values["effective_spin_orbit"]
        assert got == pytest.approx(formula, abs=1e-12)
        # the exact pointer dynamics land on i tan(alpha)
        assert rec.fit_value == pytest.approx(1j * np.tan(alpha), abs=1e-3)

    def test_degenerate_point_isolated(self):
        text = NOISY + """
sweep:
  postselect.alpha: {values: [0.25, 0.5, 0.3333333333333333]}
"""
        records = run_scenario(parse_scenario(text))
        assert len(records) == 3
        assert records[0].error == ""
        assert "Degenerate" in records[1].error
        assert records[1].weak_values == {}
        assert records[2].error == ""

    def test_determinism(self):
        doc = parse_scenario(DISEMBODY_SWEEP)
        first = records_to_csv(run_scenario(doc), sweep_paths=list(doc.sweep))
        second = records_to_csv(run_scenario(doc), sweep_paths=list(doc.sweep))
        assert first == second
        assert records_to_jsonl(run_scenario(doc)) == records_to_jsonl(run_scenario(doc))

    def test_config_hash_stable(self):
        doc = parse_scenario(MINIMAL)
        records = run_scenario(doc)
        assert records[0].config_hash == doc.config_hash()
        assert len(records[0].config_hash) == 64

    def test_record_moments_close_the_loop_with_the_fit(self):
        # mean_p ~ g Re(A_fit) and mean_q ~ -2 g delta^2 Im(A_fit):
        # three modules agree through the public record
        from weakmeter.meter import continuous_reference

        rec = run_scenario(parse_scenario(NOISY))[0]
        ref = continuous_reference(4.0, 1e-3, rec.fit_value)
        assert rec.mean_p == pytest.approx(ref.mean_p, rel=1e-3)
        assert rec.mean_q == pytest.approx(ref.mean_q, rel=2e-2, abs=1e-6)
        assert rec.var_q == pytest.approx(ref.var_q, rel=1e-3)
        assert rec.var_p == pytest.approx(ref.var_p, rel=1e-3)

    def test_wide_meter_point_memory_is_linear(self):
        doc = apply_override(parse_scenario(NOISY), "meter.N", 4096)
        tracemalloc.start()
        try:
            records = run_scenario(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records[0].error == ""
        # a dense (2N+1)^2 readout kernel alone would take 8193^2 * 16 B = 1 GiB
        assert peak < 100 * 2**20


class TestSerialization:
    def test_csv_layout(self):
        doc = parse_scenario(DISEMBODY_SWEEP)
        text = records_to_csv(run_scenario(doc), sweep_paths=list(doc.sweep))
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header == ["scenario", "preselect.theta", "observable", "wv_re", "wv_im",
                          "mean_q", "mean_p", "success_prob", "fit_re", "fit_im",
                          "residual", "error"]
        assert len(lines) == 1 + 9  # one observable per record
        assert text.endswith("\n")
        assert "\r" not in text

    @pytest.mark.parametrize("name", ["a,b", 'say "hi"', "two\nlines", "cr\rreturn",
                                      'all,"of\r\nthem"'])
    def test_scenario_name_is_one_csv_field(self, name):
        import csv
        import dataclasses
        import io

        doc = dataclasses.replace(parse_scenario(DISEMBODY_SWEEP), name=name)
        text = records_to_csv(run_scenario(doc), sweep_paths=list(doc.sweep))
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert len(rows) == 1 + 9
        assert all(len(row) == 12 for row in rows)
        assert [row[0] for row in rows[1:]] == [name] * 9

    def test_plain_scenario_name_is_not_quoted(self):
        text = records_to_csv(run_scenario(parse_scenario(MINIMAL)))
        assert all(line.startswith("minimal,") for line in text.splitlines()[1:])

    def test_seventeen_significant_digits(self):
        doc = parse_scenario(MINIMAL)
        text = records_to_csv(run_scenario(doc))
        row = text.strip().split("\n")[1].split(",")
        mean_p = row[5]
        assert float(mean_p) == pytest.approx(1e-3, rel=1e-3)
        assert len(mean_p.split(".")[-1].rstrip("0")) >= 10  # full precision kept

    def test_jsonl_is_parseable(self):
        import json

        doc = parse_scenario(MINIMAL)
        text = records_to_jsonl(run_scenario(doc))
        obj = json.loads(text.strip())
        assert obj["scenario"] == "minimal"
        assert obj["weak_values"]["sigma_z_R"]["re"] == pytest.approx(1.0)
        assert obj["config_hash"] == doc.config_hash()

    def test_jsonl_keys_are_the_record_fields(self):
        import dataclasses
        import json

        from weakmeter.scenario import ResultRecord

        fields = {field.name for field in dataclasses.fields(ResultRecord)}
        text = DISEMBODY_SWEEP.replace("preselect.theta: {start: 0.07, stop: 0.87, steps: 9}",
                                       "coupling.g: {values: [1.0e-3, 10.0]}")
        read, failed = run_scenario(parse_scenario(text))
        assert read.fit_value is not None and not read.error
        assert failed.error and failed.fit_value is None
        for line in records_to_jsonl([read, failed]).splitlines():
            assert set(json.loads(line)) == fields

    def test_csv_error_row_is_quoted_and_parseable(self):
        import csv
        import io

        text = NOISY + """
sweep:
  postselect.alpha: {values: [0.5]}
"""
        doc = parse_scenario(text)
        out = records_to_csv(run_scenario(doc), sweep_paths=list(doc.sweep))
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        error_field = rows[1][-1]
        assert "Degenerate" in error_field
        assert rows[1][2] == ""  # no observable column content on a failed row


PARALLEL_MULTI = """
name: parallel-multi
preselect: {id: disembody_in, theta: 0.3}
postselect: {id: disembody_f, alpha: 0.2}
coupling: {variant: parallel_1, g: 1.0e-3, gprime: 1.0e-3, t: 100.0, measure_arm: R}
meter: {N: 8, delta: 1.0}
observables: [sigma_z_R, Lx_sigma_z_L, effective_parallel_lx]
sweep:
  meter.N: {values: [8, 10]}
  meter.delta: {values: [1.0, 1.5]}
  coupling.g: {values: [0.001, 0.002]}
  coupling.gprime: {values: [0.001, 0.0015]}
  preselect.theta: {values: [0.3, 0.4]}
"""

ANGLE_GRID = DISEMBODY_SWEEP.replace(
    "  preselect.theta: {start: 0.07, stop: 0.87, steps: 9}",
    "  preselect.theta: {values: [0.2, 0.4, 0.6]}\n"
    "  postselect.alpha: {values: [0.1, 0.2, 0.3]}",
)


def count_kick_factors(monkeypatch):
    import weakmeter.scenario as scenario

    calls = []
    original = scenario.kick_factors

    def counted(spec, system):
        calls.append(spec)
        return original(spec, system)

    monkeypatch.setattr(scenario, "kick_factors", counted)
    return calls


class TestReuse:
    @pytest.mark.parametrize("label", ["PARALLEL_MULTI"] + [f"bundle:{n}" for n in list_bundles()])
    def test_multi_path_sweep_matches_single_point_runs(self, label):
        # every point must equal a fresh single-point run of its overrides,
        # so a reuse key that misses a field shows up as a differing record,
        # and a point's bits cannot depend on the other points of its key
        import dataclasses

        bundle = label.startswith("bundle:")
        doc = parse_scenario(load_bundle(label[7:]) if bundle else PARALLEL_MULTI)
        records = run_scenario(doc)
        assert bundle or len(records) == 32
        base = dataclasses.replace(doc, sweep={})
        for rec in records:
            single = base
            for path, value in rec.point.items():
                single = apply_override(single, path, value)
            (alone,) = run_scenario(single)
            alone = dataclasses.replace(alone, point=rec.point, config_hash=rec.config_hash)
            assert records_to_jsonl([rec]) == records_to_jsonl([alone]), rec.point

    @pytest.mark.parametrize("variant, arm", list(COUPLINGS))
    def test_lifted_catalog_cache_does_not_grow_with_parameters(self, variant, arm):
        # the cache key is (observable id, system): sweeping every
        # coupling number (so g't too) and the grid size reuses the first
        # point's entries, for coupling terms and observables alike
        from weakmeter.weakvalue import _lifted

        arm_field = "" if arm is None else f", measure_arm: {arm}"
        text = f"""
name: lifted-cache
preselect: {{id: disembody_in, theta: 0.5}}
postselect: {{id: disembody_f, alpha: 0.25}}
coupling: {{variant: {variant}, g: 1.0e-3, gprime: 1.0e-3, t: 1.0, kick_time: 0.0{arm_field}}}
meter: {{N: 8, delta: 1.5}}
observables: [sigma_z_R, effective_spin_orbit, effective_parallel_lz, effective_three_body]
"""
        (first,) = run_scenario(parse_scenario(text))
        assert first.fit_value is not None and len(first.weak_values) == 4
        entries = _lifted.cache_info().currsize
        assert entries > 0
        records = run_scenario(parse_scenario(text + """
sweep:
  coupling.g: {values: [1.0e-3, 2.0e-3]}
  coupling.gprime: {values: [1.0e-3, 3.0e-3]}
  coupling.t: {values: [1.0, 2.0]}
  coupling.kick_time: {values: [0.0, 0.5]}
  coupling.kick_sign: {values: [1, -1]}
  meter.N: {values: [8, 12]}
"""))
        assert len(records) == 64
        assert all(rec.fit_value is not None for rec in records)  # every point built a kick
        assert _lifted.cache_info().currsize == entries

    def test_angle_grid_builds_kick_factors_once(self, monkeypatch):
        calls = count_kick_factors(monkeypatch)
        records = run_scenario(parse_scenario(ANGLE_GRID))
        assert len(records) == 9
        assert all(rec.error == "" for rec in records)
        assert len(calls) == 1

    def test_only_the_current_kick_key_is_kept(self, monkeypatch):
        # points are grouped by key, so each key builds its factors once in
        # either sweep order, and a key's factors are released before the
        # next key builds: at most one key's factors are alive at a time
        import weakmeter.scenario as scenario

        built = []
        original = scenario.kick_factors

        def tracked(spec, system):
            assert all(alive() is None for _, alive in built)
            factors = original(spec, system)
            built.append((spec.g, weakref.ref(factors)))
            return factors

        monkeypatch.setattr(scenario, "kick_factors", tracked)
        text = NOISY + """
sweep:
  postselect.alpha: {values: [0.2, 0.25]}
  coupling.g: {values: [0.001, 0.002]}
"""
        records = run_scenario(parse_scenario(text))
        assert [rec.point["coupling.g"] for rec in records] == [0.001, 0.002] * 2
        assert [g for g, _ in built] == [0.001, 0.002]
        built.clear()
        text = NOISY + """
sweep:
  coupling.g: {values: [0.001, 0.002]}
  postselect.alpha: {values: [0.2, 0.25]}
"""
        run_scenario(parse_scenario(text))
        assert [g for g, _ in built] == [0.001, 0.002]

    def test_angle_grid_reads_transfer_amplitudes_only(self, monkeypatch):
        # a 10 x 10 theta x alpha grid: one kick_factors build and none of
        # the per-point chain
        import weakmeter.dynamics as dynamics
        import weakmeter.meter as meter
        import weakmeter.scenario as scenario
        import weakmeter.weakvalue as weakvalue

        kicks = count_kick_factors(monkeypatch)
        chain = []
        for name in ("evolve_exact", "post_select_meter", "fit_effective_weak_value",
                     "meter_readout", "weak_value"):
            for module in (dynamics, meter, weakvalue, scenario):  # every binding of the name
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        lambda *a, _name=name, **k: chain.append(_name))
        thetas = [round(0.08 * k, 2) for k in range(1, 11)]
        alphas = [round(0.04 * k, 2) for k in range(1, 11)]
        text = ANGLE_GRID.replace("[0.2, 0.4, 0.6]", repr(thetas))
        text = text.replace("[0.1, 0.2, 0.3]", repr(alphas))
        records = run_scenario(parse_scenario(text))
        assert len(records) == 100
        assert all(rec.error == "" for rec in records)
        assert len(kicks) == 1
        assert chain == []

    def test_sections_and_states_are_built_once_per_distinct_value(self, monkeypatch):
        # a repeated theta, and alpha -0.0 beside 0.0: each section is validated
        # and each state built once per bit pattern, in first-seen order, and
        # each point still reads as it would alone
        import dataclasses

        import weakmeter.scenario as scenario

        text = ANGLE_GRID.replace("[0.2, 0.4, 0.6]", "[0.2, 0.4, 0.2]")
        doc = parse_scenario(text.replace("[0.1, 0.2, 0.3]", "[0.1, 0.0, -0.0, 0.1]"))
        validated, built = [], []
        rules, named_state = dict(scenario._SECTION_RULES), scenario.named_state
        for section in ("preselect", "postselect", "coupling"):
            monkeypatch.setitem(scenario._SECTION_RULES, section, lambda fields, _s=section: (
                validated.append((_s, repr(fields.get("theta", fields.get("alpha")))))
                or rules[_s](fields)))
        monkeypatch.setattr(scenario, "named_state", lambda name, **kw: (
            built.append((name, repr(kw.get("theta", kw.get("alpha"))))) or named_state(name, **kw)))
        records = run_scenario(doc)
        monkeypatch.undo()
        assert validated == [("preselect", "0.2"), ("postselect", "0.1"), ("postselect", "0.0"),
                             ("postselect", "-0.0"), ("preselect", "0.4")]
        assert built == [("disembody_in", repr(0.2 * np.pi)), ("disembody_f", repr(0.1 * np.pi)),
                         ("disembody_f", "0.0"), ("disembody_f", "-0.0"),
                         ("disembody_in", repr(0.4 * np.pi))]
        base = dataclasses.replace(doc, sweep={})
        for rec in records:
            alone = base
            for path, value in rec.point.items():
                alone = apply_override(alone, path, value)
            (alone,) = run_scenario(alone)
            alone = dataclasses.replace(alone, point=rec.point, config_hash=rec.config_hash)
            assert records_to_jsonl([rec]) == records_to_jsonl([alone]), rec.point

    def test_states_and_meters_are_shared_across_groups(self, monkeypatch):
        # theta x g x N makes four (coupling, meter) groups over two thetas: the
        # states' spaces are the document's, so three states are built, not a
        # pair per group, and each distinct N builds its meter once
        import weakmeter.scenario as scenario

        states, meters = [], []
        named_state, make_meter = scenario.named_state, scenario.make_meter
        monkeypatch.setattr(scenario, "named_state", lambda name, **kw: (
            states.append(name) or named_state(name, **kw)))
        monkeypatch.setattr(scenario, "make_meter", lambda n, delta: (
            meters.append(n) or make_meter(n, delta)))
        kicks = count_kick_factors(monkeypatch)
        text = DISEMBODY_SWEEP.replace(
            "  preselect.theta: {start: 0.07, stop: 0.87, steps: 9}",
            "  preselect.theta: {values: [0.3, 0.5]}\n"
            "  coupling.g: {values: [0.001, 0.002]}\n"
            "  meter.N: {values: [16, 20]}")
        records = run_scenario(parse_scenario(text))
        assert len(records) == 8 and all(rec.error == "" for rec in records)
        assert states == ["disembody_in", "disembody_f", "disembody_in"]
        assert meters == [16, 20]
        assert [spec.g for spec in kicks] == [0.001, 0.001, 0.002, 0.002]

    @pytest.mark.parametrize("observables", ["[sigma_z_R]", "[]"],
                             ids=["with-observables", "meter-only"])
    def test_all_degenerate_points_build_no_meter(self, monkeypatch, observables):
        # the meter is built only for a group with a point left to read, so a
        # meter that would warn of truncation stays silent when every point fails
        import warnings

        import weakmeter.scenario as scenario

        with pytest.warns(UserWarning, match="truncation"):
            scenario.make_meter(8, 4.0)
        meters = []
        monkeypatch.setattr(scenario, "make_meter", lambda *args: meters.append(args))
        text = DISEMBODY_SWEEP.replace("alpha: 0.25", "alpha: 0.5")
        text = text.replace("meter: {N: 16, delta: 2.0}", "meter: {N: 8, delta: 4.0}")
        text = text.replace("[sigma_z_R]", observables)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = run_scenario(parse_scenario(text))
        assert len(records) == 9
        assert all(rec.error.startswith("DegeneratePostselectionError: ") for rec in records)
        assert meters == []

    def test_point_values_are_validated_together(self):
        # a point's kick_time is checked against its own t, not the base t
        text = NOISY.replace("t: 100.0}", "t: 100.0, kick_time: 100.0}") + """
sweep:
  coupling.kick_time: {values: [50.0, 150.0]}
  coupling.t: {values: [100.0, 200.0]}
"""
        records = run_scenario(parse_scenario(text))
        assert [rec.error for rec in records] == [
            "", "", "ParameterRangeError: coupling.kick_time = 150.0 outside [0, t=100.0]", ""]

    def test_large_angle_grid_memory_is_bounded(self):
        text = ANGLE_GRID.replace("meter: {N: 16, delta: 2.0}", "meter: {N: 2048, delta: 4.0}")
        text = text.replace("[0.2, 0.4, 0.6]", repr([round(0.04 * k, 2) for k in range(1, 21)]))
        text = text.replace("[0.1, 0.2, 0.3]", repr([round(0.02 * k, 2) for k in range(1, 21)]))
        doc = parse_scenario(text)
        tracemalloc.start()
        try:
            records = run_scenario(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 400 and all(rec.error == "" for rec in records)
        # the full F[post, pre, k] alone would take 20 * 20 * 4097 * 16 B = 25 MiB
        assert peak < 64 * 2**20

    def test_bad_swept_value_fails_alone(self):
        text = """
name: bad-theta
preselect: {id: amp_in, theta: 0.5}
postselect: {id: amp_f}
coupling: {variant: measure_sigma_zR, g: 1.0e-3}
meter: {N: 16, delta: 2.0}
observables: [sigma_z_R]
sweep:
  preselect.theta: {values: [0.3, 1.5, 0.5]}
"""
        records = run_scenario(parse_scenario(text))
        assert len(records) == 3
        assert records[0].error == "" and records[2].error == ""
        assert records[1].error.startswith("ParameterRangeError: preselect.theta = 1.5")
        assert records[1].weak_values == {} and records[1].fit_value is None
        assert records[2].weak_values["sigma_z_R"] == pytest.approx(1.0, abs=1e-12)

    def test_meter_n_sweep_takes_integers(self):
        text = DISEMBODY_SWEEP.replace(
            "  preselect.theta: {start: 0.07, stop: 0.87, steps: 9}",
            "  meter.N: {start: 16, stop: 24, steps: 3}",
        )
        records = run_scenario(parse_scenario(text))
        points = [rec.point["meter.N"] for rec in records]
        assert points == [16, 20, 24]
        assert all(type(n) is int for n in points)
        assert all(rec.error == "" for rec in records)

    def test_non_integral_meter_n_fails_alone(self):
        text = DISEMBODY_SWEEP.replace(
            "  preselect.theta: {start: 0.07, stop: 0.87, steps: 9}",
            "  meter.N: {values: [16, 17.5, 18]}",
        )
        records = run_scenario(parse_scenario(text))
        assert [rec.point["meter.N"] for rec in records] == [16, 17.5, 18]
        assert records[0].error == "" and records[2].error == ""
        assert records[1].error.startswith("ParameterRangeError: meter.N must be a positive integer")

    def test_unsizable_meter_n_fails_alone(self):
        # 2N+1 = 2e30 + 1 points exceed numpy's largest array, so nothing is allocated
        text = DISEMBODY_SWEEP.replace(
            "  preselect.theta: {start: 0.07, stop: 0.87, steps: 9}",
            "  meter.N: {values: [16, 1.0e+30, 18]}",
        )
        records = run_scenario(parse_scenario(text))
        assert records[0].error == "" and records[2].error == ""
        assert records[1].error == (f"ParameterRangeError: meter.N = {int(1e30)}: "
                                    "numpy cannot allocate its 2N+1 point grid")
        # the weak values come before any meter work, so the failed row keeps them
        assert records[1].weak_values == records[0].weak_values
        assert records[1].fit_value is None

    def test_unallocatable_meter_n_fails_alone(self, monkeypatch):
        import weakmeter.meter as meter

        q_grid = meter.q_grid

        def refuse_large(half_width):
            if half_width > 1000:
                raise MemoryError(f"Unable to allocate {2 * half_width + 1} points")
            return q_grid(half_width)

        monkeypatch.setattr(meter, "q_grid", refuse_large)
        text = DISEMBODY_SWEEP.replace(
            "  preselect.theta: {start: 0.07, stop: 0.87, steps: 9}",
            "  meter.N: {values: [16, 5000, 18]}",
        )
        records = run_scenario(parse_scenario(text))
        assert records[0].error == "" and records[2].error == ""
        assert records[1].error == ("ParameterRangeError: meter.N = 5000: "
                                    "numpy cannot allocate its 2N+1 point grid")

    def test_integer_meter_n_past_float_precision_keeps_its_digits(self, monkeypatch):
        # 2**53 + 1 has no float: the swept int reaches the meter, the
        # canonical text, the error row and the CSV point column as written
        import weakmeter.meter as meter

        n = 2**53 + 1
        q_grid, asked = meter.q_grid, []

        def refuse_large(half_width):
            if half_width <= 1000:
                return q_grid(half_width)
            asked.append(half_width)
            raise MemoryError(f"Unable to allocate {2 * half_width + 1} points")

        text = DISEMBODY_SWEEP.replace(
            "  preselect.theta: {start: 0.07, stop: 0.87, steps: 9}",
            f"  meter.N: {{values: [16, {n}]}}",
        )
        doc = parse_scenario(text)
        assert doc.sweep == {"meter.N": {"values": [16, n]}}
        assert f"    - 16\n    - {n}\n" in scenario_to_text(doc)
        monkeypatch.setattr(meter, "q_grid", refuse_large)
        records = run_scenario(doc)
        assert asked == [n]
        assert [rec.point["meter.N"] for rec in records] == [16, n]
        assert records[0].error == ""
        assert records[1].error == (f"ParameterRangeError: meter.N = {n}: "
                                    "numpy cannot allocate its 2N+1 point grid")
        rows = records_to_csv(records, sweep_paths=["meter.N"]).splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["16", str(n)]

    def test_integer_meter_n_past_the_float_range_fails_alone(self):
        # a listed int beyond the float range is no non-finite number: it
        # fails its own point at the meter, as the same value set alone does
        import dataclasses

        n = 10**400
        text = DISEMBODY_SWEEP.replace(
            "  preselect.theta: {start: 0.07, stop: 0.87, steps: 9}",
            f"  meter.N: {{values: [16, {n}]}}",
        )
        doc = parse_scenario(text)
        assert doc.sweep == {"meter.N": {"values": [16, n]}}
        records = run_scenario(doc)
        assert records[0].error == ""
        assert records[1].error == (f"ParameterRangeError: meter.N = {n}: "
                                    "numpy cannot allocate its 2N+1 point grid")
        (alone,) = run_scenario(apply_override(dataclasses.replace(doc, sweep={}), "meter.N", n))
        assert alone.error == records[1].error


ARM_SWEEP = """
name: arm
preselect: {id: disembody_in, theta: 0.5}
postselect: {id: disembody_f, alpha: 0.25}
coupling: {variant: measure_sigma_zR_noisy, g: 1.0e-3}
meter: {N: 16, delta: 2.0}
observables: [sigma_z_R, sigma_z_L]
sweep:
  coupling.g: {values: [0.0, 1.0e+308, 0.001, 0.5]}
  preselect.theta: {values: [0.2, 0.4]}
"""

MISMATCHED = """
name: mismatched
preselect: {id: cheshire_in}
postselect: {id: noisy_f, alpha: 0.25}
"""

CHESHIRE_WITH = """
name: cheshire-with
preselect: {id: cheshire_in}
postselect: {id: cheshire_f}
observables: OBSERVABLES
"""


class TestErrorRows:
    # each row's error text is the one the single-point chain
    # (weak_value, kick_factors, post_select_meter, fit) gives for that point

    def test_coupling_rows_in_order(self):
        records = run_scenario(parse_scenario(ARM_SWEEP))
        overflow = ("NumericalOverflowError: kick phase per grid step 1e+308 plus the p-width "
                    "1/(2 delta) = 0.25 is not below pi, the grid's zone limit "
                    "(coupling.g = 1e+308)")
        assert [rec.error for rec in records] == [
            "IllConditionedFitError: fit requires a positive coupling, got g=0.0"] * 2 + [
            overflow] * 2 + ["", "",
            "fit-residual: 9.441e-02 exceeds 1e-02", "fit-residual: 2.107e-01 exceeds 1e-02"]
        # the weak values are computed before any meter work, so failed rows keep them
        assert all(set(rec.weak_values) == {"sigma_z_R", "sigma_z_L"} for rec in records)
        assert all(rec.fit_value is None for rec in records[:4])

    @pytest.mark.parametrize("observables", ["[sigma_z, effective_spin_orbit]", "[]"],
                             ids=["with-observables", "meter-only"])
    def test_degenerate_row_matches_weak_value(self, observables):
        # a point's verdict does not depend on whether observables are listed
        from weakmeter.errors import DegeneratePostselectionError
        from weakmeter.optics import named_state
        from weakmeter.weakvalue import observable, weak_value

        text = NOISY.replace("[sigma_z, effective_spin_orbit]", observables) + """
sweep:
  postselect.alpha: {values: [0.25, 0.5]}
"""
        records = run_scenario(parse_scenario(text))
        pre = named_state("noisy_in")
        post = named_state("noisy_f", alpha=0.5 * np.pi)
        with pytest.raises(DegeneratePostselectionError) as single:
            weak_value(pre, post, observable("sigma_z"))
        assert records[1].error == f"DegeneratePostselectionError: {single.value}"
        assert records[1].weak_values == {} and records[1].mean_q is None
        assert records[1].fit_value is None
        assert records[0].error == ""

    def test_single_grid_point_row(self):
        # a meter this narrow has a p-width 1/(2 delta) = 10 past pi, so the
        # zone check fails the row before its fit could (which would find all
        # weight at one grid point)
        text = NOISY.replace("meter: {N: 32, delta: 4.0}", "meter: {N: 1, delta: 0.05}")
        (rec,) = run_scenario(parse_scenario(text))
        assert rec.error == ("NumericalOverflowError: kick phase per grid step 0.001 plus the "
                             "p-width 1/(2 delta) = 10 is not below pi, the grid's zone limit "
                             "(coupling.g = 0.001)")

    @pytest.mark.parametrize("observables, error", [
        ("[pi_L]", "SignatureError: inner product between different signatures: "
                   "orbital:2 * polarization:2 vs path:2 * polarization:2"),
        ("[]", "SignatureError: post-selection on orbital:2 * polarization:2 does not match "
               "system factors path:2 * polarization:2"),
    ], ids=["with-observables", "meter-only"])
    def test_states_on_different_spaces(self, observables, error):
        (rec,) = run_scenario(parse_scenario(MISMATCHED + f"observables: {observables}\n"))
        assert rec.error == error and rec.weak_values == {}

    @pytest.mark.parametrize("observables, kept", [
        ("[pi_L, L_x, sigma_z_R]", {"pi_L"}), ("[L_x, pi_L]", set()),
    ], ids=["second", "first"])
    def test_observable_off_the_states_space(self, observables, kept):
        (rec,) = run_scenario(parse_scenario(CHESHIRE_WITH.replace("OBSERVABLES", observables)))
        assert rec.error == ("SignatureError: factor 'orbital' of operator absent from "
                             "target ('path', 'polarization')")
        assert set(rec.weak_values) == kept


class TestYamlFloats:
    def test_exponent_floats_parse_as_numbers(self):
        text = NOISY.replace("g: 1.0e-3, gprime: 1.0e-3, t: 100.0", "g: 2e-3, gprime: 1E-3, t: 1e2")
        doc = parse_scenario(text)
        assert (doc.coupling["g"], doc.coupling["gprime"], doc.coupling["t"]) == (0.002, 0.001, 100.0)

    def test_plain_safe_load_is_untouched(self):
        import yaml

        assert yaml.safe_load("2e-3") == "2e-3"


class TestReadmeLists:
    """README's scenario-file lists read from the one declaration of each catalog."""

    README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

    def listed(self, lead: str) -> list[str]:
        match = re.search(rf"^{lead}: (.*?)\.(?=\s)", self.README, re.MULTILINE | re.DOTALL)
        assert match, f"README has no {lead!r} list"
        return re.findall(r"`([^`]+)`", match.group(1))

    def test_state_ids(self):
        declared = [name + (f"({', '.join(angles)})" if angles else "")
                    for name, angles in STATE_IDS.items()]
        assert self.listed("State ids") == declared

    def test_coupling_variants(self):
        assert self.listed("Coupling variants") == list(VARIANTS)


class TestCanonicalText:
    """The config hash is published output: sha256 of PyYAML's safe_dump text of the document."""

    # sha256 of scenario_to_text as safe_dump wrote it; a change here changes published hashes
    BUNDLE_HASHES = {
        "amplification": "e6565998dffb59cea1c00084e929fadb36f3fda8a9043071fbcbebd2fcc67516",
        "cheshire": "fa1841688abb27ce4ab4772fefedb066c22bc94db2fbec96aa50c7fd2c33a534",
        "disembodiment": "85830322b8afc79b71bc719445a8b14adea2791925c295bcdebe49aac12b14f6",
        "disembodiment_noise": "fce190c68685594af512b2c28b5648d12a0856ef9f908f838a9ee3a60891c0ac",
        "noisy_spin_orbit": "5b7535fa7f1c73f9c9824f4f715d37a332401eaad892cbd3fe3598d25d4a7bf3",
        "parallel_noise_1": "b60f2128abc0557456166d85cc18dc97fac71c89a4b29bc8fb55963aa4b10f60",
        "parallel_noise_2": "0bc2720ad2f2c5e0cbd3daa5ef610eb5769c963eb56af4749b53dbffaba25368",
        "three_body": "64658c1ccb2c442b43c17a9906b18ffce29cc4e7a408b6ed2926421f81cd8d40",
    }
    DOC_HASHES = {
        "start-stop-steps": (DISEMBODY_SWEEP,
                             "28c5b96c1f71f7f69ddc55006d4bc3c5cd884e8675a55e57fe7aeda5f9632d44"),
        "values": (ANGLE_GRID, "533b0d85d7d468dfa8ba58dc9da051c3b5ebc50a5ccf8ea3d13bc0c4b2292950"),
        # its meter.N values stay ints and are written "- 8", "- 10"
        "five-paths": (PARALLEL_MULTI,
                       "00f84d42fc0781e903cd7fa07a932cf0a92f0b717221c140395fd9948cac7b3f"),
    }

    def test_bundle_hashes_are_pinned(self):
        assert list_bundles() == sorted(self.BUNDLE_HASHES)
        for name, want in self.BUNDLE_HASHES.items():
            assert parse_scenario(load_bundle(name)).config_hash() == want, name

    @pytest.mark.parametrize("label", list(DOC_HASHES))
    def test_sweep_doc_hashes_are_pinned(self, label):
        text, want = self.DOC_HASHES[label]
        doc = parse_scenario(text)
        assert doc.sweep
        assert doc.config_hash() == want
        assert run_scenario(doc)[0].config_hash == want

    def test_text_is_safe_dump(self):
        import yaml

        for text, _ in self.DOC_HASHES.values():
            doc = parse_scenario(text)
            assert scenario_to_text(doc) == yaml.safe_dump(doc.to_dict(), sort_keys=True,
                                                           default_flow_style=False)
            assert parse_scenario(scenario_to_text(doc)) == doc

    @staticmethod
    def verbatim_tokens() -> set:
        """Every id, variant, arm, key and sweepable path the text can hold besides the name."""
        from weakmeter import scenario
        from weakmeter.weakvalue import observable_ids

        angles = {angle for names in STATE_IDS.values() for angle in names}
        fields = {"preselect": angles | {"id"}, "postselect": angles | {"id"},
                  "coupling": set(scenario.DEFAULTS["coupling"]),
                  "meter": set(scenario.DEFAULTS["meter"])}
        paths = {f"{section}.{leaf}" for section, leaves in fields.items() for leaf in leaves}
        arms = {arm for _, arm in COUPLINGS if arm is not None}
        keys = set(fields) | set().union(*fields.values()) | {
            "name", "observables", "sweep", "values", "start", "stop", "steps"}
        return (set(STATE_IDS) | set(VARIANTS) | set(observable_ids()) | arms | paths | keys)

    def test_every_verbatim_token_is_a_plain_scalar(self):
        # a future id that YAML would quote fails here instead of changing hashes
        import yaml

        from weakmeter.scenario import _VERBATIM

        tokens = self.verbatim_tokens()
        assert _VERBATIM <= tokens  # the writer's own list holds nothing unchecked
        assert {"amp_in", "noiseless_kick", "effective_three_body", "R", "theta",
                "coupling.kick_sign", "meter.N"} <= tokens
        for token in sorted(tokens):
            assert yaml.safe_dump({token: token}) == f"{token}: {token}\n", token
            assert yaml.safe_dump({token: [token]}, default_flow_style=False) == (
                f"{token}:\n- {token}\n"), token
