import csv
import io

import numpy as np
import pytest

from weakmeter.cli import (
    EXIT_COMPUTE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VERIFY,
    list_bundles,
    load_bundle,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_all_bundles(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == EXIT_OK
        names = out.split()
        for expected in ("cheshire", "amplification", "noisy_spin_orbit", "three_body",
                         "disembodiment", "disembodiment_noise",
                         "parallel_noise_1", "parallel_noise_2"):
            assert expected in names


class TestRun:
    def test_warning_is_one_line(self, capsys):
        # the truncation guard's warning, without the source line that raised it
        code, out, err = run_cli(capsys, "run", "bundle:cheshire", "--set", "meter.N=8")
        assert code == EXIT_OK
        assert err == ("warning: meter width 4.0 exceeds half_width/5 = 1.6; "
                       "truncation error exceeds tolerance\n")
        assert out.startswith("scenario,observable,") and out.count("\n") == 5

    def test_cheshire_bundle_quartet_row(self, capsys):
        code, out, _ = run_cli(capsys, "run", "bundle:cheshire")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        table = {line.split(",")[1]: float(line.split(",")[2]) for line in lines[1:]}
        assert table == pytest.approx(
            {"pi_L": 1.0, "pi_R": 0.0, "sigma_z_L": 0.0, "sigma_z_R": 1.0}, abs=1e-12)

    def test_disembodiment_override_gives_unit_signal(self, capsys):
        code, out, _ = run_cli(capsys, "run", "bundle:disembodiment",
                               "--set", "theta=0.5", "--set", "alpha=0.25")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        signal = next(float(r[2]) for r in rows if r[1] == "sigma_z_R")
        assert signal == pytest.approx(np.tan(np.pi / 4) ** 2, abs=1e-12)

    def test_malformed_file_gives_parse_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: [unclosed\n")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == EXIT_PARSE
        assert "line" in err

    def test_repeated_observable_gives_parse_exit(self, capsys):
        code, out, err = run_cli(capsys, "run", "bundle:cheshire",
                                 "--set", "observables=[pi_L,pi_R,pi_L]")
        assert code == EXIT_PARSE and out == ""
        assert err == "error: observable 'pi_L' is listed twice in observables\n"

    def test_missing_file_gives_parse_exit(self, capsys):
        code, _, err = run_cli(capsys, "run", "/no/such/file.yaml")
        assert code == EXIT_PARSE
        assert "cannot read" in err

    def test_unknown_override_path(self, capsys):
        code, _, err = run_cli(capsys, "run", "bundle:cheshire", "--set", "coupling.zap=1")
        assert code == EXIT_PARSE
        assert "zap" in err

    @pytest.mark.parametrize("argv", [
        ("run", "bundle:disembodiment", "--set", "coupling.g=.nan"),
        ("run", "bundle:disembodiment", "--set", "coupling.t=.inf"),
        ("run", "bundle:disembodiment", "--set", "coupling.gprime=-.inf"),
        ("run", "bundle:disembodiment", "--set", "coupling.g=1" + "0" * 400),
        ("sweep", "bundle:disembodiment", "--param", "preselect.theta",
         "--start", "nan", "--stop", "0.5", "--steps", "2"),
    ], ids=["g-nan", "t-inf", "gprime-minus-inf", "g-int-overflow", "sweep-start-nan"])
    def test_non_finite_number_gives_parse_exit(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error: ") and "must be finite" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("bundle,sets,cause", [
        ("disembodiment", ["coupling.g=0"],
         "IllConditionedFitError: fit requires a positive coupling"),
        ("disembodiment", ["coupling.g=1e308"],
         "NumericalOverflowError: kick phase per grid step 1e+308 plus the p-width "
         "1/(2 delta) = 0.125 is not below pi, the grid's zone limit (coupling.g = 1e+308)"),
        # gprime * t = 1e307 is finite, and far past the grid's zone limit
        ("disembodiment_noise", ["coupling.gprime=1e306", "coupling.t=10"],
         "NumericalOverflowError: kick phase per grid step 1e+307 plus the p-width "
         "1/(2 delta) = 0.125 is not below pi, the grid's zone limit "
         "(coupling.gprime * coupling.t = 1e+307)"),
        ("disembodiment_noise", ["coupling.variant=measure_LxSx_R", "coupling.gprime=1e306",
                                 "coupling.t=10"],
         "NumericalOverflowError: kick phase per grid step 1e+307 plus the p-width "
         "1/(2 delta) = 0.125 is not below pi, the grid's zone limit "
         "(coupling.gprime * coupling.t = 1e+307)"),
    ], ids=["g-zero", "g-overflow", "gprime-t-overflow-L", "gprime-t-overflow-R"])
    def test_unusable_coupling_fails_its_row(self, capsys, bundle, sets, cause):
        # no row has a pointer reading, so the run exits 4
        code, out, err = run_cli(capsys, "run", f"bundle:{bundle}",
                                 *(arg for value in sets for arg in ("--set", value)))
        assert code == EXIT_COMPUTE
        assert err == "all sweep points failed; see the error column\n"
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 4
        assert all(row[-1].startswith(cause) for row in rows)

    def test_overflowing_noise_product_gives_parse_exit(self, capsys):
        code, out, err = run_cli(capsys, "run", "bundle:noisy_spin_orbit",
                                 "--set", "coupling.gprime=1e308")
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error: ") and "gprime * coupling.t must be finite" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("run", "bundle:noisy_spin_orbit", "--set", "coupling.measure_arm=R"),
        ("run", "bundle:disembodiment", "--set", "meter.delta=1e-200"),
        ("run", "bundle:disembodiment", "--set", "meter.delta=1e300"),
        ("run", "bundle:cheshire", "--set", "preselect.id=[1]"),
        ("run", "bundle:cheshire", "--set", "coupling.g=["),
        ("run", "bundle:cheshire", "--set", "coupling.g={a: b: c}"),
        ("run", "bundle:cheshire", "--set", "name=2020-02-30"),
        ("run", "bundle:cheshire", "--set", 'name="\\ud800"'),
        # a byte that is not UTF-8 reaches argv as a lone surrogate
        ("run", "bundle:cheshire", "--set", "name=\udcff"),
        ("sweep", "bundle:disembodiment", "--param", "preselect.theta", "--start", "0",
         "--stop", "0.5", "--steps", "2", "--set", "coupling.g=[1"),
        ("show-state", "amp_in", "--theta", "1.5"),
        ("show-state", "amp_in"),
        ("show-state", "noisy_f", "--alpha", "7"),
    ], ids=["arm-on-linear-variant", "delta-underflow", "delta-overflow", "unhashable-state-id",
            "set-unclosed-flow", "set-nested-mapping", "set-bad-timestamp",
            "set-surrogate-escape", "set-undecodable-argv", "sweep-set-unclosed-flow",
            "theta-out-of-range", "theta-missing", "alpha-out-of-range"])
    def test_rejected_parameter_gives_parse_exit(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_bad_swept_meter_delta_gets_its_own_row(self, tmp_path, capsys):
        doc = tmp_path / "sweep.yaml"
        doc.write_text(load_bundle("disembodiment")
                       + "sweep:\n  meter.delta: {values: [4.0, 1e-200, 1e300]}\n")
        code, out, err = run_cli(capsys, "run", str(doc))
        assert code == EXIT_OK, err
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 6  # four observables on the good point, one row per bad one
        assert all(row[-1] == "" for row in rows[:4])
        assert all(row[-1].startswith("ParameterRangeError: meter.delta must be positive with "
                                      "4 delta^2 a nonzero finite float") for row in rows[4:])

    def test_unreadable_override_names_its_path(self, capsys):
        code, _, err = run_cli(capsys, "run", "bundle:cheshire", "--set", "coupling.g=[")
        assert code == EXIT_PARSE
        assert err.startswith("error: --set coupling.g: ")

    def test_bad_timestamp_in_file_gives_parse_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(load_bundle("cheshire").replace("name: cheshire", "name: 2020-13-45"))
        code, out, err = run_cli(capsys, "run", str(bad))
        assert code == EXIT_PARSE and out == ""
        assert err == "error: '2020-13-45' is not a valid timestamp (line 3, column 7)\n"

    def test_exponent_float_override_matches_decimal(self, capsys):
        code, exponent, err = run_cli(capsys, "run", "bundle:disembodiment",
                                      "--set", "coupling.g=2e-3")
        assert code == EXIT_OK, err
        code, decimal, _ = run_cli(capsys, "run", "bundle:disembodiment",
                                   "--set", "coupling.g=0.002")
        assert code == EXIT_OK
        assert exponent == decimal

    @pytest.mark.parametrize("name", ["1e3", "-1e-5", "2E8"])
    def test_exponent_looking_name_override_is_a_string(self, tmp_path, capsys, name):
        # a --set name reads as the same name in a file does
        code, out, err = run_cli(capsys, "run", "bundle:cheshire", "--set", f"name={name}")
        assert code == EXIT_OK, err
        doc = tmp_path / "named.yaml"
        doc.write_text(load_bundle("cheshire").replace("name: cheshire", f"name: {name}"))
        assert run_cli(capsys, "run", str(doc))[1] == out
        assert {row["scenario"] for row in csv.DictReader(io.StringIO(out))} == {name}

    def test_bad_swept_value_gets_its_own_row(self, tmp_path, capsys):
        doc = tmp_path / "sweep.yaml"
        doc.write_text(load_bundle("amplification").replace(
            "values: [0.16666666666666666, 0.25, 0.5, 0.6666666666666666, 0.9]",
            "values: [0.3, 1.5]"))
        code, out, err = run_cli(capsys, "run", str(doc))
        assert code == EXIT_OK, err
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [row[1] for row in rows] == ["0.29999999999999999"] * 6 + ["1.5"]
        assert all(row[-1] == "" for row in rows[:6])
        assert rows[6][-1].startswith("ParameterRangeError: preselect.theta = 1.5")

    def test_records_format(self, capsys):
        import json

        code, out, _ = run_cli(capsys, "run", "bundle:cheshire", "--format", "records")
        assert code == EXIT_OK
        obj = json.loads(out.strip().split("\n")[0])
        assert obj["scenario"] == "cheshire"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "run", "bundle:cheshire", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        content = target.read_bytes()
        assert content.startswith(b"scenario,")
        assert b"\r" not in content

    def test_every_bundle_runs_with_defaults(self, capsys):
        for name in list_bundles():
            code, out, _ = run_cli(capsys, "run", f"bundle:{name}")
            assert code == EXIT_OK, name
            assert out.startswith("scenario,"), name

    def test_output_is_deterministic(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_cli(capsys, "run", "bundle:amplification", "--out", str(first))
        run_cli(capsys, "run", "bundle:amplification", "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_amplification_bundle_reproduces_table(self, capsys):
        code, out, _ = run_cli(capsys, "run", "bundle:amplification")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for row in rows:
            theta_pi, obs, wv_re = float(row[1]), row[2], float(row[3])
            if obs == "sigma_z_R":
                assert wv_re == pytest.approx(np.tan(theta_pi * np.pi / 2), abs=1e-12)
            elif obs in ("pi_L", "sigma_x_L"):
                assert wv_re == pytest.approx(1.0, abs=1e-12)
            else:
                assert wv_re == pytest.approx(0.0, abs=1e-12)


class TestSweep:
    def test_sweep_adds_parameter_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "bundle:disembodiment",
            "--param", "preselect.theta", "--start", "0.1", "--stop", "0.5",
            "--steps", "5")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].split(",")[1] == "preselect.theta"
        # 5 points x 4 observables
        assert len(lines) == 1 + 20

    @pytest.mark.parametrize("name", ["'1e3'", "'2E-5'", "'null'"])
    def test_name_that_reads_as_a_number_survives_the_sweep(self, tmp_path, capsys, name):
        # the sweep once re-parsed a YAML dump of the document, where 1e3 reads as a float
        doc = tmp_path / "named.yaml"
        doc.write_text(load_bundle("disembodiment").replace("name: disembodiment",
                                                            f"name: {name}"), encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", str(doc), "--param", "preselect.theta",
                                 "--start", "0.1", "--stop", "0.5", "--steps", "2")
        assert code == EXIT_OK, err
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 8 and {row[0] for row in rows} == {name.strip("'")}


    def test_negative_exponent_bounds(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "bundle:cheshire", "--param", "coupling.g",
                                 "--start", "-1e-5", "--stop", "-1e-6", "--steps", "2")
        assert code == EXIT_COMPUTE
        assert err == "all sweep points failed; see the error column\n"
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [float(row[1]) for row in rows] == [-1e-5, -1e-6]
        assert all(row[-1] == "ParameterRangeError: coupling constants g, gprime must be "
                              "nonnegative" for row in rows)

    def test_negative_infinite_bound_gives_parse_exit(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "bundle:cheshire", "--param", "coupling.g",
                                 "--start", "-inf", "--stop", "1e-3", "--steps", "2")
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "error: sweep.coupling.g.start must be finite, got -inf\n"

    def test_meter_n_sweep(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "bundle:disembodiment", "--param", "meter.N",
                                 "--start", "32", "--stop", "64", "--steps", "3")
        assert code == EXIT_OK, err
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [row[1] for row in rows[::4]] == ["32", "48", "64"]
        assert all(row[-1] == "" for row in rows)

    def test_non_integral_meter_n_fails_its_point_only(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "bundle:disembodiment", "--param", "meter.N",
                                 "--start", "32", "--stop", "64", "--steps", "4")
        assert code == EXIT_OK, err
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [row[1] for row in rows] == ["32"] * 4 + ["42.666666666666664",
                                                         "53.333333333333329"] + ["64"] * 4
        failed = [row for row in rows if row[-1]]
        assert [row[1] for row in failed] == ["42.666666666666664", "53.333333333333329"]
        assert all("meter.N must be a positive integer" in row[-1] for row in failed)


    def test_unsizable_meter_n_is_a_row_error(self, capsys):
        code, out, err = run_cli(capsys, "run", "bundle:cheshire",
                                 "--set", f"meter.N={10**30}")
        assert code == EXIT_COMPUTE, err
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 4
        assert all(row[-1] == f"ParameterRangeError: meter.N = {10**30}: numpy cannot "
                   "allocate its 2N+1 point grid" for row in rows)


class TestAllFailedExit:
    """``run`` and ``sweep`` exit 4 when every point fails, and 0 when any point runs."""

    ALL_FAILED = "all sweep points failed; see the error column\n"

    def run_both(self, capsys, tmp_path, start, stop):
        doc = tmp_path / "grid.yaml"
        doc.write_text(load_bundle("cheshire") + "sweep:\n"
                       f"  coupling.g: {{start: {start}, stop: {stop}, steps: 2}}\n")
        sweep = ("--param", "coupling.g", "--start", str(start), "--stop", str(stop),
                 "--steps", "2")
        return (run_cli(capsys, "run", str(doc)),
                run_cli(capsys, "sweep", "bundle:cheshire", *sweep))

    def test_all_failed_grid_exits_compute(self, capsys, tmp_path):
        for code, out, err in self.run_both(capsys, tmp_path, -1, -0.5):
            assert code == EXIT_COMPUTE
            assert err == self.ALL_FAILED
            rows = list(csv.reader(io.StringIO(out)))[1:]
            assert [float(row[1]) for row in rows] == [-1.0, -0.5]
            assert all(row[-1].startswith("ParameterRangeError:") for row in rows)

    def test_partly_failed_grid_exits_ok(self, capsys, tmp_path):
        for code, out, err in self.run_both(capsys, tmp_path, -1e-3, 1e-3):
            assert code == EXIT_OK, err
            assert err == ""
            rows = list(csv.reader(io.StringIO(out)))[1:]
            assert rows[0][-1].startswith("ParameterRangeError:")
            assert all(row[-1] == "" for row in rows[1:])
            assert len(rows) == 1 + 4  # the failed point, then one row per observable

    def test_rows_with_weak_values_and_no_pointer_reading_exit_compute(self, capsys):
        # every row keeps its weak values, but no point reads the pointer
        code, out, err = run_cli(capsys, "run", "bundle:cheshire", "--set", "coupling.g=0")
        assert code == EXIT_COMPUTE
        assert err == self.ALL_FAILED
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [row[2] for row in rows] == ["1", "0", "0", "1"]
        assert all(row[-1].startswith("IllConditionedFitError:") for row in rows)

    def test_fit_residual_flag_alone_counts_as_read(self, capsys):
        # g = 3 wraps the fit's log below the zone limit; the flag marks the
        # rows, but the pointer was read
        code, out, err = run_cli(capsys, "run", "bundle:cheshire", "--set", "coupling.g=3")
        assert code == EXIT_OK, err
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 4
        assert all(row[-1].startswith("fit-residual:") and row[7] for row in rows)


class TestZoneLimit:
    """A kick past pi per grid step, less the pointer's p-width, fails its rows with exit 4.

    On the grid q_k = k the phase exp(i g q a) is 2 pi-periodic in g a, so
    past the limit the pointer would read a wrong value with no flag.
    """

    @pytest.mark.parametrize("bundle, sets, phase, strength", [
        ("cheshire", ["coupling.g=6.283185307179586"], "6.28319",
         "coupling.g = 6.283185307179586"),
        ("cheshire", ["coupling.g=3.1415926"], "3.14159", "coupling.g = 3.1415926"),
        ("cheshire", ["coupling.g=3.1415925535897933"], "3.14159",  # pi - 1e-7
         "coupling.g = 3.1415925535897933"),
        ("disembodiment_noise", ["coupling.gprime=1", "coupling.t=6.283185307179586"],
         "6.28319", "coupling.gprime * coupling.t = 6.283185307179586"),
    ], ids=["g-2pi", "g-3.1415926", "g-pi-less-1e-7", "gprime-t-2pi"])
    def test_rows_past_the_zone_fail(self, capsys, bundle, sets, phase, strength):
        code, out, err = run_cli(capsys, "run", f"bundle:{bundle}",
                                 *(arg for value in sets for arg in ("--set", value)))
        assert code == EXIT_COMPUTE
        assert err == "all sweep points failed; see the error column\n"
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 4
        for row in rows:
            assert row[-1].startswith(f"NumericalOverflowError: kick phase per grid step {phase} "
                                      "plus the p-width 1/(2 delta) = 0.125 is not below pi, "
                                      f"the grid's zone limit ({strength})")
            assert row[4:10] == [""] * 6  # no reading, no fit


class TestOverlapPhase:
    """alpha - 1 (in units of pi) flips the post-state's sign, and the pointer fit ignores it."""

    @pytest.mark.parametrize("bundle", ["disembodiment", "disembodiment_noise", "three_body"])
    def test_sign_flipped_post_state_reads_the_same_fit(self, capsys, bundle):
        # the overlap <post|pre> then sits near the negative real axis, where
        # the principal log of the pointer jumps by 2 pi i inside the support
        fits = {}
        for alpha in ("0.75", "-0.25"):
            code, out, err = run_cli(capsys, "run", f"bundle:{bundle}", "--set", "sweep={}",
                                     "--set", f"alpha={alpha}")
            assert code == EXIT_OK, err
            rows = list(csv.DictReader(io.StringIO(out)))
            assert rows and all(row["error"] == "" for row in rows)
            fits[alpha] = [complex(float(row["fit_re"]), float(row["fit_im"])) for row in rows]
        for fit, twin in zip(fits["0.75"], fits["-0.25"]):
            assert abs(fit - twin) <= 1e-12


class TestShowState:
    def test_amp_in_amplitudes(self, capsys):
        code, out, _ = run_cli(capsys, "show-state", "amp_in", "--theta", "0.5")
        assert code == EXIT_OK
        assert "(L,H): +0.707106781187" in out
        assert "(R,H): +0.000000000000-0.707106781187j" in out

    def test_cheshire_f_amplitudes(self, capsys):
        code, out, _ = run_cli(capsys, "show-state", "cheshire_f")
        assert code == EXIT_OK
        assert "(L,H): +0.707106781187" in out
        assert "(R,V): +0.707106781187" in out

    @pytest.mark.parametrize("option, value, line", [
        ("--theta", "-1e-5", "(R,H): +0.000000000000+0.000015707963j"),
        ("--theta", "-2.5E-1", "(R,H): +0.000000000000+0.382683432365j"),
    ], ids=["exponent", "upper-case-exponent"])
    def test_negative_exponent_angle(self, capsys, option, value, line):
        code, out, err = run_cli(capsys, "show-state", "amp_in", option, value)
        assert code == EXIT_OK, err
        assert line in out

    def test_negative_infinite_angle_gives_parse_exit(self, capsys):
        code, out, err = run_cli(capsys, "show-state", "noisy_f", "--alpha", "-inf")
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error: ") and "alpha = -inf out of range" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_bad_id_is_usage_error_listing_choices(self, capsys):
        code, _, err = run_cli(capsys, "show-state", "nonsense")
        assert code == EXIT_USAGE
        assert "amp_in" in err  # argparse lists the valid ids


class TestVerify:
    def test_single_fast_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "cheshire")
        assert code == EXIT_OK
        assert "cheshire" in out and "PASS" in out

    def test_red_check_exits_verify(self, capsys):
        # noisy_fit is red by design (README "Known red check"); exit 0 iff all pass
        code, out, _ = run_cli(capsys, "verify", "--only", "noisy_fit")
        assert code == EXIT_VERIFY
        assert "FAILED: noisy_fit" in out

    def test_alternate_kick_sign_grades_no_pointer_fit(self, capsys):
        # under -1 every pointer-fit check is INFO, so the red noisy_fit does not fail the run
        code, out, _ = run_cli(capsys, "verify", "--kick-sign", "-1")
        assert code == EXIT_OK
        assert out.endswith("all checks passed\n") and "FAIL" not in out

    def test_unknown_check_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--only", "nonsense")
        assert code == EXIT_USAGE


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys, )[0] == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE
