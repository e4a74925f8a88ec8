"""Seed parser, gain rule, set-up and import probes of ``tools/bench_pairs.py``, on fake runs."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

# quartiles (inclusive) 12.25 and 16.75, so the parent's IQR is 4.5; median 14.5
PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def summary(parent, change):
    """:func:`summary` of runs whose every metric reads the given values."""
    def runs(values):
        return [{"metrics": {metric: {"value": v} for metric in bench_pairs.METRICS}}
                for v in values]

    rows = bench_pairs.summary({"parent": runs(parent), "change": runs(change)})
    assert set(rows) == set(bench_pairs.METRICS)
    first = rows[bench_pairs.METRICS[0]]
    assert all(row == first for row in rows.values())
    return first


def test_seed_range_is_inclusive():
    assert bench_pairs.seed_list("1801-1810") == list(range(1801, 1811))


def test_seed_list():
    assert bench_pairs.seed_list("1,5,9") == [1, 5, 9]


def test_parent_quartiles_and_median():
    row = summary(PARENT, [v - 6.0 for v in PARENT])
    assert (row["parent_q1"], row["parent_median"], row["parent_q3"]) == (12.25, 14.5, 16.75)
    assert row["pairs"] == 10


@pytest.mark.parametrize("losses, gain", [(0, True), (1, True), (2, False)])
def test_gain_needs_nine_wins_in_ten(losses, gain):
    # every other pair wins by 10, so the median gap (at least 8) clears the IQR
    change = [p + 0.5 if i < losses else p - 10.0 for i, p in enumerate(PARENT)]
    row = summary(PARENT, change)
    assert row["change_wins"] == 10 - losses
    assert row["parent_median"] - row["change_median"] > 4.5
    assert row["gain"] is gain


@pytest.mark.parametrize("ties, gain", [(1, True), (2, False)])
def test_ties_count_for_neither_side(ties, gain):
    change = [p if i < ties else p - 10.0 for i, p in enumerate(PARENT)]
    row = summary(PARENT, change)
    assert row["change_wins"] == 10 - ties
    assert row["gain"] is gain


@pytest.mark.parametrize("shift, gain", [(4.4, False), (4.5, False), (4.6, True)])
def test_gain_needs_a_median_gap_beyond_the_parent_iqr(shift, gain):
    # every pair wins; only the gap against the IQR of 4.5 decides
    row = summary(PARENT, [p - shift for p in PARENT])
    assert row["change_wins"] == 10
    assert row["gain"] is gain


def test_setup_probes_alternate_in_the_pairs_order(monkeypatch):
    calls = []

    def fake_probe(tree, workload, seed):
        calls.append(tree)
        return float(len(calls))

    monkeypatch.setattr(bench_pairs, "probe", fake_probe)
    trees = {"parent": "P", "change": "C"}
    samples = bench_pairs.setup_probes(trees, "wide_meter", 7, ("change", "parent"))
    assert calls == ["C", "P"] * bench_pairs.SETUP_PROBES
    assert samples == {"change": [1.0, 3.0, 5.0, 7.0], "parent": [2.0, 4.0, 6.0, 8.0]}


def test_main_records_probes_beside_the_runs(monkeypatch, tmp_path):
    # two seeds of one workload: each pair adds SETUP_PROBES samples per side
    probes = iter(range(1000))

    def fake_run(tree, workload, seed, seconds):
        metrics = {metric: {"value": 1.0} for metric in bench_pairs.METRICS}
        return {"metrics": metrics, "failed": 0}, ["cpu test"]

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "checkout", lambda commit, into: into)
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    # the parent is 10 s slower in every probe, so the change wins each one
    monkeypatch.setattr(bench_pairs, "probe", lambda tree, workload, seed: (
        next(probes) + (10.0 if tree.name == "parent" else 0.0)))
    # and 10 s faster in every import self time, so the change wins none, but
    # 10 s slower in every cumulative import time, so it wins each of those
    monkeypatch.setattr(bench_pairs, "import_probe", lambda tree: (
        next(probes) - (10.0 if tree.name == "parent" else 0.0),
        next(probes) + (10.0 if tree.name == "parent" else 0.0)))
    assert bench_pairs.main(["--tag", "t", "--seeds", "1,2", "--workloads", "verify_suite"]) == 0
    entry = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["verify_suite"]
    assert [len(entry["setup_probes"][side]) for side in bench_pairs.SIDES] == \
        [2 * bench_pairs.SETUP_PROBES] * 2
    row = entry["setup_probe_summary"]
    assert (row["pairs"], row["change_wins"], row["gain"]) == (8, 8, True)
    assert set(entry["summary"]) == set(bench_pairs.METRICS)
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [len(doc["import_probes"][side]) for side in bench_pairs.SIDES] == \
        [bench_pairs.IMPORT_PROBES] * 2
    row = doc["import_probe_summary"]
    assert (row["pairs"], row["change_wins"], row["gain"]) == (bench_pairs.IMPORT_PROBES, 0, False)
    assert [len(doc["import_cumulative_probes"][side]) for side in bench_pairs.SIDES] == \
        [bench_pairs.IMPORT_PROBES] * 2
    row = doc["import_cumulative_probe_summary"]
    assert (row["pairs"], row["change_wins"]) == (bench_pairs.IMPORT_PROBES,) * 2


# set-up medians (seconds) of a change refused as a regression, against a 25% bound
@pytest.mark.parametrize("parent, change, within", [
    (0.1161, 0.1522, False),  # wide_meter, +31%
    (0.1127, 0.1265, True),  # angle_sweep, +12%
], ids=["wide_meter", "angle_sweep"])
def test_within_bound_is_the_regression_rule(parent, change, within):
    bound = bench_pairs.bounds()["setup_s"]
    assert bound == 0.25
    row = bench_pairs.within_bound(summary([parent] * 10, [change] * 10), bound)
    assert (row["parent_median"], row["change_median"]) == (parent, change)
    assert row["bound"] == bound and row["within_bound"] is within


def test_main_flags_each_metric_outside_its_bound(monkeypatch, tmp_path, capsys):
    # the change doubles op_s and adds 5% to peak_mem_mb (bound 10%) and setup_s
    def fake_run(tree, workload, seed, seconds):
        scale = {"op_s": 2.0} if tree.name == "change" else {}
        metrics = {metric: {"value": scale.get(metric, 1.05 if tree.name == "change" else 1.0)}
                   for metric in bench_pairs.METRICS}
        return {"metrics": metrics, "failed": 0}, ["cpu test"]

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "checkout", lambda commit, into: into)
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "probe", lambda tree, workload, seed: 1.0)
    monkeypatch.setattr(bench_pairs, "import_probe", lambda tree: (1.0, 1.0))
    assert bench_pairs.main(["--tag", "t", "--seeds", "1,2", "--workloads", "wide_meter"]) == 0
    rows = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["wide_meter"]["summary"]
    assert {metric: (row["bound"], row["within_bound"]) for metric, row in rows.items()} == {
        "op_s": (0.25, False), "peak_mem_mb": (0.1, True), "setup_s": (0.25, True)}
    flagged = [line for line in capsys.readouterr().out.splitlines() if "OUTSIDE BOUND" in line]
    assert flagged == ["OUTSIDE BOUND: wide_meter op_s 1 -> 2 (+100.0%, bound +25%)"]


# -X importtime lines: self and cumulative microseconds, then the module indented by depth
IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       900 |        900 |   numpy
import time:       222 |        222 |   weakmeter
import time:      1500 |       1600 |     weakmeter.dynamics
import time:       100 |        100 |       yaml.weakmeter_lookalike
import time:        29 |       2751 | weakmeter.cli
"""


def test_import_self_time_sums_the_weakmeter_modules():
    assert bench_pairs.weakmeter_self_s(IMPORTTIME) == (222 + 1500 + 29) / 1e6


def test_cli_cumulative_time_is_the_weakmeter_cli_line():
    # the top-level line nests weakmeter and everything the two import, numpy too
    assert bench_pairs.cli_cumulative_s(IMPORTTIME) == 2751 / 1e6
    with pytest.raises(ValueError, match="no weakmeter.cli line"):
        bench_pairs.cli_cumulative_s(IMPORTTIME.replace("weakmeter.cli", "weakmeter.verify"))


def test_import_probes_alternate_the_first_side(monkeypatch):
    calls = []
    monkeypatch.setattr(bench_pairs, "import_probe",
                        lambda tree: calls.append(tree) or (len(calls), -len(calls)))
    self_s, cumulative_s = bench_pairs.import_probes({"parent": "P", "change": "C"})
    assert calls == ["P", "C", "C", "P"] * (bench_pairs.IMPORT_PROBES // 2)
    # both series come from the same probe
    assert self_s["parent"][:2] == [1, 4] and cumulative_s["parent"][:2] == [-1, -4]
    assert [len(series[side]) for series in (self_s, cumulative_s)
            for side in bench_pairs.SIDES] == [bench_pairs.IMPORT_PROBES] * 4
