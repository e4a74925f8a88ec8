"""The seed parser and the gain rule of ``tools/bench_pairs.py``, on synthetic runs."""

import importlib.util
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
