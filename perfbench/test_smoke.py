"""Smoke test of the benchmark harness itself.

    python3 -m pytest perfbench/test_smoke.py -q

About a minute and up to ~2 GiB of memory: one short untraced and one short
traced angle_sweep run (the traced run evolves the N-series up to N=192),
plus gate checks on recorded outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(trace: int):
    done = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", "angle_sweep",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True, cwd=run.ROOT,
    )
    *lines, last = done.stdout.strip().splitlines()
    return lines, json.loads(last)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_appears_with_its_unit(trace, section):
    lines, result = _bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    if trace:
        assert any(line.startswith("trace overhead: traced median") for line in lines)
        assert "trace.overhead_s" in result["metrics"]


def _weakmeter():
    sys.path.insert(0, str(run.SRC))
    import weakmeter
    import weakmeter.verify
    return weakmeter


def test_gate_trips_when_a_reference_value_is_perturbed():
    weakmeter = _weakmeter()
    reference = workloads.load_reference()
    item = workloads.sweep_item("parallel_noise_1", [0.3], [0.1])
    records = weakmeter.run_scenario(weakmeter.parse_scenario(item.text))
    assert workloads.item_problems(item, records, reference) == [""]

    reference["points"]["parallel_noise_1"][item.keys[0]]["mean_p"] += 1e-9
    assert "drifts" in workloads.item_problems(item, records, reference)[0]
    assert all(workloads.item_problems(item, RuntimeError("boom"), reference))


def test_gate_holds_noisy_fit_to_its_fail_verdict():
    weakmeter = _weakmeter()
    reference = workloads.load_reference()
    assert reference["verify"]["noisy_fit"] == "FAIL"
    item = workloads.Item("verify", ("noisy_fit", "cheshire"))
    results = weakmeter.verify.run_checks(only=item.keys)
    assert workloads.item_problems(item, results, reference) == ["", ""]

    reference["verify"]["cheshire"] = "FAIL"
    assert workloads.item_problems(item, results, reference)[1]
