"""Workload inputs and the correctness gate of the weakmeter benchmark.

Inputs are scenario texts and check orders drawn from ``--seed`` out of
fixed pools, so every point a run can meet has a recorded reference in
``reference.json``.  This module does not import weakmeter: the set-up
probes generate the texts first and then time ``import weakmeter`` plus
parsing alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# ROADMAP: outputs stay within 1e-12 of the recorded ones (relative above 1).
TOLERANCE = 1e-12

# Angle lattices in units of pi, each pair with a reference.  They stop
# short of theta = 0.9 and alpha = 0.45, where the disembodiment weak value
# grows past ~10 and the pointer fit residual nears its 1e-2 error limit.
THETAS = tuple(round(0.1 * k, 2) for k in range(1, 9))
ALPHAS = tuple(round(0.05 * k, 2) for k in range(1, 9))
SWEEP_THETAS, SWEEP_ALPHAS = 3, 3
SWEEP_PASSES = 32

WIDE_N = 128
# Each wide pass takes a fresh coupling g from this pool, so no two evolve
# calls in a run share a coupling key; a run stops once the pool is used up.
WIDE_POOL_SIZE = 32

_DISEMBODIMENT = """\
name: disembodiment
preselect: {{id: disembody_in, theta: {theta!r}}}
postselect: {{id: disembody_f, alpha: {alpha!r}}}
coupling: {{variant: measure_sigma_zR_noisy, g: {g!r}}}
meter: {{N: {n}, delta: 4.0}}
observables: [sigma_z_L, sigma_z_R, Lx_sigma_x_L, Lx_sigma_x_R]
"""

_PARALLEL = """\
name: parallel-noise-lx
preselect: {{id: disembody_in, theta: {theta!r}}}
postselect: {{id: disembody_f, alpha: {alpha!r}}}
coupling: {{variant: parallel_1, g: {g!r}, gprime: 1.0e-3, t: 100.0, measure_arm: R}}
meter: {{N: {n}, delta: 4.0}}
observables: [sigma_z_L, sigma_z_R, Lx_sigma_z_L, Lx_sigma_z_R, effective_parallel_lx]
"""

# label -> (template, meter N); the bundled disembodiment and parallel_noise_1
# scenarios, the latter read in the right (signal) arm.
SWEEP_SCENARIOS = {"disembodiment": (_DISEMBODIMENT, 64),
                   "parallel_noise_1": (_PARALLEL, 32)}
WIDE_SCENARIOS = {"wide_sigma_zR": _DISEMBODIMENT, "wide_parallel_1": _PARALLEL}

WORKLOADS = ("verify_suite", "angle_sweep", "wide_meter")


@dataclass(frozen=True)
class Item:
    """One call of the workload: a scenario text, or (no text) one verify check.

    ``keys`` name the call's operations: its points' reference keys, or the check.
    """

    label: str
    keys: tuple[str, ...]
    text: str = ""


def point_key(*values: float) -> str:
    return ",".join(repr(v) for v in values)


def sweep_item(label: str, thetas, alphas) -> Item:
    template, n = SWEEP_SCENARIOS[label]
    text = template.format(theta=thetas[0], alpha=alphas[0], g=1e-3, n=n) + (
        "sweep:\n"
        f"  preselect.theta: {{values: {list(thetas)!r}}}\n"
        f"  postselect.alpha: {{values: {list(alphas)!r}}}\n"
    )
    # run_scenario varies the last sweep path fastest
    keys = tuple(point_key(t, a) for t in thetas for a in alphas)
    return Item(label, keys, text)


def wide_pool(index: int) -> tuple[float, float, float]:
    """(theta, alpha, g) of wide-meter pool entry ``index``."""
    return THETAS[index % len(THETAS)], ALPHAS[(2 * index) % len(ALPHAS)], (1000 + 25 * index) / 1e6


def wide_item(label: str, index: int) -> Item:
    theta, alpha, g = wide_pool(index)
    text = WIDE_SCENARIOS[label].format(theta=theta, alpha=alpha, g=g, n=WIDE_N)
    return Item(label, (point_key(theta, alpha, g),), text)


def plan(workload: str, seed: int, check_names=()) -> list[list[Item]]:
    """The run's passes, each a list of items; the first pass is the warm-up.

    ``check_names`` are the verify suite's checks; a verify pass runs each
    once, in an order the seed permutes.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_suite":
        order = rng.sample(list(check_names), len(check_names))
        return [[Item(name, (name,)) for name in order]]
    if workload == "angle_sweep":
        return [[sweep_item(label, sorted(rng.sample(THETAS, SWEEP_THETAS)),
                            sorted(rng.sample(ALPHAS, SWEEP_ALPHAS)))
                 for label in SWEEP_SCENARIOS]
                for _ in range(SWEEP_PASSES)]
    if workload == "wide_meter":
        order = rng.sample(range(WIDE_POOL_SIZE), WIDE_POOL_SIZE)
        return [[wide_item(label, i) for label in WIDE_SCENARIOS] for i in order]
    raise ValueError(f"unknown workload {workload!r}; valid: {WORKLOADS}")


def cycles(workload: str) -> bool:
    """Whether passes may repeat once the plan is used up."""
    return workload != "wide_meter"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _pair(value: complex) -> list[float]:
    return [value.real, value.imag]


def outputs(record) -> dict:
    """The reference-checked outputs of one scenario record."""
    return {
        "fit_value": _pair(record.fit_value),
        "mean_q": record.mean_q,
        "mean_p": record.mean_p,
        "success_probability": record.success_probability,
        "weak_values": {k: _pair(v) for k, v in record.weak_values.items()},
    }


def _flat(out: dict) -> dict:
    flat = {}
    for name, value in out.items():
        if isinstance(value, dict):
            for sub, pair in value.items():
                flat[f"{name}.{sub}.re"], flat[f"{name}.{sub}.im"] = pair
        elif isinstance(value, list):
            flat[f"{name}.re"], flat[f"{name}.im"] = value
        else:
            flat[name] = value
    return flat


def record_problem(record, want: dict | None) -> str:
    """Why ``record`` fails the gate against reference ``want``; '' if it passes."""
    if record.error:
        return f"record error: {record.error}"
    if want is None:
        return "no reference for this point"
    got, ref = _flat(outputs(record)), _flat(want)
    if got.keys() != ref.keys():
        return f"output fields {sorted(got)} differ from reference {sorted(ref)}"
    for name, value in ref.items():
        if abs(got[name] - value) > TOLERANCE * max(1.0, abs(value)):
            return f"{name} = {got[name]!r} drifts from reference {value!r}"
    return ""


def item_problems(item: Item, result, reference: dict) -> list[str]:
    """One entry per operation of ``item``: '' when it passed the gate.

    ``result`` is run_scenario's records, run_checks' results, or the
    exception the call raised.
    """
    if isinstance(result, BaseException):
        return [f"raised {result!r}"] * len(item.keys)
    if not item.text:
        verdicts = {r.name: r.status for r in result}
        return [
            "" if verdicts.get(name) == reference["verify"].get(name)
            else f"verdict {verdicts.get(name)} differs from reference "
                 f"{reference['verify'].get(name)}"
            for name in item.keys
        ]
    if len(result) != len(item.keys):
        return [f"{len(result)} records for {len(item.keys)} points"] * len(item.keys)
    points = reference["points"].get(item.label, {})
    return [record_problem(rec, points.get(key)) for rec, key in zip(result, item.keys)]
