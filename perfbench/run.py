"""weakmeter benchmark: one workload, end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload angle_sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports weakmeter from ``src/``.  Each
workload runs in its own fresh process: the set-up, then one warm-up pass,
then timed passes until ``--seconds`` have gone.  A pass is one verify suite
(``run_checks`` called once per check), one sweep of each angle scenario, or
one point of each wide-meter scenario.  Every output is checked against
``reference.json``.  Lines before the last name each metric with its unit;
the last line of stdout is the JSON result.

End-to-end metrics come from untraced passes:

* ``op_s``: seconds per pass, as the sum over the pass's calls of each
  call's median (``verify_s``, ``wide_s``; on angle_sweep the pass holds
  18 sweep points, see ``sweep_points_per_s``).
* ``peak_mem_mb``: peak RSS of this process, from getrusage.
* ``setup_s``: median over fresh child processes of ``import weakmeter``
  plus parsing the workload's scenario texts.

An operation is a scenario point, a verify check or an N-series evolution;
it fails when it raises, carries an error, drifts from its reference or
changes its verdict.  ``fail_frac`` (printed) is ``failed / attempted`` of
the JSON result.  It is no metric: it is 0 when the program is correct, and
a bound relative to 0 means nothing.

The traced run alternates untraced and traced passes.  Traced passes record
spans around weakmeter's public calls (see ``spans.py``); per-layer numbers
are per traced pass, and ``trace.overhead_s`` is the traced minus the
untraced median pass time.  It then evolves the ROADMAP N-series once.
Spans are written to ``perfbench/out/`` at the end.

OpenBLAS threads and glibc malloc settings are left at their defaults, so
the benchmark measures the program as users run it.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 5
N_SERIES = (32, 64, 128, 192)
# (metric label, variant, measure_arm, orbital dim, t): system dims 8 and 12
N_SERIES_COUPLINGS = (("sigma_zR_noisy", "measure_sigma_zR_noisy", None, 2, 1.0),
                      ("parallel_1", "parallel_1", "R", 3, 100.0))
# Per-check metric names; a check added to the suite later still runs and is
# gated against the reference, but gets a metric only once listed here.
VERIFY_CHECKS = ("cheshire", "amplification", "noisy_fit", "disembodiment", "pointer_shift",
                 "dyson", "convergence", "parallel_noise", "three_body")

END_TO_END = {"op_s": "s", "peak_mem_mb": "MiB", "setup_s": "s"}

# (metric stem, span name, report self time instead of inclusive time)
LAYER_SPANS = (
    ("dynamics.build", "dynamics.build", False),
    ("dynamics.evolve_self", "dynamics.evolve", True),
    ("dynamics.dyson", "dynamics.dyson", False),
    ("dynamics.post_select", "dynamics.post_select", False),
    ("dynamics.fit", "dynamics.fit", False),
    ("meter.make_meter", "meter.make_meter", False),
    ("meter.readout", "meter.readout", False),
    ("scenario.override", "scenario.override", False),
    ("scenario.run_self", "scenario.run", True),
    ("optics.named_state", "optics.named_state", False),
    ("weakvalue.observable", "weakvalue.observable", False),
    ("weakvalue.weak_value", "weakvalue.weak_value", False),
    ("hilbert.extend", "hilbert.extend", False),
)


def _per_layer_units() -> dict:
    units = {}
    for stem, span_name, _ in LAYER_SPANS:
        units[f"{stem}_s"] = "s"
        units[f"{span_name}_calls"] = "count"
    units.update({"scenario.parse_s": "s", "scenario.parse_calls": "count",
                  "dynamics.coupling_keys": "count", "dynamics.evolve_per_key": "ratio",
                  "dynamics.dense_bytes_computed": "B", "dynamics.joint_dim_max": "count"})
    units.update({f"verify.{check}_s": "s" for check in VERIFY_CHECKS})
    units.update({"proc.minflt": "count", "proc.maxrss_mb": "MiB", "trace.overhead_s": "s"})
    for label, *_ in N_SERIES_COUPLINGS:
        for n in N_SERIES:
            units[f"nseries.{label}.N{n}.build_s"] = "s"
            units[f"nseries.{label}.N{n}.evolve_self_s"] = "s"
            units[f"nseries.{label}.N{n}.dense_bytes_computed"] = "B"
    return units


PER_LAYER = _per_layer_units()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time the set-up once and print the seconds")
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    """Import weakmeter and parse the workload's scenario texts."""
    start = time.perf_counter()
    importlib.import_module("weakmeter")
    verify = importlib.import_module("weakmeter.verify")
    passes = workloads.plan(workload, seed, verify.CHECK_NAMES)
    docs = parse_all(passes)
    return time.perf_counter() - start, passes, docs


def parse_all(passes) -> dict:
    scenario = sys.modules["weakmeter.scenario"]
    return {item.text: scenario.parse_scenario(item.text)
            for items in passes for item in items if item.text}


def probe_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds of fresh child processes: an import happens once per process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_pass(items, docs, reference, item_times):
    """Run one pass; returns (seconds spent in weakmeter calls, gate problems)."""
    scenario, verify = sys.modules["weakmeter.scenario"], sys.modules["weakmeter.verify"]
    seconds, problems = 0.0, []
    for item in items:
        start = time.perf_counter()
        try:
            if item.text:
                result = scenario.run_scenario(docs[item.text])
            else:
                result = verify.run_checks(only=item.keys)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            result = exc
        elapsed = time.perf_counter() - start
        seconds += elapsed
        item_times.setdefault(item.label, []).append(elapsed)
        problems += [f"{item.label} {key}: {p}" if p else ""
                     for key, p in zip(item.keys, workloads.item_problems(item, result, reference))]
    return seconds, problems


def tail(samples) -> str:
    """Median, plus the highest percentile with at least 10 samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g} s over n={n}"
    if n < 11:
        return text + "; no percentile has 10 samples beyond it"
    ordered = sorted(samples)
    return text + f"; p{math.floor(100 * (n - 10) / n)} {ordered[n - 11]:.6g} s (10 beyond)"


def n_series(problems: list, tracers: dict) -> dict:
    """Trace one evolve_exact per (coupling, N) of the ROADMAP N-series."""
    dynamics = sys.modules["weakmeter.dynamics"]
    optics, meter = sys.modules["weakmeter.optics"], sys.modules["weakmeter.meter"]
    metrics = {}
    for label, variant, arm, dim, t in N_SERIES_COUPLINGS:
        pre = optics.named_state("disembody_in", theta=math.pi / 2, orbital_dim=dim)
        spec = dynamics.CouplingSpec(variant=variant, g=1e-3, gprime=1e-3, t=t, measure_arm=arm)
        for n in N_SERIES:
            stem = f"nseries.{label}.N{n}"
            tracer = tracers[stem] = spans.Tracer()
            grid = meter.make_meter(n, 4.0)
            try:
                with tracer.installed(), tracer.op(stem):
                    dynamics.evolve_exact(spec, pre, grid)
                problems.append("")
            except Exception as exc:  # a raising call is a failed operation, not a crash
                problems.append(f"{stem}: raised {exc!r}")
            total, self_s, _ = tracer.totals()
            metrics[f"{stem}.build_s"] = total["dynamics.build"]
            metrics[f"{stem}.evolve_self_s"] = self_s["dynamics.evolve"]
            metrics[f"{stem}.dense_bytes_computed"] = tracer.dense_bytes
    return metrics


def layer_metrics(tracer, parse_tracer, ops: int) -> dict:
    """Per-layer numbers per traced pass; parsing is the run's set-up, counted once."""
    total, self_s, calls = tracer.totals()
    metrics = {}
    for stem, span_name, use_self in LAYER_SPANS:
        metrics[f"{stem}_s"] = (self_s if use_self else total)[span_name] / ops
        metrics[f"{span_name}_calls"] = calls[span_name] / ops
    parse_total, _, parse_calls = parse_tracer.totals()
    metrics["scenario.parse_s"] = parse_total["scenario.parse"]
    metrics["scenario.parse_calls"] = parse_calls["scenario.parse"]
    metrics["dynamics.coupling_keys"] = tracer.coupling_keys / ops
    metrics["dynamics.evolve_per_key"] = (calls["dynamics.evolve"] / tracer.coupling_keys
                                          if tracer.coupling_keys else 0.0)
    metrics["dynamics.dense_bytes_computed"] = tracer.dense_bytes / ops
    metrics["dynamics.joint_dim_max"] = tracer.joint_dim_max
    for check in VERIFY_CHECKS:
        metrics[f"verify.{check}_s"] = total[f"verify.{check}"] / ops
    return metrics


def _blas_symbol(lib, stem: str):
    """An OpenBLAS entry point under the names its builds export, or None."""
    for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}", f"openblas_{stem}"):
        symbol = getattr(lib, name, None)
        if symbol is not None:
            return symbol
    return None


def _openblas() -> list[str]:
    """Version and thread count of each OpenBLAS loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    facts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        config, threads = _blas_symbol(lib, "get_config"), _blas_symbol(lib, "get_num_threads")
        fact = Path(path).name
        if config is not None and threads is not None:
            config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
            fact += f" {config().decode()} threads={threads()}"
        facts.append(fact)
    return facts


def machine_facts() -> list[str]:
    numpy, scipy = importlib.import_module("numpy"), importlib.import_module("scipy")
    lines = [f"machine nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
             f"python={platform.python_version()} numpy={numpy.__version__} "
             f"scipy={scipy.__version__}"]
    lines += [f"machine openblas {fact}" for fact in _openblas()]
    tuned = {k: v for k, v in os.environ.items()
             if k.startswith(("MALLOC_", "OPENBLAS_", "OMP_", "GLIBC_TUNABLES"))}
    lines.append(f"machine env {tuned if tuned else 'no BLAS, OpenMP or malloc overrides'}")
    return lines


@dataclass
class Measured:
    untraced: list = field(default_factory=list)  # seconds per untraced pass
    traced: list = field(default_factory=list)  # seconds per traced pass
    item_times: dict = field(default_factory=dict)  # label -> untraced call seconds
    problems: list = field(default_factory=list)  # one entry per operation, '' if it passed
    minflt: float = 0.0  # minor page faults per timed pass
    maxrss_mb: float = 0.0


def measure(args, passes, docs, reference, tracer) -> Measured:
    """One warm-up pass, then timed passes until ``args.seconds`` have gone.

    A traced run puts every second pass under the tracer, and goes on until
    it has at least one traced and one untraced pass.
    """
    out = Measured()
    out.problems += run_pass(passes[0], docs, reference, {})[1]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for index in itertools.count(1):
        if (time.perf_counter() - start >= args.seconds
                and (not args.trace or (out.traced and out.untraced))):
            break
        if index >= len(passes) and not workloads.cycles(args.workload):
            break
        items = passes[index % len(passes)]
        if args.trace and index % 2 == 0:
            with tracer.installed(), tracer.op():
                seconds, found = run_pass(items, docs, reference, {})
            out.traced.append(seconds)
        else:
            seconds, found = run_pass(items, docs, reference, out.item_times)
            out.untraced.append(seconds)
        out.problems += found
    end = resource.getrusage(resource.RUSAGE_SELF)
    out.minflt = (end.ru_minflt - usage.ru_minflt) / (len(out.untraced) + len(out.traced))
    out.maxrss_mb = end.ru_maxrss / 1024
    return out


def write_spans(path: Path, tracers: dict) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for phase, tracer in tracers.items():
            for i, (name, parent, start, end) in enumerate(tracer.spans):
                out.write(json.dumps({"phase": phase, "id": i, "parent": parent,
                                      "name": name, "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "weakmeter" / "__init__.py").is_file():
        print(f"weakmeter sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(setup(args.workload, args.seed)[0]))
        return 0

    first_setup_s, passes, docs = setup(args.workload, args.seed)
    weakmeter = sys.modules["weakmeter"]
    if Path(weakmeter.__file__).resolve().parent != SRC / "weakmeter":
        print(f"imported weakmeter from {weakmeter.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup_samples = probe_setup(args.workload, args.seed)
    reference = workloads.load_reference()
    tracers = {"parse": spans.Tracer(), "passes": spans.Tracer()}
    if args.trace:
        with tracers["parse"].installed():
            parse_all(passes)
    run = measure(args, passes, docs, reference, tracers["passes"])

    lines = machine_facts()
    lines.append(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
                 f"trace={args.trace} passes={len(run.untraced) + len(run.traced)} (+1 warm-up)")
    if args.trace:
        units = PER_LAYER
        metrics = layer_metrics(tracers["passes"], tracers["parse"], len(run.traced))
        metrics["proc.minflt"] = run.minflt
        metrics["proc.maxrss_mb"] = run.maxrss_mb
        metrics["trace.overhead_s"] = statistics.median(run.traced) - statistics.median(run.untraced)
        lines.append(f"trace overhead: traced {tail(run.traced)}; untraced {tail(run.untraced)}")
        metrics.update(n_series(run.problems, tracers))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(path, tracers)
        lines.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        units = END_TO_END
        metrics = {
            "op_s": sum(statistics.median(times) for times in run.item_times.values()),
            "peak_mem_mb": run.maxrss_mb,
            "setup_s": statistics.median(setup_samples),
        }
        lines.append(f"op_s is the sum of the per-call medians below; pass {tail(run.untraced)}")
        lines += [f"  {label}: {tail(times)}" for label, times in run.item_times.items()]
        lines.append(f"setup_s: {tail(setup_samples)} (fresh processes); "
                     f"this process {first_setup_s:.6g} s")
        lines.append(f"proc.minflt {run.minflt:.6g} count per pass")
        points = sum(len(item.keys) for item in passes[0] if item.text)
        name, value, unit = {
            "verify_suite": ("verify_s", metrics["op_s"], "s"),
            "angle_sweep": ("sweep_points_per_s", points / metrics["op_s"], "1/s"),
            "wide_meter": ("wide_s", metrics["op_s"], "s"),
        }[args.workload]
        lines.append(f"{name} {value:.6g} {unit}")

    failed = [p for p in run.problems if p]
    lines += [f"FAILED {p}" for p in failed[:20]]
    lines.append(f"fail_frac {len(failed) / len(run.problems):.6g} "
                 f"({len(failed)} of {len(run.problems)} operations)")
    lines += [f"metric {name} {value:.6g} {units[name]}" for name, value in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(run.problems),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
