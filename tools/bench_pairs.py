"""Benchmark a change against its parent in alternating pairs, into one BENCH_<tag>.json.

The protocol of ROADMAP rule 11: each side runs in its own ``git archive``
checkout; for every seed and workload one run of each side, the side that
runs first alternating pair by pair (the parent first on even pair index),
the workloads interleaved; each run is

    python3 perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0

in its checkout, and its last stdout line is kept, with the per-call
medians it prints (``  <label>: median <x> s over n=<n>``, one per verify
check or sweep document) as ``calls``.  After each pair of runs
of a workload come ``SETUP_PROBES`` fresh ``perfbench/run.py --setup-probe``
processes per side, alternating side by side in the pair's order; each
prints the set-up seconds of one process (import plus scenario parsing).
The 5-probe ``setup_s`` of a run is too coarse to resolve its 25% bound on a
small VM, and the probes add samples of the same quantity.  Before the
pairs, ``IMPORT_PROBES`` fresh processes per side, alternating which side
goes first, each run ``python -X importtime -c "import weakmeter.cli"``.
Each gives two samples from the same output: the sum of the self times of
the ``weakmeter*`` modules (``import_probes``), a quieter measure of the
package's own import work than ``setup_s``, which numpy and PyYAML
dominate; and the cumulative time of the ``weakmeter.cli`` line
(``import_cumulative_probes``), which nests ``weakmeter`` and everything the
two import, so it also sees a module the package adds or drops outside
itself.  The file holds the run lines, the probe samples, the machine
facts, and per workload the medians, quartiles
(``statistics.quantiles(n=4, method='inclusive')``) and the change's wins
(a win: a change value strictly lower than the parent value of its pair,
or of the probe it alternated with; every metric is lower-is-better) of
each end-to-end metric and of the probes; each import series gets the same
summary.  ``gain`` says whether a claim would hold: wins in at least nine
tenths of the pairs, and a median gap larger than the parent's
interquartile range.  Each run metric's row also holds its ``bound`` from
``BENCHMARK.json`` and ``within_bound``: whether the change's median is at
most the parent's times (1 + bound), the regression rule a change must
pass; the rows outside their bound are printed last.  ``call_summary``
compares each label's per-call medians the same way, with no bound: it
shows whether a move in ``op_s`` sits in one call or in all of them.  The
file is rewritten after every pair, so an interrupted session keeps what it
measured.

Run it from the repository root, e.g.

    python3 tools/bench_pairs.py --tag pointer_path --seeds 1801-1810 \\
        --note "what the change does"

``--parent`` defaults to ``HEAD``.  ``--change`` defaults to the working
tree: its tracked files, including new files staged with ``git add``,
snapshotted by ``git stash create`` (``HEAD`` when nothing differs).
Python writes no bytecode in the checkouts, so every set-up probe compiles
weakmeter from source on both sides.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("verify_suite", "angle_sweep", "wide_meter")
METRICS = ("op_s", "peak_mem_mb", "setup_s")
SIDES = ("parent", "change")
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_PROBES = 4  # fresh set-up processes per side, pair and workload
IMPORT_PROBES = 20  # fresh import-time processes per side
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
CALL_LINE = re.compile(r"  (?P<label>\S+): median (?P<median>\S+) s over n=\d+")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def seed_list(text: str) -> list[int]:
    """``1801-1810`` or ``1,5,9``."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


def checkout(commit: str, into: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def call_medians(lines: list[str]) -> dict:
    """{label: seconds}: the per-call median lines of one run's stdout."""
    return {m["label"]: float(m["median"]) for m in map(CALL_LINE.match, lines) if m}


def run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """One benchmark run in ``tree``: its last stdout line with its ``calls``, and its
    machine lines."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(command, cwd=tree, env=ENV, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    return json.loads(lines[-1]) | {"calls": call_medians(lines)}, [
        line[len("machine "):] for line in lines if line.startswith("machine ")]


def probe(tree: Path, workload: str, seed: int) -> float:
    """The set-up seconds one fresh ``perfbench/run.py --setup-probe`` process prints."""
    command = [sys.executable, "perfbench/run.py", "--setup-probe", "--workload", workload,
               "--seed", str(seed)]
    return float(subprocess.run(command, cwd=tree, env=ENV, capture_output=True, text=True,
                                check=True).stdout.split()[-1])


def setup_probes(trees: dict, workload: str, seed: int, order) -> dict:
    """``SETUP_PROBES`` probe samples per side, the sides alternating in ``order``."""
    samples = {side: [] for side in SIDES}
    for _ in range(SETUP_PROBES):
        for side in order:
            samples[side].append(probe(trees[side], workload, seed))
    return samples


def weakmeter_self_s(importtime: str) -> float:
    """Seconds: the sum of the ``weakmeter*`` self times in ``-X importtime`` output."""
    total_us = 0
    for line in importtime.splitlines():
        if line.startswith("import time:"):
            self_us, _, module = line.removeprefix("import time:").split("|")
            if module.strip().startswith("weakmeter"):
                total_us += int(self_us)
    return total_us / 1e6


def cli_cumulative_s(importtime: str) -> float:
    """Seconds: the cumulative time of the ``weakmeter.cli`` line in ``-X importtime`` output."""
    for line in importtime.splitlines():
        if line.startswith("import time:"):
            _, cumulative_us, module = line.removeprefix("import time:").split("|")
            if module.strip() == "weakmeter.cli":
                return int(cumulative_us) / 1e6
    raise ValueError("no weakmeter.cli line in the -X importtime output")


def import_probe(tree: Path) -> tuple[float, float]:
    """weakmeter's own import self time and ``weakmeter.cli``'s cumulative time, one process."""
    command = [sys.executable, "-X", "importtime", "-c", "import weakmeter.cli"]
    importtime = subprocess.run(
        command, cwd=tree, env=dict(ENV, PYTHONPATH=str(tree / "src")), capture_output=True,
        text=True, check=True).stderr
    return weakmeter_self_s(importtime), cli_cumulative_s(importtime)


def import_probes(trees: dict) -> tuple[dict, dict]:
    """Self-time and cumulative samples, ``IMPORT_PROBES`` per side, the first side alternating."""
    self_s, cumulative_s = ({side: [] for side in SIDES} for _ in range(2))
    for index in range(IMPORT_PROBES):
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            own, cumulative = import_probe(trees[side])
            self_s[side].append(own)
            cumulative_s[side].append(cumulative)
    return self_s, cumulative_s


def compare(parent: list, change: list) -> dict:
    """Medians, quartiles, wins and ``gain`` of paired parent and change values."""
    row = {}
    for side, xs in zip(SIDES, (parent, change)):
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        row |= {f"{side}_median": round(statistics.median(xs), 6),
                f"{side}_q1": round(q1, 6), f"{side}_q3": round(q3, 6)}
    pairs = len(parent)
    wins = sum(c < p for p, c in zip(parent, change))
    gap = statistics.median(parent) - statistics.median(change)
    return row | {"change_over_parent": round(row["change_median"] / row["parent_median"], 6),
                  "change_wins": wins, "pairs": pairs,
                  "gain": wins >= 0.9 * pairs and gap > row["parent_q3"] - row["parent_q1"]}


def bounds() -> dict:
    """Each end-to-end metric's bound in ``BENCHMARK``: the largest relative worsening allowed."""
    return {metric["name"]: metric["bound"]
            for metric in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}


def within_bound(row: dict, bound: float) -> dict:
    """``row`` with its ``bound``, and whether the change's median keeps within it."""
    return row | {"bound": bound,
                  "within_bound": row["change_median"] <= row["parent_median"] * (1 + bound)}


def summary(runs: dict) -> dict:
    return {metric: compare(*([r["metrics"][metric]["value"] for r in runs[side]]
                              for side in SIDES))
            for metric in METRICS}


def call_summary(runs: dict) -> dict:
    """:func:`compare` of each call label's medians, for the labels every run prints."""
    calls = [r.get("calls", {}) for side in SIDES for r in runs[side]]
    labels = [label for label in calls[0] if all(label in c for c in calls)]
    return {label: compare(*([r["calls"][label] for r in runs[side]] for side in SIDES))
            for label in labels}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--tag", required=True, help="the file is BENCH_<tag>.json")
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="one pair per seed and workload: 1801-1810 or 1,5,9")
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", default=None, help="default: the working tree")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--note", default="", help="what the change does")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    commits = {"parent": git("rev-parse", args.parent),
               "change": git("rev-parse", args.change) if args.change
               else git("stash", "create") or git("rev-parse", "HEAD")}
    out_path = ROOT / f"BENCH_{args.tag}.json"
    metric_bounds = bounds()
    doc = {
        "tag": args.tag,
        "change": args.note,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "command": f"python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                   f"--seconds {args.seconds:g} --trace 0",
        "protocol": f"{len(args.seeds)} pairs per workload by tools/bench_pairs.py: each side "
                    "in its own git archive checkout; the side that runs first alternates "
                    "pair by pair (parent first on even pair index); pairs interleave the "
                    f"workloads; after each pair of runs, {SETUP_PROBES} fresh "
                    "'perfbench/run.py --setup-probe' processes per side, alternating in the "
                    "pair's order, into setup_probes; before the pairs, "
                    f"{IMPORT_PROBES} fresh 'python -X importtime -c \"import weakmeter.cli\"' "
                    "processes per side, the first side alternating, each the sum of the "
                    "weakmeter* self times, into import_probes, and the cumulative time of "
                    "the weakmeter.cli line, into import_cumulative_probes; quartiles by "
                    "statistics.quantiles(n=4, method='inclusive'); a win is a pair (or "
                    "alternated probe pair) whose change value is strictly lower; each entry "
                    "of runs is the last stdout line of one run, in seed order, with its "
                    "per-call median lines as calls",
        "machine": [],
        "workloads": {w: {"seeds": args.seeds, "runs": {side: [] for side in SIDES},
                          "setup_probes": {side: [] for side in SIDES}}
                      for w in args.workloads},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        trees = {side: checkout(commit, Path(scratch) / side) for side, commit in commits.items()}
        doc["import_probes"], doc["import_cumulative_probes"] = import_probes(trees)
        for series in ("import", "import_cumulative"):
            doc[f"{series}_probe_summary"] = compare(*(doc[f"{series}_probes"][side]
                                                       for side in SIDES))
        for index, seed in enumerate(args.seeds):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            for workload in args.workloads:
                entry = doc["workloads"][workload]
                for side in order:
                    result, machine = run(trees[side], workload, seed, args.seconds)
                    entry["runs"][side].append(result)
                    doc["machine"] = doc["machine"] or [
                        *machine, f"pyyaml={yaml.__version__} libyaml={yaml.__with_libyaml__} "
                        f"platform={platform.platform()}"]
                    print(f"pair {index} seed {seed} {workload} {side}: "
                          f"{json.dumps(result['metrics'])}", file=sys.stderr)
                for side, samples in setup_probes(trees, workload, seed, order).items():
                    entry["setup_probes"][side].extend(samples)
                if index:
                    entry["summary"] = {metric: within_bound(row, metric_bounds[metric])
                                        for metric, row in summary(entry["runs"]).items()}
                    entry["call_summary"] = call_summary(entry["runs"])
                entry["setup_probe_summary"] = compare(*(entry["setup_probes"][side]
                                                         for side in SIDES))
                entry["failed_operations"] = {
                    side: sum(r["failed"] for r in entry["runs"][side]) for side in SIDES}
            out_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    rows = [("all", "import_self_s", doc["import_probe_summary"]),
            ("all", "import_cli_cumulative_s", doc["import_cumulative_probe_summary"])]
    for workload, entry in doc["workloads"].items():
        rows += [(workload, metric, row) for metric, row in (
            entry["summary"] | {"setup_probe_s": entry["setup_probe_summary"]}).items()]
    for workload, metric, row in rows:
        print(f"{workload} {metric}: {row['parent_median']:g} -> {row['change_median']:g} "
              f"(parent IQR {row['parent_q3'] - row['parent_q1']:.3g}), change wins "
              f"{row['change_wins']}/{row['pairs']}, gain {row['gain']}")
    for workload, metric, row in rows:
        if not row.get("within_bound", True):
            print(f"OUTSIDE BOUND: {workload} {metric} {row['parent_median']:g} -> "
                  f"{row['change_median']:g} ({row['change_over_parent'] - 1:+.1%}, "
                  f"bound {row['bound']:+.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
