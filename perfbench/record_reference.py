"""Record the benchmark's reference outputs into ``reference.json``.

    python3 perfbench/record_reference.py

Covers every (theta, alpha) lattice point of both sweep scenarios, every
wide-meter pool entry and each verify check's verdict.  Run it only when a
change moves the outputs on purpose, and say why in that change.  It takes
a few minutes and about 1 GiB of memory (the N=128 parallel_1 points).
"""

from __future__ import annotations

import json
import sys

import workloads
from run import SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    from weakmeter import run_scenario, parse_scenario
    from weakmeter.verify import run_checks

    items = [workloads.sweep_item(label, workloads.THETAS, workloads.ALPHAS)
             for label in workloads.SWEEP_SCENARIOS]
    items += [workloads.wide_item(label, i) for i in range(workloads.WIDE_POOL_SIZE)
              for label in workloads.WIDE_SCENARIOS]
    points: dict = {}
    for item in items:
        records = run_scenario(parse_scenario(item.text))
        for key, record in zip(item.keys, records, strict=True):
            if record.error:
                raise SystemExit(f"{item.label} {key}: {record.error}")
            points.setdefault(item.label, {})[key] = workloads.outputs(record)
        print(f"{item.label}: {len(records)} points", file=sys.stderr)
    reference = {"verify": {r.name: r.status for r in run_checks()}, "points": points}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
