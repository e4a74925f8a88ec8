"""In-memory spans around weakmeter's public calls, for the traced run.

The tracer wraps functions from outside the package.  ``from .x import f``
binds a separate name in each importing module, so a wrapper replaces the
function under every name any ``weakmeter`` module binds it to, and the
originals come back when the ``installed()`` block ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module, function) of the public call it times
TARGETS = {
    "dynamics.build": ("weakmeter.dynamics", "build_hamiltonian"),
    "dynamics.evolve": ("weakmeter.dynamics", "evolve_exact"),
    "dynamics.dyson": ("weakmeter.dynamics", "evolve_dyson2"),
    "dynamics.post_select": ("weakmeter.dynamics", "post_select_meter"),
    "dynamics.fit": ("weakmeter.dynamics", "fit_effective_weak_value"),
    "meter.make_meter": ("weakmeter.meter", "make_meter"),
    "meter.readout": ("weakmeter.meter", "meter_readout"),
    "scenario.parse": ("weakmeter.scenario", "parse_scenario"),
    "scenario.override": ("weakmeter.scenario", "apply_override"),
    "scenario.run": ("weakmeter.scenario", "run_scenario"),
    "optics.named_state": ("weakmeter.optics", "named_state"),
    "weakvalue.observable": ("weakmeter.weakvalue", "observable"),
    "weakvalue.weak_value": ("weakmeter.weakvalue", "weak_value"),
    "hilbert.extend": ("weakmeter.hilbert", "extend"),
}


class Tracer:
    """Spans ``[name, parent index, start, end]`` plus counts taken at the same calls.

    Computed counts: ``dense_bytes`` sums the array sizes of the joint
    operators ``build_hamiltonian`` returns (dim^2 x 16 B each), and
    ``coupling_keys`` counts distinct (coupling, meter, system space) keys
    of ``evolve_exact`` within each op.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_keys: set = set()
        self.coupling_keys = 0
        self.dense_bytes = 0
        self.joint_dim_max = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter(), None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = time.perf_counter()

    @contextmanager
    def op(self, name: str = "op"):
        """Root span of one workload call; coupling keys are counted per op."""
        with self.span(name):
            yield
        self.coupling_keys += len(self._op_keys)
        self._op_keys.clear()

    def _wrap(self, name: str, fn):
        bind = inspect.signature(fn).bind

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "dynamics.evolve":
                arg = bind(*args, **kwargs).arguments
                meter, pre = arg["meter"], arg["pre_system"]
                self._op_keys.add((arg["spec"], meter.half_width, meter.width, pre.signature))
            elif name == "dynamics.build":
                self.dense_bytes += sum(op.matrix.nbytes for op in result)
                self.joint_dim_max = max(self.joint_dim_max, result[0].matrix.shape[0])
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every weakmeter binding of each target, and the verify checks."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "weakmeter" or name.startswith("weakmeter.")]
        restore = []
        for span_name, (module, attr) in TARGETS.items():
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        checks = importlib.import_module("weakmeter.verify").CHECKS
        saved_checks = dict(checks)
        for check, fn in saved_checks.items():
            checks[check] = self._wrap(f"verify.{check}", fn)
        try:
            yield self
        finally:
            checks.update(saved_checks)
            for mod, key, original in restore:
                setattr(mod, key, original)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: (inclusive seconds, self seconds, calls)."""
        child = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for index, (name, _, start, end) in enumerate(self.spans):
            total[name] += end - start
            self_s[name] += end - start - child[index]
            calls[name] += 1
        return total, self_s, calls
