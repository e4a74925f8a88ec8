"""The traced benchmark patches weakmeter names; they must keep resolving."""

import importlib
import importlib.util
from pathlib import Path

from weakmeter import dynamics
from weakmeter.meter import make_meter
from weakmeter.optics import named_state

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib imports only
    return module


def test_every_span_target_resolves():
    for module, attr in load_spans().TARGETS.values():
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_traced_evolve_exact_takes_the_benchmark_call():
    # the N-series calls evolve_exact(spec, pre, grid); the tracer binds the
    # call to read the coupling key from its spec, pre_system and meter
    tracer = load_spans().Tracer()
    pre = named_state("disembody_in", theta=0.5)
    spec = dynamics.CouplingSpec(variant="measure_sigma_zR_noisy", g=1e-3)
    grid = make_meter(16, 2.0)
    original = dynamics.evolve_exact
    with tracer.installed(), tracer.op("evolve"):
        joint = dynamics.evolve_exact(spec, pre, grid)
    assert joint.signature.dim == pre.signature.dim * grid.size
    _, _, calls = tracer.totals()
    assert calls["dynamics.evolve"] == 1
    assert tracer.coupling_keys == 1
    assert dynamics.evolve_exact is original
