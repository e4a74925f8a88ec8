"""Pre/post-selected weak-measurement simulator with full pointer dynamics.

Layers, bottom up: ``hilbert`` (labeled tensor spaces and dense linear
algebra), ``meter`` (discrete Gaussian pointers), ``optics`` (named
interferometer states), ``weakvalue`` (observable catalog and weak
values), ``dynamics`` (couplings, evolution, pointer fits), ``scenario``
(declarative experiment files), ``verify`` (the built-in check suite),
``cli`` (the ``weakmeter`` command).
"""

from .dynamics import (
    CouplingSpec,
    EffectiveWeakValueFit,
    build_hamiltonian,
    evolve_dyson2,
    evolve_exact,
    fit_effective_weak_value,
    pointer_readout,
    post_select_meter,
)
from .errors import (
    AnnihilationError,
    DegeneratePostselectionError,
    IllConditionedFitError,
    NumericalOverflowError,
    ScenarioError,
    SignatureError,
    WeakmeterError,
)
from .hilbert import (
    Ket,
    Operator,
    SpaceSignature,
    extend,
    inner,
)
from .meter import (
    ContinuousMoments,
    DiscreteGaussianMeter,
    MeterReadout,
    continuous_reference,
    make_meter,
    meter_readout,
)
from .optics import named_state
from .scenario import (
    ResultRecord,
    ScenarioDoc,
    parse_scenario,
    records_to_csv,
    records_to_jsonl,
    run_scenario,
)
from .weakvalue import observable, weak_value

__version__ = "0.1.0"
