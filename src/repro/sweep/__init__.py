"""Batch scenario-sweep engine.

Declarative design-space exploration over the integrated system: a
:class:`ScenarioSpec` names one operating point, a :class:`SweepGrid`
expands parameter axes into scenario batches, and a :class:`SweepRunner`
evaluates them — deduplicated, memoized in a
:class:`~repro.store.ResultStore`, in batches per evaluator (or batches
of one) — into :class:`SweepResult` records that
export to CSV/JSON through :mod:`repro.io`.

Typical use::

    from repro.sweep import ScenarioSpec, SweepGrid, SweepRunner

    grid = SweepGrid.from_dict({"total_flow_ml_min": [48.0, 338.0, 676.0]})
    results = SweepRunner().run(grid.expand(ScenarioSpec()))
    print(results.table())

or, from the shell, ``python -m repro sweep flow --points 100``
(``python -m repro sweep --list`` prints the available presets).

:mod:`repro.opt` layers design-space *optimization* on this engine:
objectives/constraints over the evaluator metrics, Pareto-front
extraction, and adaptive grid refinement — every candidate it evaluates
flows through :class:`SweepRunner` and lands in the same cache.
"""

from repro.sweep.backends import (
    BACKEND_NAMES,
    EvaluationBackend,
    SerialBackend,
    VectorizedBackend,
    get_backend,
)
from repro.sweep.evaluators import (
    evaluate_spec,
    evaluator_names,
    get_evaluator,
    register_evaluator,
)
from repro.sweep.presets import (
    PRESETS,
    SweepPreset,
    get_preset,
    preset_names,
)
from repro.sweep.runner import (
    SweepResult,
    SweepResults,
    SweepRunner,
)
from repro.sweep.spec import ScenarioSpec, SweepGrid

__all__ = [
    "BACKEND_NAMES",
    "EvaluationBackend",
    "PRESETS",
    "ScenarioSpec",
    "SerialBackend",
    "SweepGrid",
    "SweepPreset",
    "SweepResult",
    "SweepResults",
    "SweepRunner",
    "VectorizedBackend",
    "get_backend",
    "evaluate_spec",
    "evaluator_names",
    "get_evaluator",
    "get_preset",
    "preset_names",
    "register_evaluator",
]
