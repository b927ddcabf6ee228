"""Design-space optimization over the sweep engine.

Where :mod:`repro.sweep` evaluates the scenarios it is given, this package
decides *which* scenarios to evaluate: declare objectives and constraints
over evaluator metrics, and an adaptive refinement loop (coarse grid ->
zoom on the non-dominated region -> converge) finds optima and Pareto
frontiers. Every evaluation still flows through
:class:`~repro.sweep.runner.SweepRunner`, so memoization and the choice
of backend carry over — a re-run against a warm cache replays the search
with zero new evaluations.

Typical use::

    from repro.opt import (
        Constraint, ContinuousAxis, Objective, OptimizationProblem,
        Optimizer,
    )
    from repro.sweep import ScenarioSpec

    problem = OptimizationProblem(
        base=ScenarioSpec(evaluator="operating_point"),
        axes=(ContinuousAxis("total_flow_ml_min", 48.0, 1352.0,
                             points=9, scale="log"),),
        objectives=(Objective("net_w", "max"),),
        constraints=(Constraint("peak_temperature_c", 85.0, "<="),),
    )
    result = Optimizer(problem).run()
    print(result.best.spec.total_flow_ml_min, result.best.metrics["net_w"])

or, from the shell, ``python -m repro optimize flow-optimum``. See
``docs/optimization.md`` for the full guide.
"""

from repro.opt.objective import Constraint, Objective
from repro.opt.pareto import (
    dominates,
    feasible_results,
    objective_vector,
    pareto_front,
    pareto_indices,
)
from repro.opt.presets import (
    PRESETS,
    OptimizationPreset,
    get_preset,
    preset_names,
)
from repro.opt.refine import (
    CategoricalAxis,
    ContinuousAxis,
    OptimizationProblem,
    OptimizationResult,
    Optimizer,
    RefinementRound,
)

__all__ = [
    "PRESETS",
    "CategoricalAxis",
    "Constraint",
    "ContinuousAxis",
    "Objective",
    "OptimizationPreset",
    "OptimizationProblem",
    "OptimizationResult",
    "Optimizer",
    "RefinementRound",
    "dominates",
    "feasible_results",
    "get_preset",
    "objective_vector",
    "pareto_front",
    "pareto_indices",
    "preset_names",
]
