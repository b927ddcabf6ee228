"""Named optimization presets: the paper's design questions, ready to run.

Each preset packages an :class:`~repro.opt.refine.OptimizationProblem`
with its refinement budget, so ``python -m repro optimize flow-optimum``
answers the headline question of the paper with no further configuration:

- ``flow-optimum``   — the single-objective search for the flow rate that
  maximizes net power gain (generation minus pumping) while the junction
  stays under 85 C and the cache's 5 W demand is met. The paper operates
  at 676 ml/min for thermal margin; the net-power optimum sits far below
  it, pinned by the thermal constraint (bench A15 asserts the regime).
- ``geometry-pareto`` — the two-objective channel-width x flow search:
  maximize net power *and* minimize peak temperature at fixed array
  footprint. Returns the frontier of non-dominated designs rather than a
  single point.
- ``vrm-tradeoff``   — delivered power vs converter die area across the
  realizable regulator technologies (switched-capacitor, buck) and the
  array tap voltage. The ideal VRM is excluded: it has zero area and
  would trivially dominate the frontier.
- ``runtime-pid``    — controller-gain tuning for the closed-loop
  runtime engine: maximize net energy over the bursty trace across the
  PID's proportional/integral gains, subject to the 85 C junction limit
  over the whole trajectory. Every candidate runs the full trace
  through the ``runtime`` evaluator, so tuned gains land in the same
  cache the runtime sweeps use — and with
  ``optimizer(runner=SweepRunner(backend="vectorized"))`` each
  refinement round's gain grid marches as lanes of one batched runtime
  engine.
- ``fleet-allocation`` — rack-scale supply sizing: maximize fleet net
  energy over allocation policy x per-chip pump budget, subject to the
  85 C worst-chip junction limit over the whole traffic schedule. Every
  candidate rolls an entire shared-supply fleet through the ``fleet``
  evaluator; the chip tables memoize through the shared fleet runner,
  so refinement rounds only pay for the fleet roll-ups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.opt.objective import Constraint, Objective
from repro.opt.refine import (
    CategoricalAxis,
    ContinuousAxis,
    OptimizationProblem,
    Optimizer,
)
# The flow range and the feasibility limits are shared with the sweep
# presets/evaluators, so the optimizer and the benches agree by
# construction on what "feasible" means.
from repro.sweep.evaluators import CACHE_DEMAND_W, TEMPERATURE_LIMIT_C
from repro.sweep.presets import FLOW_RANGE_ML_MIN
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import ScenarioSpec


@dataclass(frozen=True)
class OptimizationPreset:
    """A named, self-contained optimization study."""

    name: str
    description: str
    problem: OptimizationProblem
    max_rounds: int = 5
    tolerance: float = 0.05

    def optimizer(
        self,
        runner: "SweepRunner | None" = None,
        max_rounds: "int | None" = None,
    ) -> Optimizer:
        """An :class:`~repro.opt.refine.Optimizer` for this study.

        ``runner`` lets callers share a cache and pick a backend across
        presets — ``runner=SweepRunner(backend="vectorized")`` evaluates
        each refinement round through the batched sweep kernels, which
        pays off for the trajectory-valued studies (``runtime-pid``
        candidates march as lanes of one
        :class:`~repro.runtime.engine.BatchedRuntimeEngine` per round
        instead of one scalar trace each); ``max_rounds`` overrides the
        preset's budget.
        """
        return Optimizer(
            self.problem,
            runner=runner,
            max_rounds=self.max_rounds if max_rounds is None else max_rounds,
            tolerance=self.tolerance,
        )


PRESETS: "dict[str, OptimizationPreset]" = {
    preset.name: preset
    for preset in (
        OptimizationPreset(
            name="flow-optimum",
            description="flow rate maximizing net power under the 85 C "
            "junction and 5 W demand limits",
            problem=OptimizationProblem(
                base=ScenarioSpec(evaluator="operating_point"),
                axes=(
                    ContinuousAxis(
                        "total_flow_ml_min",
                        *FLOW_RANGE_ML_MIN,
                        points=9,
                        scale="log",
                    ),
                ),
                objectives=(Objective("net_w", "max"),),
                constraints=(
                    Constraint(
                        "peak_temperature_c", TEMPERATURE_LIMIT_C, "<="
                    ),
                    Constraint("delivered_w", CACHE_DEMAND_W, ">="),
                ),
            ),
            max_rounds=5,
            tolerance=0.02,
        ),
        OptimizationPreset(
            name="geometry-pareto",
            description="net power vs peak temperature over channel "
            "width x flow at fixed footprint",
            problem=OptimizationProblem(
                base=ScenarioSpec(
                    evaluator="geometry", wall_width_um=100.0
                ),
                axes=(
                    ContinuousAxis(
                        "channel_width_um", 100.0, 400.0, points=5
                    ),
                    ContinuousAxis(
                        "total_flow_ml_min",
                        *FLOW_RANGE_ML_MIN,
                        points=5,
                        scale="log",
                    ),
                ),
                objectives=(
                    Objective("net_w", "max"),
                    Objective("peak_temperature_c", "min"),
                ),
                constraints=(
                    Constraint("generated_w", CACHE_DEMAND_W, ">="),
                ),
            ),
            max_rounds=3,
        ),
        OptimizationPreset(
            name="vrm-tradeoff",
            description="delivered power vs converter area across "
            "regulator technology and tap voltage",
            problem=OptimizationProblem(
                base=ScenarioSpec(evaluator="vrm"),
                axes=(
                    CategoricalAxis("vrm", ("sc", "buck")),
                    ContinuousAxis(
                        "operating_voltage_v", 1.0, 1.4, points=5
                    ),
                ),
                objectives=(
                    Objective("delivered_w", "max"),
                    Objective("converter_area_mm2", "min"),
                ),
            ),
            max_rounds=3,
        ),
        OptimizationPreset(
            name="runtime-pid",
            description="PID flow-controller gains maximizing net energy "
            "over the bursty trace under the 85 C limit",
            problem=OptimizationProblem(
                base=ScenarioSpec(
                    evaluator="runtime",
                    trace="bursty",
                    controller="pid",
                    nx=22,
                    ny=11,
                ),
                axes=(
                    ContinuousAxis(
                        "pid_kp", 5.0, 160.0, points=3, scale="log"
                    ),
                    ContinuousAxis(
                        "pid_ki", 10.0, 320.0, points=3, scale="log"
                    ),
                ),
                objectives=(Objective("net_energy_j", "max"),),
                constraints=(
                    Constraint(
                        "peak_temperature_c", TEMPERATURE_LIMIT_C, "<="
                    ),
                ),
            ),
            max_rounds=2,
            tolerance=0.1,
        ),
        OptimizationPreset(
            name="fleet-allocation",
            description="allocation policy x per-chip pump budget "
            "maximizing fleet net energy under the 85 C worst-chip limit",
            problem=OptimizationProblem(
                base=ScenarioSpec(
                    evaluator="fleet",
                    trace="diurnal-bursty",
                    nx=22,
                    ny=11,
                ),
                axes=(
                    CategoricalAxis(
                        "fleet_policy",
                        ("greedy", "proportional", "uniform"),
                    ),
                    # Budget axis inside the valve band (16..96 ml/min),
                    # straddling the fleet optimum the bench pins down.
                    ContinuousAxis(
                        "supply_per_chip_ml_min", 32.0, 56.0, points=4
                    ),
                ),
                objectives=(Objective("total_net_energy_j", "max"),),
                constraints=(
                    Constraint(
                        "worst_peak_temperature_c",
                        TEMPERATURE_LIMIT_C,
                        "<=",
                    ),
                ),
            ),
            max_rounds=2,
            tolerance=0.1,
        ),
    )
}


def preset_names() -> "tuple[str, ...]":
    """Available optimization preset names, sorted."""
    return tuple(sorted(PRESETS))


def get_preset(name: str) -> OptimizationPreset:
    """Look up a preset; raises with the available names listed."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown optimization preset {name!r}; available: "
            f"{preset_names()}"
        ) from None
