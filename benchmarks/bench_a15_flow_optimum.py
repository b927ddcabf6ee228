"""Ablation A15 — the paper's design question: the optimal flow rate.

The paper runs its case study at the Table II nominal 676 ml/min, where
net energy gain is ~+1.6 W, and separately stresses a 48 ml/min low-flow
point that pushes the junction toward the thermal limit. Between those two
sits the actual design optimum: generation is nearly flat in flow while
pumping power grows quadratically, so net gain rises monotonically as flow
drops — until the 85 C junction limit bites. The optimum is therefore the
*lowest thermally feasible flow*, and this bench asserts the
``flow-optimum`` preset of :mod:`repro.opt` finds exactly that regime:

- the optimum lies well below the nominal flow but above the infeasible
  48 ml/min stress point;
- the thermal constraint is active (peak within a few kelvin of 85 C) and
  satisfied;
- net gain at the optimum beats the paper's nominal operating point by a
  wide margin;
- re-running the search against the warm cache performs **zero** new
  evaluations (the refinement path is a pure function of the problem).
"""

import pytest

from benchmarks.conftest import artifact, emit
from repro.core.report import format_table
from repro.opt import get_preset
from repro.store import ResultStore
from repro.sweep import ScenarioSpec, SweepRunner
from repro.sweep.evaluators import TEMPERATURE_LIMIT_C, evaluate_spec

#: Table II nominal coolant flow [ml/min] — the paper's operating point.
NOMINAL_FLOW_ML_MIN = 676.0

#: The paper's low-flow stress case [ml/min]; above the 85 C limit at
#: full load, so the optimizer must not select it.
STRESS_FLOW_ML_MIN = 48.0


def test_a15_flow_optimum(benchmark):
    cache = ResultStore()
    preset = get_preset("flow-optimum")

    def optimize():
        return preset.optimizer(runner=SweepRunner(cache=cache)).run()

    result = benchmark.pedantic(optimize, rounds=1, iterations=1)

    best = result.best
    assert best is not None
    flow_opt = best.spec.total_flow_ml_min
    nominal = evaluate_spec(
        ScenarioSpec(
            evaluator="operating_point",
            total_flow_ml_min=NOMINAL_FLOW_ML_MIN,
        )
    )
    emit(
        "A15 — constrained net-power optimum over total flow",
        format_table(
            ["operating point", "flow [ml/min]", "net [W]", "peak T [C]"],
            [
                ["optimizer", flow_opt, best.metrics["net_w"],
                 best.metrics["peak_temperature_c"]],
                ["paper nominal", NOMINAL_FLOW_ML_MIN, nominal["net_w"],
                 nominal["peak_temperature_c"]],
            ],
        ) + "\n" + format_table(
            ["round", "bounds [ml/min]", "evaluated", "front"],
            [
                [r.index,
                 f"[{r.spans[0][1]:.1f}, {r.spans[0][2]:.1f}]",
                 r.n_evaluated, r.front_size]
                for r in result.rounds
            ],
        ),
    )

    artifact("A15", {
        "flow_optimum_ml_min": flow_opt,
        "net_at_optimum_w": best.metrics["net_w"],
        "peak_at_optimum_c": best.metrics["peak_temperature_c"],
        "net_at_nominal_w": nominal["net_w"],
    })
    # The optimum sits in the paper's low-flow regime: far below nominal,
    # strictly above the thermally infeasible 48 ml/min stress point.
    assert STRESS_FLOW_ML_MIN < flow_opt < NOMINAL_FLOW_ML_MIN / 4.0
    # The junction constraint is satisfied and active: the optimizer
    # pushed flow down until thermal headroom ran out.
    assert best.metrics["peak_temperature_c"] <= TEMPERATURE_LIMIT_C
    assert best.metrics["peak_temperature_c"] > TEMPERATURE_LIMIT_C - 5.0
    # Demand is still met and the net gain dwarfs the nominal point's.
    assert best.metrics["delivered_w"] >= 5.0
    assert best.metrics["net_w"] > 4.0 * max(nominal["net_w"], 0.0)
    assert best.metrics["net_w"] > 6.0
    # The refinement actually refined: converged within budget, with the
    # final flow bounds a small fraction of the original span.
    assert result.converged
    lo, hi = result.final_spans["total_flow_ml_min"]
    assert (hi - lo) < 0.05 * (1352.0 - 48.0)

    # Replay: the search is deterministic, so the warm cache answers
    # every round and no evaluator runs again.
    replay = preset.optimizer(runner=SweepRunner(cache=cache)).run()
    assert replay.n_evaluated == 0
    assert replay.n_cached > 0
    # The stats() accounting agrees: the replay added no misses and the
    # in-memory cache never saw a corrupt entry.
    assert cache.stats()["misses"] == cache.misses
    assert cache.stats()["corrupt"] == 0
    assert replay.best.spec.cache_key() == best.spec.cache_key()
    assert replay.best.metrics == pytest.approx(best.metrics)
