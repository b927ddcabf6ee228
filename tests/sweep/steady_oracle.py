"""Independent steady oracle for the steady sweep evaluators.

The evaluators ``operating_point``, ``geometry``, ``workload`` and
``fleet_chip`` solve their coolant points through
:func:`repro.sweep.vectorized.steady_families`: one conduction stamp per
family, flows derived with ``at_flow``, one anchored factorization and a
shared Krylov space. This oracle shares none of that. It builds a fresh
case-study model per scenario and solves it with
:meth:`~repro.thermal.model.ThermalModel.solve_steady`, the
default-ordering direct LU that the co-simulation, the system facade and
the runtime engine use.
"""

from repro.casestudy.power7plus import build_thermal_model
from repro.casestudy.workloads import standard_workloads
from repro.geometry.power7 import build_power7_floorplan
from repro.sweep.spec import ScenarioSpec

#: The evaluators whose metrics derive from one steady thermal state.
STEADY_EVALUATORS = ("fleet_chip", "geometry", "operating_point", "workload")


def direct_steady_state(spec: ScenarioSpec):
    """``(model, solution)`` of one spec, built and solved from scratch.

    The power map is the named workload's for ``workload`` specs and the
    full-load map at ``spec.utilization`` otherwise.
    """
    floorplan = build_power7_floorplan()
    model = build_thermal_model(
        nx=spec.nx,
        ny=spec.ny,
        total_flow_ml_min=spec.total_flow_ml_min,
        inlet_temperature_k=spec.inlet_temperature_k,
        utilization=spec.utilization,
        floorplan=floorplan,
    )
    if spec.evaluator == "workload":
        workload = {w.name: w for w in standard_workloads()}[spec.workload]
        model.set_power_map(
            "active_si", workload.power_map(spec.nx, spec.ny, floorplan)
        )
    return model, model.solve_steady()


def steady_oracle_metrics(spec: ScenarioSpec) -> "dict[str, float]":
    """The metrics of ``spec`` that its steady state determines, from the
    direct solve.

    ``operating_point`` and ``geometry``: the peak (their electrical
    metrics come from polarization curves, not from the thermal state).
    ``workload`` and ``fleet_chip``: every metric, assembled from the
    direct solution by the evaluators' own per-spec formulas.
    """
    from repro.fleet.chip import _sample_chips, chip_metrics
    from repro.sweep.evaluators import cosim_config, workload_metrics

    model, solution = direct_steady_state(spec)
    if spec.evaluator == "workload":
        return workload_metrics(model, solution)
    if spec.evaluator == "fleet_chip":
        (metrics,) = chip_metrics([spec], *_sample_chips(
            model, solution.temperatures_k[:, None], cosim_config(spec)
        ))
        return metrics
    return {"peak_temperature_c": solution.peak_celsius}
