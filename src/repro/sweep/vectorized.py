"""Batched physics behind the sweep evaluators, and their accuracy contract.

Every registered evaluator (:mod:`repro.sweep.evaluators`) is one
function over a batch of specs. The ``vectorized`` backend hands it a
whole evaluator group, the ``serial`` backend one spec at a time; the
work a wider batch shares is:

- thermal: every steady evaluator (``operating_point``, ``geometry``,
  ``workload``, ``fleet_chip``) solves its coolant points through the
  one family loop here, :func:`steady_families`. Points are grouped by
  mesh/inlet; within a group one
  :class:`~repro.thermal.batch.AnchoredSteadySolver` factorizes a single
  anchor flow and answers every other flow from one Krylov space shared
  by the whole flow family (the matrix is affine in flow), and
  utilization/workload variants of one flow are stacked right-hand-side
  columns. A family stamps its conduction matrix once and derives each
  flow's model with :meth:`~repro.thermal.model.ThermalModel.at_flow`.
  A batch of one factorizes its one flow and solves it directly;
- electrochemistry: polarization curves for every distinct flow/geometry
  in the batch are marched together through
  :func:`repro.flowcell.batch.batched_polarization_curves` (for
  ``operating_point``/``vrm`` through one process-wide cache,
  :func:`repro.sweep.evaluators.array_curves`);
- ``transient`` marches whole step-response sweeps in lockstep through
  :func:`repro.cosim.batch.batched_step_responses` — one thermal model
  per (flow, inlet, mesh) family, scenario states stacked as multi-RHS
  columns of the family's exact backward-Euler factorizations;
- ``runtime`` mounts every scenario of a (trace, raster, inlet) group as
  a lane of :class:`~repro.runtime.engine.BatchedRuntimeEngine`:
  controller/governor state advances as lane vectors, reservoir SOC as
  arrays, and lanes commanding the same quantized flow share one
  multi-column thermal step per control interval.

``cosim`` and ``fleet`` share nothing across a batch yet.

Equivalence contract: an evaluator's metrics for a spec agree across
batch compositions within ``EQUIVALENCE_RTOL``, which is the anchored
solver's residual bound of the steady thermal evaluators (orders of
magnitude tighter in practice). ``vrm`` (same cached curves),
``transient`` and ``runtime`` (the same steppers, whose floats feed
discontinuous decisions — flow quantization, governor hysteresis,
settling-band exits) are bit-identical at every batch width, as are
``cosim`` and ``fleet``, which loop. ``tests/sweep/test_backends.py``
pins both, and checks every steady evaluator against an independent
default-ordering direct solve. The steady evaluators register with
``batch_exact=False``, so a :class:`~repro.sweep.runner.SweepRunner`
solves such a result that its store evicted again in the batch it first
solved it in: a replay keeps its bytes whatever the store evicted.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.sweep.spec import ScenarioSpec

#: Documented relative agreement between batch compositions, and between
#: the steady evaluators and a direct solve. The dominant term is the
#: anchored solver's residual (<= 1e-8 relative, checked on every
#: column); everything else is floating-point round-off.
EQUIVALENCE_RTOL = 1e-6


# -- the steady family loop ------------------------------------------------------------


def steady_families(
    points: "Iterable[tuple]", rasterize: Callable,
) -> "Iterator[tuple]":
    """Steady states of ``(flow, inlet, nx, ny, key)`` points, by family.

    ``key`` names a power map, drawn by ``rasterize(nx, ny, floorplan,
    key)`` (:func:`~repro.casestudy.power7plus.full_load_power_map` with
    a utilization key, or a workload's ``power_map``). Points are grouped
    into ``(inlet, nx, ny)`` families, each one case-study model that
    stamps conduction once; every flow's model is ``family.at_flow(q)``,
    bit-identical to a freshly built one. Each family rasterizes every
    key once and solves its flows middle-out through one
    :class:`~repro.thermal.batch.AnchoredSteadySolver` (one factorization
    and one Krylov space), a coolant point's keys as stacked RHS columns.

    Yields ``((flow, inlet, nx, ny), model, keys, maps, temperatures)``
    per coolant point: its sorted keys, their maps and the ``(n_dof,
    len(keys))`` steady states. The order depends only on the set of
    points, so permuted or duplicated batches solve identically.
    """
    from repro.casestudy.power7plus import build_thermal_stack
    from repro.geometry.power7 import build_power7_floorplan
    from repro.thermal.batch import AnchoredSteadySolver
    from repro.thermal.model import ThermalModel
    from repro.units import m3s_from_ml_per_min

    families: "dict[tuple, dict[float, list]]" = {}
    for flow, inlet, nx, ny, key in sorted(set(points)):
        flows = families.setdefault((inlet, nx, ny), {})
        flows.setdefault(flow, []).append(key)

    floorplan = build_power7_floorplan()
    for (inlet, nx, ny), flows in families.items():
        family = ThermalModel(
            build_thermal_stack(inlet_temperature_k=inlet),
            floorplan.width_m, floorplan.height_m, nx, ny,
        )
        solver = AnchoredSteadySolver(family)
        maps = {
            key: rasterize(nx, ny, floorplan, key)
            for key in sorted(set().union(*flows.values()))
        }
        for flow in _middle_out(list(flows)):
            model = family.at_flow(m3s_from_ml_per_min(flow))
            keys = flows[flow]
            key_maps = [maps[key] for key in keys]
            temperatures = solver.solve_columns(
                model, model.rhs_columns("active_si", key_maps)
            )
            yield (flow, inlet, nx, ny), model, keys, key_maps, temperatures


def _middle_out(values: "list[float]") -> "list[float]":
    """Middle element first, then the rest in order.

    The first solve becomes the anchored solver's factorization; starting
    from the middle of the (sorted) flow range keeps every other flow as
    close to the anchor as the batch allows.
    """
    if len(values) < 3:
        return values
    middle = len(values) // 2
    return [values[middle]] + values[:middle] + values[middle + 1:]


def coolant_point(spec: ScenarioSpec, key) -> tuple:
    """The ``(flow, inlet, nx, ny, key)`` point of a spec's steady state."""
    return (
        spec.total_flow_ml_min, spec.inlet_temperature_k, spec.nx, spec.ny,
        key,
    )


def batch_peak_temperatures(
    specs: "Sequence[ScenarioSpec]",
) -> "dict[tuple, float]":
    """Full-load steady peak [degC] for every distinct coolant point.

    Returns ``{(flow, inlet, nx, ny, utilization): peak_c}`` covering the
    batch, solved through :func:`steady_families` with utilization keys.
    """
    from repro.casestudy.power7plus import full_load_power_map
    from repro.units import celsius_from_kelvin

    peaks: "dict[tuple, float]" = {}
    for point, _, utilizations, _, temperatures in steady_families(
        [coolant_point(spec, spec.utilization) for spec in specs],
        full_load_power_map,
    ):
        for k, utilization in enumerate(utilizations):
            peaks[(*point, utilization)] = celsius_from_kelvin(
                float(temperatures[:, k].max())
            )
    return peaks
