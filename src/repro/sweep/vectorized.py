"""Batched physics behind the sweep evaluators, and their accuracy contract.

Every registered evaluator (:mod:`repro.sweep.evaluators`) is one
function over a batch of specs. The ``vectorized`` backend hands it a
whole evaluator group, the ``serial`` backend one spec at a time; the
work a wider batch shares is:

- thermal: every steady evaluator (``operating_point``, ``geometry``,
  ``workload``, ``fleet_chip``) solves its coolant points through the
  one family loop here, :func:`steady_families`. Points are grouped by
  mesh/inlet into the process's kept thermal families
  (:func:`repro.casestudy.power7plus.thermal_family`, which the step
  responses and the runtime draw from too): one case-study model that
  stamps its conduction matrix once and derives each flow's model with
  :meth:`~repro.casestudy.power7plus.ThermalFamily.at_flow`, and one
  :class:`~repro.thermal.batch.AnchoredSteadySolver` holding a single
  anchor factorization and the family's canonical Krylov space, grown
  once from a fixed training set on first steady use. Every column is
  then solved alone on a view of that space, so batches of one share
  the family with whole batches;
- electrochemistry: polarization curves for every distinct flow/geometry
  in the batch are marched together through
  :func:`repro.flowcell.batch.batched_polarization_curves` (for
  ``operating_point``/``vrm`` through one process-wide cache,
  :func:`repro.sweep.evaluators.array_curves`);
- ``transient`` marches whole step-response sweeps in lockstep through
  :func:`repro.cosim.batch.batched_step_responses` — one thermal model
  per (flow, inlet, mesh), derived from the kept family, scenario states
  stepped as columns of that model's exact backward-Euler
  factorizations;
- ``runtime`` mounts every scenario of a (trace, raster, inlet) group as
  a lane of :class:`~repro.runtime.engine.BatchedRuntimeEngine`:
  controller/governor state advances as lane vectors, reservoir SOC as
  arrays, and lanes commanding the same quantized flow share one kept
  stepping model of the family per control interval.

``cosim`` loops over its specs, but each fixed point solves on the
family's kept model of its coolant point, so specs sharing one share that
model and its exact steady LU. ``fleet`` shares nothing across a batch
yet.

Batch contract: every evaluator's metrics for a spec are the same bits
at every batch width and in every batch composition. The steady
evaluators get there because a column's answer depends only on its
family and its right-hand side; ``vrm`` (same cached curves),
``transient`` and ``runtime`` (the same steppers, whose floats feed
discontinuous decisions — flow quantization, governor hysteresis,
settling-band exits) because every state column is solved on its own,
so their batch members share no floating-point work, as do ``cosim``
and ``fleet``, which loop.
``tests/sweep/test_backends.py`` pins it, and checks every steady
evaluator against an independent default-ordering direct solve within
``EQUIVALENCE_RTOL``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.sweep.spec import ScenarioSpec

#: Documented relative agreement between the steady evaluators and a
#: direct solve. The dominant term is the anchored solver's residual
#: (<= 1e-8 relative, checked on every column); everything else is
#: floating-point round-off.
EQUIVALENCE_RTOL = 1e-6


# -- the steady family loop ------------------------------------------------------------


def steady_families(
    points: "Iterable[tuple]", rasterize: Callable,
) -> "Iterator[tuple]":
    """Steady states of ``(flow, inlet, nx, ny, key)`` points, by family.

    ``key`` names a power map, drawn by ``rasterize(nx, ny, floorplan,
    key)`` (:func:`~repro.casestudy.power7plus.full_load_power_map` with
    a utilization key, or a workload's ``power_map``). Points are grouped
    into ``(inlet, nx, ny)`` families, the process's kept
    :func:`~repro.casestudy.power7plus.thermal_family`; every flow's
    model is ``family.at_flow(flow)``, bit-identical to a freshly built
    one, solved on the family's steady solver, and a coolant point's
    keys are its RHS columns.

    Yields ``((flow, inlet, nx, ny), model, keys, maps, temperatures)``
    per coolant point: its sorted keys, their maps and the ``(n_dof,
    len(keys))`` steady states. Each column is a function of its point
    alone, so any batch holding a point solves it to the same bits.
    """
    from repro.casestudy.power7plus import thermal_family
    from repro.geometry.power7 import build_power7_floorplan

    families: "dict[tuple, dict[float, list]]" = {}
    for flow, inlet, nx, ny, key in sorted(set(points)):
        flows = families.setdefault((inlet, nx, ny), {})
        flows.setdefault(flow, []).append(key)

    floorplan = build_power7_floorplan()
    for (inlet, nx, ny), flows in families.items():
        family = thermal_family(inlet, nx, ny)
        solver = family.steady_solver
        maps = {
            key: rasterize(nx, ny, floorplan, key)
            for key in sorted(set().union(*flows.values()))
        }
        for flow, keys in flows.items():
            model = family.at_flow(flow)
            key_maps = [maps[key] for key in keys]
            temperatures = solver.solve_columns(
                model, model.rhs_columns("active_si", key_maps)
            )
            yield (flow, inlet, nx, ny), model, keys, key_maps, temperatures


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
