"""Observability must not perturb the numerics.

The anchored steady solver counts its Krylov steps, anchored and
projected solves while a session records; counting must never feed back
into what the solver computes. This suite asserts it: anchored steady
solves are **bitwise identical** with observability on and off — over a
training set that grows the Krylov space, and a family of flows between
the training flows that the space answers.
"""

import numpy as np

from repro import obs
from repro.casestudy.power7plus import build_thermal_stack, full_load_power_map
from repro.geometry.power7 import build_power7_floorplan
from repro.thermal.batch import AnchoredSteadySolver
from repro.thermal.model import ThermalModel
from repro.units import m3s_from_ml_per_min

#: Training flows: the middle one anchors, the others grow the space.
TRAINING = np.geomspace(48.0, 1352.0, 8).tolist()

#: Flows between the training flows, answered by the space.
FLOWS = np.geomspace(300.0, 900.0, 12).tolist()


def _solve_family():
    floorplan = build_power7_floorplan()
    family = ThermalModel(
        build_thermal_stack(), floorplan.width_m, floorplan.height_m, 22, 11,
    )
    power = full_load_power_map(22, 11, floorplan)

    def at_flow(flow):
        model = family.at_flow(m3s_from_ml_per_min(flow))
        model.set_power_map("active_si", power)
        return model

    solver = AnchoredSteadySolver(family, [at_flow(q) for q in TRAINING])
    return [solver.solve(at_flow(flow)).temperatures_k for flow in FLOWS]


def test_observed_solves_match_disabled_bitwise():
    obs.stop()
    baseline = _solve_family()
    obs.start()
    try:
        observed = _solve_family()
        counters = obs.snapshot()["counters"]
    finally:
        obs.stop()
    for disabled, enabled in zip(baseline, observed):
        assert np.array_equal(disabled, enabled)
    # The instrumented run exercised the Krylov steps it claims to count.
    assert counters["thermal.steady.factorizations"] == 1
    assert counters["thermal.steady.anchored_solves"] == len(FLOWS)
    assert counters["thermal.steady.projected_solves"] >= 1
    assert counters["thermal.gmres.iterations"] >= 1
    assert counters["thermal.steady.reanchors"] == 0
