"""Observability must not perturb the numerics.

The GMRES iteration counter in ``repro.thermal.batch`` is a scipy
callback, and scipy's default ``callback_type`` ("legacy") silently
changes the meaning of ``maxiter`` — attaching a counter could change
convergence. The solver therefore pins ``callback_type="pr_norm"`` and
attaches the callback only while a session records; this suite asserts
the property that design exists to protect: anchored steady solves are
**bitwise identical** with observability on and off — over a family long
enough that later flows take the snapshot-projection path too.
"""

import numpy as np

from repro import obs
from repro.casestudy.power7plus import build_thermal_model
from repro.sweep.vectorized import _middle_out
from repro.thermal.batch import AnchoredSteadySolver

#: Neighbouring flows, middle-out: the first solve anchors, early
#: neighbours ride the anchor's preconditioned GMRES path (the one with
#: the optional callback), and later ones project onto the basis those
#: solves built.
FLOWS = _middle_out(sorted(np.geomspace(300.0, 900.0, 12).tolist()))


def _solve_family():
    solver = AnchoredSteadySolver()
    return [
        solver.solve(
            build_thermal_model(nx=22, ny=11, total_flow_ml_min=flow)
        ).temperatures_k
        for flow in FLOWS
    ]


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
    # The instrumented run exercised the GMRES path it claims to count.
    assert counters["thermal.steady.factorizations"] == 1
    assert counters["thermal.steady.anchored_solves"] == len(FLOWS) - 1
    assert counters["thermal.steady.projected_solves"] >= 1
    assert counters["thermal.gmres.iterations"] >= 1
    assert counters["thermal.steady.reanchors"] == 0
