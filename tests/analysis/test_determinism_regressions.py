"""Regressions for the determinism findings the lint suite surfaced.

``repro lint`` flagged three unordered-set iterations feeding result
assembly (``sweep/vectorized.py`` x2, ``fleet/chip.py``). The fixes pin
the order with ``sorted``; these tests pin the behavior — identical
results for permuted inputs to every steady kernel, sorted key order
where the API returns a mapping — and keep the files lint-clean so the
bugs cannot return.
"""

from pathlib import Path

import pytest

from repro import obs
from repro.analysis import lint_file
from repro.sweep import ScenarioSpec

REPO = Path(__file__).resolve().parents[2]


def test_fixed_files_have_no_determinism_findings():
    for relative in (
        "src/repro/sweep/vectorized.py",
        "src/repro/sweep/evaluators.py",  # array_curves moved here
        "src/repro/fleet/chip.py",
    ):
        findings = [
            f for f in lint_file(REPO / relative, root=REPO)
            if f.code.startswith("RPL10")
        ]
        assert findings == [], [f.format() for f in findings]


def test_array_curve_batch_returns_flows_in_sorted_order():
    from repro.sweep.evaluators import array_curves, clear_array_curves

    clear_array_curves()
    try:
        flows = [90.0, 30.0, 60.0, 30.0]
        curves = array_curves(flows)
        assert list(curves) == sorted(set(flows))
    finally:
        clear_array_curves()


#: Per steady kernel: the spec field holding its power-map key, and two
#: values of it.
STEADY_KERNEL_KEYS = {
    "operating_point": ("utilization", (1.0, 0.5)),
    "workload": ("workload", ("memory bound", "full load")),
    "fleet_chip": ("utilization", (0.75, 0.25)),
}


@pytest.mark.parametrize("evaluator", sorted(STEADY_KERNEL_KEYS))
def test_steady_kernel_is_permutation_invariant(evaluator, monkeypatch):
    """Permuted and duplicated specs get identical metrics, and a batch
    over 2 inlets x 3 flows stamps conduction and factorizes once per
    inlet family."""
    from repro.sweep.evaluators import get_evaluator
    from repro.thermal.model import ThermalModel

    stamps = []
    assemble = ThermalModel._assemble

    def counting_assemble(model):
        stamps.append(model)
        return assemble(model)

    monkeypatch.setattr(ThermalModel, "_assemble", counting_assemble)

    kernel = get_evaluator(evaluator)
    field, values = STEADY_KERNEL_KEYS[evaluator]
    specs = [
        ScenarioSpec(
            evaluator=evaluator,
            total_flow_ml_min=flow,
            inlet_temperature_k=inlet,
            nx=22,
            ny=11,
            **{field: value},
        )
        for inlet in (310.15, 300.0)
        for flow in (600.0, 300.0, 450.0)
        for value in values
    ]
    obs.start()
    try:
        forward = kernel(specs)
        counters = obs.snapshot()["counters"]
    finally:
        obs.stop()
    assert counters["thermal.steady.factorizations"] == 2
    assert len(stamps) == 2

    shuffled = specs[::-1] + specs[:3]
    assert kernel(shuffled) == [forward[specs.index(s)] for s in shuffled]
