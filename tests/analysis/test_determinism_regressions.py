"""Regressions for the determinism findings the lint suite surfaced.

``repro lint`` flagged three unordered-set iterations feeding result
assembly (``sweep/vectorized.py`` x2, ``fleet/chip.py``). The fixes pin
the order with ``sorted``; these tests pin the behavior — identical
results for permuted inputs, sorted key order where the API returns a
mapping — and keep the files lint-clean so the bugs cannot return.
"""

from pathlib import Path

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


def test_peak_temperature_batch_is_permutation_invariant():
    from repro.sweep.vectorized import batch_peak_temperatures

    specs = [
        ScenarioSpec(
            total_flow_ml_min=flow,
            utilization=utilization,
            nx=22,
            ny=11,
        )
        for flow, utilization in (
            (400.0, 1.0), (500.0, 1.0), (400.0, 0.5), (600.0, 0.75),
        )
    ]
    forward = batch_peak_temperatures(specs)
    backward = batch_peak_temperatures(list(reversed(specs)))
    assert forward == backward
    assert set(forward) == {
        (s.total_flow_ml_min, s.inlet_temperature_k, s.utilization,
         s.nx, s.ny)
        for s in specs
    }
