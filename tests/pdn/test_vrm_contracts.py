"""Contract tests for the regulator models the ``vrm`` sweep resolves.

Every name in :data:`repro.sweep.spec.VRM_NAMES` must build a regulator
the system layer can price: an efficiency in (0, 1] (1.0 when the model
has none) and a converter area linear in the delivered power.
"""

import math

import pytest

from repro.pdn.vrm import SwitchedCapacitorVRM
from repro.sweep.evaluators import build_vrm
from repro.sweep.spec import VRM_NAMES

#: Array tap voltages the ``vrm`` preset spans, from a single cell's
#: ~1.2 V loaded voltage up to a two-cell series stack.
TAP_VOLTAGES = (1.2, 1.65, 2.4, 3.3)


@pytest.mark.parametrize("input_v", TAP_VOLTAGES)
@pytest.mark.parametrize("name", VRM_NAMES)
def test_efficiency_in_unit_interval(name, input_v):
    efficiency = getattr(build_vrm(name, input_v), "efficiency", 1.0)
    assert 0.0 < efficiency <= 1.0


@pytest.mark.parametrize("name", VRM_NAMES)
def test_area_linear_in_power(name):
    vrm = build_vrm(name, 1.65)
    assert vrm.required_area_m2(0.0) == 0.0
    area = vrm.required_area_m2(7.0)
    assert area >= 0.0
    assert vrm.required_area_m2(21.0) == pytest.approx(3.0 * area)


@pytest.mark.parametrize("name", VRM_NAMES)
def test_regulates_the_one_volt_rail(name):
    assert build_vrm(name, 1.65).nominal_output_v == 1.0


@pytest.mark.parametrize("steps", range(1, 7))
def test_sc_lossless_at_each_topology_ratio(steps):
    """At a ratio the 1/6-step bank realizes exactly, only the peak
    efficiency remains."""
    vrm = SwitchedCapacitorVRM(input_v=6.0 / steps, nominal_output_v=1.0)
    assert vrm.efficiency == pytest.approx(vrm.peak_efficiency, rel=1e-12)


@pytest.mark.parametrize("input_v", TAP_VOLTAGES)
def test_sc_mismatch_loss_bounded_by_one_ratio_step(input_v):
    vrm = SwitchedCapacitorVRM(input_v=input_v, nominal_output_v=1.0)
    steps = math.ceil(vrm.conversion_ratio * vrm.ratio_granularity - 1e-12)
    floor = vrm.peak_efficiency * (steps - 1) / steps
    assert floor < vrm.efficiency <= vrm.peak_efficiency
