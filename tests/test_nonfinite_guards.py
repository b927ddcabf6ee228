"""Constructor guards reject NaN and infinities by field name.

A ``x <= 0`` check lets NaN through (every comparison with NaN is
false), so these guards are written ``not 0 < x < inf``. Each case
builds an otherwise valid object with one field replaced and expects a
:class:`ConfigurationError` that names that field.
"""

import pytest

from repro.casestudy.power7plus import build_array_spec
from repro.errors import ConfigurationError
from repro.fleet import FleetSpec
from repro.fleet.supply import SupplySpec
from repro.fleet.traffic import TrafficModel
from repro.flowcell.recirculation import (
    ElectrolyteReservoir,
    RecirculationLoop,
)
from repro.geometry.array import ChannelArray
from repro.geometry.channel import RectangularChannel
from repro.geometry.floorplan import Block, BlockKind, Floorplan
from repro.runtime import PIDFlowController
from repro.serve.jobs import run_job
from repro.sweep import SweepRunner

NONFINITE = [float("nan"), float("inf"), float("-inf")]


def _supply(**field):
    return SupplySpec(**{"n_chips": 4, "supply_per_chip_ml_min": 40.0,
                         **field})


def _channel(**field):
    return RectangularChannel(**{"width_m": 200e-6, "height_m": 400e-6,
                                 "length_m": 22e-3, **field})


def _block(**field):
    return Block(**{"name": "core0", "kind": BlockKind.CORE, "x_m": 0.0,
                    "y_m": 0.0, "width_m": 5e-3, "height_m": 5e-3, **field})


def _floorplan(**field):
    return Floorplan(**{"width_m": 10e-3, "height_m": 10e-3, **field})


def _coverage(die_width_m):
    return ChannelArray(_channel(), 22, 300e-6).coverage_fraction(die_width_m)


def _reservoir(volume_m3):
    return ElectrolyteReservoir(
        build_array_spec().anolyte, volume_m3, is_fuel=True
    )


def _loop_step(dt_s):
    spec = build_array_spec()
    RecirculationLoop(
        ElectrolyteReservoir(spec.anolyte, 1e-3, is_fuel=True),
        ElectrolyteReservoir(spec.catholyte, 1e-3, is_fuel=False),
    ).step(1.0, dt_s)


def _served_fleet(**params):
    return run_job("fleet", params, SweepRunner())


#: (builder, field, build): the id ``builder-field`` is stable when a
#: row is added or deleted, and unique where a field name repeats.
CASES = [
    ("supply", "min_flow_ml_min", lambda v: _supply(min_flow_ml_min=v)),
    ("supply", "max_flow_ml_min", lambda v: _supply(max_flow_ml_min=v)),
    ("supply", "resolution_ml_min",
     lambda v: _supply(resolution_ml_min=v)),
    ("channel", "width_m", lambda v: _channel(width_m=v)),
    ("channel", "height_m", lambda v: _channel(height_m=v)),
    ("channel", "length_m", lambda v: _channel(length_m=v)),
    ("block", "width_m", lambda v: _block(width_m=v)),
    ("block", "height_m", lambda v: _block(height_m=v)),
    ("floorplan", "width_m", lambda v: _floorplan(width_m=v)),
    ("floorplan", "height_m", lambda v: _floorplan(height_m=v)),
    ("coverage", "die_width_m", _coverage),
    ("reservoir", "volume_m3", _reservoir),
    ("loop", "dt_s", _loop_step),
    ("pid", "kp", lambda v: PIDFlowController(676.0, kp=v)),
    ("pid", "ki", lambda v: PIDFlowController(676.0, ki=v)),
    ("traffic", "skew", lambda v: TrafficModel(n_chips=4, skew=v)),
    ("fleet", "skew", lambda v: FleetSpec(skew=v)),
    ("fleet", "operating_voltage_v",
     lambda v: FleetSpec(operating_voltage_v=v)),
    ("fleet", "inlet_temperature_k",
     lambda v: FleetSpec(inlet_temperature_k=v)),
    ("fleet", "pump_efficiency", lambda v: FleetSpec(pump_efficiency=v)),
    ("fleet_job", "skew", lambda v: _served_fleet(skew=v)),
]


@pytest.mark.parametrize("value", NONFINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "field, build", [case[1:] for case in CASES],
    ids=[f"{builder}-{field}" for builder, field, _ in CASES],
)
def test_nonfinite_field_rejected_by_name(field, build, value):
    with pytest.raises(ConfigurationError, match=field):
        build(value)


@pytest.mark.parametrize("value", NONFINITE, ids=["nan", "inf", "-inf"])
def test_nonfinite_block_origin_rejected(value):
    with pytest.raises(ConfigurationError, match="origin"):
        _block(x_m=value)
