"""Non-finite inputs are rejected at the thermal layer's boundary.

``x <= 0`` style guards let NaN and inf through, which then surfaced as a
SuperLU "Factor is exactly singular" error or as a misleading ill-posed
stack message. Every guarded field must reject NaN, +inf and -inf with a
ConfigurationError that names the field.
"""

import math

import numpy as np
import pytest

from repro.casestudy.power7plus import build_thermal_model, build_thermal_stack
from repro.errors import ConfigurationError
from repro.thermal import solver
from repro.thermal.batch import AnchoredTransientSolver
from repro.thermal.model import ThermalModel
from repro.thermal.stack import MicrochannelLayer, SolidLayer


@pytest.fixture(scope="module")
def model():
    return build_thermal_model(nx=22, ny=11)


def _channel_layer(**overrides):
    channels = next(
        layer for layer in build_thermal_stack(676.0, 300.0) if layer.is_channel
    )
    fields = dict(
        name="channels", array=channels.array, fluid=channels.fluid,
        total_flow_m3_s=channels.total_flow_m3_s,
    )
    return MicrochannelLayer(**{**fields, **overrides})


def _columns(model):
    return np.zeros((model.n_dof, 2))


#: site -> (field named in the error, call with the bad value)
SITES = {
    "ThermalModel.__init__ die_length_m": ("die_length_m", lambda m, bad:
        ThermalModel(m.stack, bad, 0.01, 22, 11)),
    "ThermalModel.__init__ die_width_m": ("die_width_m", lambda m, bad:
        ThermalModel(m.stack, 0.02, bad, 22, 11)),
    "ThermalModel.warm": ("dt_s", lambda m, bad: m.warm(dt_s=bad)),
    "ThermalModel.solve_transient dt_s": ("dt_s", lambda m, bad:
        m.solve_transient(1.0, bad)),
    "ThermalModel.solve_transient duration_s": ("duration_s", lambda m, bad:
        m.solve_transient(bad, 0.1)),
    "solver.solve_transient": ("dt_s", lambda m, bad:
        solver.solve_transient(m, *m._build_system(), 1.0, bad)),
    "AnchoredTransientSolver.step_columns": ("dt_s", lambda m, bad:
        AnchoredTransientSolver(m).step_columns(
            _columns(m), _columns(m), bad
        )),
    "SolidLayer thickness_m": ("thickness_m", lambda m, bad:
        SolidLayer("si", bad)),
    "MicrochannelLayer total_flow_m3_s": ("total_flow_m3_s", lambda m, bad:
        _channel_layer(total_flow_m3_s=bad)),
    "MicrochannelLayer inlet_temperature_k": ("inlet_temperature_k",
        lambda m, bad: _channel_layer(inlet_temperature_k=bad)),
    "MicrochannelLayer heat_transfer_enhancement": (
        "heat_transfer_enhancement",
        lambda m, bad: _channel_layer(heat_transfer_enhancement=bad)),
    "MicrochannelLayer flow_weights": ("flow weights", lambda m, bad:
        _channel_layer(flow_weights=(1.0, bad))),
    "build_thermal_model total_flow_ml_min": ("total_flow_m3_s",
        lambda m, bad: build_thermal_model(
            nx=22, ny=11, total_flow_ml_min=bad
        )),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("site", sorted(SITES))
def test_non_finite_input_is_rejected_naming_the_field(model, site, bad):
    field, call = SITES[site]
    with pytest.raises(ConfigurationError, match=field):
        call(model, bad)
