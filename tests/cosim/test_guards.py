"""Non-finite inputs are rejected at the batched step-response boundary.

The old ``duration <= 0 or dt <= 0 or dt > duration`` guard let a NaN
``dt_s`` through to ``int(duration / dt)`` (a bare ValueError) and
accepted an infinite ``duration_s``. Each field must reject NaN, +inf and
-inf with a ConfigurationError that names it.
"""

import math

import pytest

from repro.cosim import CosimConfig, StepResponseCase, batched_step_responses
from repro.errors import ConfigurationError

#: field -> valid value of the other timing field
FIELDS = {"duration_s": {"dt_s": 0.05}, "dt_s": {"duration_s": 0.5}}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_non_finite_input_is_rejected_naming_the_field(field, bad):
    case = StepResponseCase(
        config=CosimConfig(nx=22, ny=11),
        utilization_before=0.5,
        utilization_after=0.9,
        **{field: bad, **FIELDS[field]},
    )
    with pytest.raises(ConfigurationError, match=field):
        batched_step_responses([case])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field", ["total_flow_ml_min", "inlet_temperature_k", "operating_voltage_v"]
)
def test_non_finite_cosim_config_is_rejected_naming_the_field(field, bad):
    with pytest.raises(ConfigurationError, match=field):
        CosimConfig(**{field: bad})
