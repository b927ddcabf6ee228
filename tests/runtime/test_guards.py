"""Non-finite inputs are rejected at the runtime configuration boundary.

``x <= 0`` style guards let NaN and inf through. Every guarded field must
reject NaN, +inf and -inf with a ConfigurationError that names the field.
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import (
    FixedFlow,
    PIDFlowController,
    RuntimeConfig,
    TraceSegment,
    WorkloadTrace,
)
from repro.runtime.controllers import VectorFlowControllers
from repro.runtime.state import ElectrolyteStateArray

FIELDS = ("inlet_temperature_k", "operating_voltage_v", "pump_efficiency")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", FIELDS)
def test_non_finite_input_is_rejected_naming_the_field(field, bad):
    with pytest.raises(ConfigurationError, match=field):
        RuntimeConfig(**{field: bad})


def _trace():
    return WorkloadTrace("hold", [TraceSegment(0.5, 0.5)])


#: site -> (field named in the error, call with the bad value)
SITES = {
    "FixedFlow flow_ml_min": ("flow_ml_min", lambda bad: FixedFlow(bad)),
    "PIDFlowController initial_flow_ml_min": ("initial_flow_ml_min",
        lambda bad: PIDFlowController(bad)),
    "VectorFlowControllers.flow_commands": ("dt_s", lambda bad:
        VectorFlowControllers([PIDFlowController(676.0)]).flow_commands(
            np.array([70.0]), bad
        )),
    "ElectrolyteStateArray.step": ("dt_s", lambda bad:
        ElectrolyteStateArray(2).step(np.array([1.0, 1.0]), bad)),
    "ElectrolyteStateArray.step currents_a": ("currents_a", lambda bad:
        ElectrolyteStateArray(2).step(np.array([1.0, bad]), 1.0)),
    "TraceSegment duration_s": ("duration_s", lambda bad:
        TraceSegment(bad, 0.5)),
    "TraceSegment utilization": ("utilization", lambda bad:
        TraceSegment(0.5, bad)),
    "WorkloadTrace.iter_steps": ("dt_s", lambda bad:
        list(_trace().iter_steps(bad))),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("site", sorted(SITES))
def test_non_finite_runtime_input_is_rejected_naming_the_field(site, bad):
    field, call = SITES[site]
    with pytest.raises(ConfigurationError, match=field):
        call(bad)
