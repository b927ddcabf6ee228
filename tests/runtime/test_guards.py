"""Non-finite inputs are rejected at the runtime configuration boundary.

``x <= 0`` style guards let NaN and inf through. Every guarded field must
reject NaN, +inf and -inf with a ConfigurationError that names the field.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.runtime import RuntimeConfig

FIELDS = ("control_dt_s", "flow_resolution_ml_min")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", FIELDS)
def test_non_finite_input_is_rejected_naming_the_field(field, bad):
    with pytest.raises(ConfigurationError, match=field):
        RuntimeConfig(**{field: bad})
