"""Non-finite inputs are rejected at the flow-cell layer's boundary.

``x <= 0`` style guards let NaN and inf through: a NaN flow rate built a
cell spec whose every curve was NaN. Every guarded field must reject NaN,
+inf and -inf with a ConfigurationError that names the field.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.flowcell.cell import ElectrodeCharacteristic, assemble_polarization


def _electrodes():
    negative = ElectrodeCharacteristic([-1.3, -0.3, 0.7], [-10.0, 0.0, 10.0])
    positive = ElectrodeCharacteristic([0.2, 1.2, 2.2], [-10.0, 0.0, 10.0])
    return negative, positive


#: site -> (field named in the error, call with the bad value)
SITES = {
    "ColaminarCellSpec volumetric_flow_m3_s": ("volumetric_flow_m3_s",
        lambda spec, bad: spec.__class__(
            spec.channel, spec.anolyte, spec.catholyte, bad
        )),
    "ColaminarCellSpec electronic_resistance_ohm": (
        "electronic_resistance_ohm",
        lambda spec, bad: spec.__class__(
            spec.channel, spec.anolyte, spec.catholyte,
            spec.volumetric_flow_m3_s, electronic_resistance_ohm=bad,
        )),
    "assemble_polarization resistance_ohm": ("resistance_ohm",
        lambda spec, bad: assemble_polarization(*_electrodes(), bad)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("site", sorted(SITES))
def test_non_finite_input_is_rejected_naming_the_field(
    validation_spec_60, site, bad
):
    field, call = SITES[site]
    with pytest.raises(ConfigurationError, match=field):
        call(validation_spec_60, bad)
