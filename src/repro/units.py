"""Unit conversion helpers.

The library works internally in strict SI (m, kg, s, K, A, V, Pa, W, mol/m^3).
The paper and the microfluidics literature, however, quote quantities in
laboratory units (uL/min, ml/min, mA/cm^2, bar, um, mm). These helpers make
the conversions explicit and self-documenting at call sites.

Each function is named ``<to>_from_<from>``: most convert to SI, a few
convert SI back for reporting. Named conversions avoid the classic
"factor of 60" and "per-cm^2 vs per-m^2" bugs in hand-written conversions.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Length
# ---------------------------------------------------------------------------


def meters_from_mm(value_mm: float) -> float:
    """Millimetres -> metres."""
    return value_mm * 1e-3


def meters_from_um(value_um: float) -> float:
    """Micrometres -> metres."""
    return value_um * 1e-6


# ---------------------------------------------------------------------------
# Volumetric flow rate
# ---------------------------------------------------------------------------

#: Number of seconds per minute; named to keep conversion factors greppable.
_SECONDS_PER_MINUTE = 60.0


def m3s_from_ul_per_min(value_ul_min: float) -> float:
    """Microlitres per minute -> m^3/s."""
    return value_ul_min * 1e-9 / _SECONDS_PER_MINUTE


def m3s_from_ml_per_min(value_ml_min: float) -> float:
    """Millilitres per minute -> m^3/s."""
    return value_ml_min * 1e-6 / _SECONDS_PER_MINUTE


# ---------------------------------------------------------------------------
# Pressure
# ---------------------------------------------------------------------------


def bar_per_cm_from_pa_per_m(value: float) -> float:
    """Pressure gradient Pa/m -> bar/cm (the unit used in the paper)."""
    return value * 1e-5 * 1e-2


# ---------------------------------------------------------------------------
# Current density
# ---------------------------------------------------------------------------


def ma_cm2_from_a_m2(value_a_m2: float) -> float:
    """A/m^2 -> mA/cm^2."""
    return value_a_m2 / 10.0


def w_m2_from_w_cm2(value_w_cm2: float) -> float:
    """W/cm^2 -> W/m^2."""
    return value_w_cm2 * 1e4


# ---------------------------------------------------------------------------
# Temperature
# ---------------------------------------------------------------------------


def celsius_from_kelvin(value_k: float) -> float:
    """Kelvin -> degrees Celsius."""
    return value_k - 273.15


# ---------------------------------------------------------------------------
# Concentration
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Dynamic viscosity
# ---------------------------------------------------------------------------


def pa_s_from_mpa_s(value_mpa_s: float) -> float:
    """mPa*s (centipoise) -> Pa*s."""
    return value_mpa_s * 1e-3
