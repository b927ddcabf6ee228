"""Parameter-sensitivity analysis of the reproduction's calibrations.

DESIGN.md documents several calibrated constants (electrode surface area,
porous mass-transfer coefficient, permeability, convective enhancement,
PDN impedances). This module quantifies how much each one matters: it
perturbs one parameter at a time and reports the relative change of the
paper-anchor outputs (array current at 1 V, peak temperature, pumping
power, PDN minimum voltage). The result is the tornado table of bench A9 —
the reader's guide to which substitutions carry risk and which are inert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SensitivityResult:
    """One parameter's effect on one output."""

    parameter: str
    output: str
    #: d(ln output) / d(ln parameter), central difference at the nominal
    elasticity: float
    low_value: float
    high_value: float


def one_at_a_time(
    evaluate: Callable[[float], float],
    parameter: str,
    output: str,
    relative_step: float = 0.2,
) -> SensitivityResult:
    """Central-difference elasticity of ``evaluate`` about factor 1.

    ``evaluate(scale)`` must return the output with the parameter scaled by
    ``scale`` (1.0 = nominal). The elasticity d ln(out)/d ln(param) is the
    dimensionless sensitivity: 1.0 means proportional response.
    """
    if not 0.0 < relative_step < 1.0:
        raise ConfigurationError("relative step must be in (0, 1)")
    low = evaluate(1.0 - relative_step)
    high = evaluate(1.0 + relative_step)
    if low <= 0.0 or high <= 0.0:
        raise ConfigurationError(
            f"{output} must stay positive under {parameter} perturbation"
        )
    import math

    elasticity = (math.log(high) - math.log(low)) / (
        math.log(1.0 + relative_step) - math.log(1.0 - relative_step)
    )
    return SensitivityResult(
        parameter=parameter,
        output=output,
        elasticity=elasticity,
        low_value=low,
        high_value=high,
    )


# -- case-study evaluators ----------------------------------------------------------


def _array_current_with(scale_surface: float = 1.0, scale_km: float = 1.0) -> float:
    from repro.casestudy.power7plus import build_array_spec, build_porous_electrode
    from repro.flowcell.porous import FlowThroughPorousCell, PorousElectrodeSpec

    base = build_porous_electrode()
    electrode = PorousElectrodeSpec(
        specific_surface_area_m2_m3=base.specific_surface_area_m2_m3 * scale_surface,
        permeability_m2=base.permeability_m2,
        porosity=base.porosity,
        fibre_diameter_m=base.fibre_diameter_m,
        km_coefficient=base.km_coefficient * scale_km,
        km_exponent=base.km_exponent,
    )
    cell = FlowThroughPorousCell(build_array_spec(), electrode, n_segments=25)
    curve = cell.polarization_curve(n_points=30, max_overpotential_v=1.4)
    return 88.0 * curve.current_at_voltage(1.0)


def _peak_temperature_with(scale_enhancement: float = 1.0) -> float:
    from dataclasses import replace

    from repro.casestudy.power7plus import (
        HEAT_TRANSFER_ENHANCEMENT,
        build_thermal_stack,
        full_load_power_map,
    )
    from repro.geometry.power7 import build_power7_floorplan
    from repro.thermal.model import ThermalModel
    from repro.thermal.stack import LayerStack

    floorplan = build_power7_floorplan()
    enhancement = HEAT_TRANSFER_ENHANCEMENT * scale_enhancement
    stack = LayerStack(
        replace(layer, heat_transfer_enhancement=enhancement) if layer.is_channel else layer
        for layer in build_thermal_stack(676.0)
    )
    model = ThermalModel(stack, floorplan.width_m, floorplan.height_m, 44, 22)
    model.set_power_map("active_si", full_load_power_map(44, 22, floorplan))
    # Sensitivity on the temperature *rise* (the physical response).
    return model.solve_steady().peak_k - 300.0


def _pumping_power_with(scale_permeability: float = 1.0) -> float:
    from repro.casestudy.power7plus import (
        PERMEABILITY_M2,
        build_array_fluid,
        build_array_layout,
    )
    from repro.microfluidics.hydraulics import darcy_pressure_drop, pumping_power
    from repro.units import m3s_from_ml_per_min

    layout = build_array_layout()
    total = m3s_from_ml_per_min(676.0)
    dp = darcy_pressure_drop(
        layout.channel, build_array_fluid(), total / layout.count,
        PERMEABILITY_M2 * scale_permeability,
    )
    return pumping_power(dp, total)


def _pdn_drop_with(scale_impedance: float = 1.0) -> float:
    from repro.geometry.power7 import build_power7_floorplan
    from repro.pdn.power7_pdn import CachePdnConfig, solve_cache_pdn

    config = CachePdnConfig(
        nx=53, ny=42,
        vrm_output_impedance_ohm=0.15 * scale_impedance,
    )
    result = solve_cache_pdn(build_power7_floorplan(), config)
    return 1.0 - result.min_voltage_v  # worst-case drop


def case_study_tornado(relative_step: float = 0.2) -> "list[SensitivityResult]":
    """The calibration tornado of the POWER7+ case study.

    One entry per (calibrated parameter, anchor output) pair considered in
    DESIGN.md; see bench A9 for the rendered table.
    """
    return [
        one_at_a_time(
            lambda s: _array_current_with(scale_surface=s),
            "electrode specific surface a_s", "I(1 V)", relative_step,
        ),
        one_at_a_time(
            lambda s: _array_current_with(scale_km=s),
            "porous k_m coefficient", "I(1 V)", relative_step,
        ),
        one_at_a_time(
            _peak_temperature_with,
            "convective enhancement", "peak rise", relative_step,
        ),
        one_at_a_time(
            _pumping_power_with,
            "electrode permeability", "pumping power", relative_step,
        ),
        one_at_a_time(
            _pdn_drop_with,
            "VRM output impedance", "PDN worst drop", relative_step,
        ),
    ]
