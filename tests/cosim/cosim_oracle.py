"""Independent scalar oracle for the electro-thermal fixed point.

:meth:`repro.cosim.ElectroThermalCosim.run` solves on the kept family
model of its coolant point, adding the cell heat to a kept chip
right-hand side. This oracle shares none of that: it builds a fresh
case-study model per configuration, re-solves it with
:meth:`~repro.thermal.model.ThermalModel.solve_steady` after moving the
cell-heat map on its fluid field, and samples one configuration at a
time through one-dimensional surface queries. It is the loop the
kept-model run replaced, and matches it bit for bit.
"""

import numpy as np

from repro.casestudy.power7plus import build_thermal_model
from repro.cosim import coupling
from repro.cosim.coupling import CosimConfig, CosimResult, coolant_columns
from repro.cosim.surface import N_CHANNEL_GROUPS, PolarizationSurface


def _cell_heat_map(config: CosimConfig, group_currents: np.ndarray,
                   group_ocvs: np.ndarray) -> np.ndarray:
    """Fluid-layer heat map [W/cell] from cell polarization losses."""
    heat = np.zeros((config.ny, config.nx))
    columns_per_group = config.nx // N_CHANNEL_GROUPS
    voltage = config.operating_voltage_v
    for g in range(N_CHANNEL_GROUPS):
        loss_w = max(0.0, (group_ocvs[g] - voltage)) * group_currents[g]
        cells = columns_per_group * config.ny
        heat[:, g * columns_per_group:(g + 1) * columns_per_group] = (
            loss_w / cells
        )
    return heat


def oracle_fixed_point(config: CosimConfig) -> CosimResult:
    """One configuration's fixed point on its own freshly built model."""
    voltage = config.operating_voltage_v
    surface = PolarizationSurface.shared(config.total_flow_ml_min)
    isothermal_current = N_CHANNEL_GROUPS * surface.current_at(
        config.inlet_temperature_k, voltage
    )
    model = build_thermal_model(
        nx=config.nx, ny=config.ny,
        total_flow_ml_min=config.total_flow_ml_min,
        inlet_temperature_k=config.inlet_temperature_k,
    )
    model.set_power_map(
        "channels", np.zeros((config.ny, config.nx)), kind="fluid"
    )
    temperatures = np.full(N_CHANNEL_GROUPS, config.inlet_temperature_k)
    group_currents = np.zeros(N_CHANNEL_GROUPS)
    converged = False
    for iteration in range(1, coupling.MAX_ITERATIONS + 1):
        thermal = model.solve_steady()
        new_temperatures = coolant_columns(
            model, thermal.temperatures_k[:, None]
        )[0][0]
        shift = float(np.max(np.abs(new_temperatures - temperatures)))
        temperatures = new_temperatures
        group_currents = surface.currents_at(temperatures, voltage)
        group_ocvs = surface.ocvs_at(temperatures)
        if shift < coupling.TOLERANCE_K and iteration > 1:
            converged = True
            break
        if iteration < coupling.MAX_ITERATIONS:
            model.set_power_map(
                "channels", _cell_heat_map(config, group_currents, group_ocvs),
                kind="fluid",
            )
    total_current = float(group_currents.sum())
    return CosimResult(
        config=config,
        iterations=iteration,
        converged=converged,
        group_temperatures_k=temperatures,
        group_currents_a=group_currents,
        array_current_a=total_current,
        array_power_w=total_current * voltage,
        isothermal_current_a=float(isothermal_current),
        thermal=thermal,
    )
