"""Fixed-point electro-thermal coupling loop.

The coupling is weak at the paper's nominal operating point (the coolant
warms by only a few kelvin, shifting the generated current by a few
percent), so a plain fixed-point iteration converges in a handful of
rounds. The same loop handles the paper's stress scenarios — 48 ml/min
low-flow operation and 37 C inlet — where the temperature feedback becomes
a double-digit power gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.casestudy.tables import TABLE2
from repro.cosim.surface import (
    DEFAULT_TEMPERATURE_RANGE_K,
    N_CHANNEL_GROUPS,
    PolarizationSurface,
)
from repro.errors import ConfigurationError
from repro.thermal.solver import ThermalSolution

#: Fixed-point iteration budget of one run.
MAX_ITERATIONS = 12

#: Convergence threshold on the largest group-temperature change [K].
TOLERANCE_K = 0.05


@dataclass(frozen=True)
class CosimConfig:
    """Configuration of one co-simulation run.

    The coupling bins the channels into :data:`N_CHANNEL_GROUPS` groups,
    each with its own electrochemistry at its own temperature, feeds the
    cells' polarization losses back as fluid heat, and iterates at most
    :data:`MAX_ITERATIONS` times to a :data:`TOLERANCE_K` fixed point.

    Parameters
    ----------
    total_flow_ml_min / inlet_temperature_k:
        Coolant operating point (Table II nominal: 676 ml/min at 300 K).
    operating_voltage_v:
        Array terminal voltage held by the VRMs (1 V in the paper).
    nx / ny:
        Thermal raster (nx must be a multiple of the group count).
    """

    total_flow_ml_min: float = TABLE2["total_flow_ml_min"]
    inlet_temperature_k: float = TABLE2["inlet_temperature_k"]
    operating_voltage_v: float = 1.0
    nx: int = 88
    ny: int = 44

    def __post_init__(self) -> None:
        check_config(self, "total_flow_ml_min", "inlet_temperature_k",
                     "operating_voltage_v")


def check_config(config, *positive_fields: str) -> None:
    """Reject a non-finite or non-positive value of any named field, an
    inlet outside the polarization surface's window, or an ``nx`` the
    channel groups do not divide; each error names its field."""
    for name in positive_fields:
        value = getattr(config, name)
        # Written as ``not 0 < x < inf`` so NaN and inf fail the check too.
        if not 0.0 < value < math.inf:
            raise ConfigurationError(
                f"{name} must be finite and > 0, got {value}"
            )
    t_min, t_max = DEFAULT_TEMPERATURE_RANGE_K
    if not t_min <= config.inlet_temperature_k <= t_max:
        raise ConfigurationError(
            f"inlet_temperature_k={config.inlet_temperature_k:g} K outside "
            f"the polarization surface's window [{t_min:g}, {t_max:g}] K"
        )
    if config.nx % N_CHANNEL_GROUPS:
        raise ConfigurationError(
            f"nx={config.nx} must be a multiple of the {N_CHANNEL_GROUPS} "
            "channel groups"
        )


@dataclass
class CosimResult:
    """Converged co-simulation state."""

    config: CosimConfig
    iterations: int
    converged: bool
    #: mean coolant temperature per channel group [K]
    group_temperatures_k: np.ndarray
    #: current of each group at the operating voltage [A]
    group_currents_a: np.ndarray
    #: total array current / power at the operating voltage
    array_current_a: float
    array_power_w: float
    #: isothermal (inlet-temperature) reference current at the same voltage
    isothermal_current_a: float
    #: final thermal field
    thermal: ThermalSolution

    @property
    def current_gain(self) -> float:
        """Relative current change vs the isothermal reference.

        ``nan`` when the isothermal reference current is zero (operating
        voltage at or above the isothermal OCV): the relative gain is
        undefined there, and ``nan`` propagates through downstream
        arithmetic instead of masquerading as a real gain.
        """
        if self.isothermal_current_a == 0.0:
            return float("nan")
        return self.array_current_a / self.isothermal_current_a - 1.0

    @property
    def peak_temperature_c(self) -> float:
        return self.thermal.peak_celsius


def coolant_columns(
    model, states: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Coolant temperatures [K] of ``(n_dof, k)`` thermal state columns.

    Returns the ``(k, G)`` mean over each channel group's columns of the
    fluid field and the ``(k,)`` mean over the whole fluid field. Each
    mean is a sum over one contiguous run of the column's values — the
    fluid field, or one group's ``ny * columns`` block — so a column's
    result is bit-identical whatever its position in the batch, and to a
    per-group ``fluid[:, group].mean()`` of the column alone.
    """
    k = states.shape[1]
    ny, nx = model.ny, model.nx
    columns_per_group = nx // N_CHANNEL_GROUPS
    offset = model._field("channels", "fluid").offset
    fluid = np.ascontiguousarray(states[offset:offset + nx * ny].T)
    blocks = np.ascontiguousarray(
        fluid.reshape(k, ny, N_CHANNEL_GROUPS, columns_per_group)
        .transpose(0, 2, 1, 3)
    ).reshape(k, N_CHANNEL_GROUPS, ny * columns_per_group)
    return (
        blocks.sum(axis=2) / (ny * columns_per_group),
        fluid.sum(axis=1) / (ny * nx),
    )


class ElectroThermalCosim:
    """Coupled flow-cell / thermal simulation of the POWER7+ case study.

    Group polarization data comes from the shared
    :class:`~repro.cosim.surface.PolarizationSurface` (one interpolation
    per group per iteration instead of a full curve construction), and the
    thermal solves run on the kept model of the coolant point in the
    case-study :func:`~repro.casestudy.power7plus.thermal_family`, whose
    steady LU outlives the run — repeated runs at one coolant point cost a
    handful of triangular solves. The object holds only its
    configuration, so a rebound :attr:`config` is honored.
    """

    def __init__(self, config: CosimConfig = CosimConfig()) -> None:
        self.config = config

    def _cell_heat_map(self, group_currents: np.ndarray,
                       group_ocvs: np.ndarray) -> np.ndarray:
        """Fluid-layer heat map [W/cell] from cell polarization losses."""
        heat = np.zeros((self.config.ny, self.config.nx))
        columns_per_group = self.config.nx // N_CHANNEL_GROUPS
        voltage = self.config.operating_voltage_v
        for g in range(N_CHANNEL_GROUPS):
            loss_w = max(0.0, (group_ocvs[g] - voltage)) * group_currents[g]
            cells = columns_per_group * self.config.ny
            heat[:, g * columns_per_group:(g + 1) * columns_per_group] = loss_w / cells
        return heat

    def run(self) -> CosimResult:
        """Iterate thermal and electrochemical models to a fixed point."""
        from repro.casestudy.power7plus import thermal_family
        from repro.thermal.batch import AnchoredTransientSolver

        config = self.config
        voltage = config.operating_voltage_v
        surface = PolarizationSurface.shared(config.total_flow_ml_min)

        # Isothermal reference at the inlet temperature.
        isothermal_current = N_CHANNEL_GROUPS * surface.current_at(
            config.inlet_temperature_k, voltage
        )

        family = thermal_family(config.inlet_temperature_k, config.nx, config.ny)
        solver = AnchoredTransientSolver(family.kept_model(config.total_flow_ml_min))
        # The chip's right-hand side, once; each solve adds the cells' loss
        # heat on the (disjoint) channel-fluid rows.
        chip_rhs = solver.model.rhs_columns("active_si", [family.full_load_map])
        fluid = solver.model._field("channels").offset
        fluid_rows = slice(fluid, fluid + config.nx * config.ny)

        heat = np.zeros((config.ny, config.nx))
        temperatures = np.full(N_CHANNEL_GROUPS, config.inlet_temperature_k)
        group_currents = np.zeros(N_CHANNEL_GROUPS)
        converged = False
        for iteration in range(1, MAX_ITERATIONS + 1):
            rhs = chip_rhs.copy()
            rhs[fluid_rows, 0] += heat.ravel()
            state = solver.solve_steady_columns(rhs)[:, 0]
            new_temperatures = coolant_columns(solver.model, state[:, None])[0][0]
            shift = float(np.max(np.abs(new_temperatures - temperatures)))
            temperatures = new_temperatures

            group_currents = surface.currents_at(temperatures, voltage)
            group_ocvs = surface.ocvs_at(temperatures)

            if shift < TOLERANCE_K and iteration > 1:
                converged = True
                break
            # The next solve's cell heat: after the last solve ``heat``
            # stays the map ``state`` was solved with (energy balance).
            if iteration < MAX_ITERATIONS:
                heat = self._cell_heat_map(group_currents, group_ocvs)

        # The kept model carries no power maps; the solution's own model
        # carries the two it was solved with, so its energy balance closes.
        model = family.at_flow(config.total_flow_ml_min)
        model.set_power_map("active_si", family.full_load_map)
        model.set_power_map("channels", heat, kind="fluid")
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
            thermal=ThermalSolution(temperatures_k=state, model=model),
        )
