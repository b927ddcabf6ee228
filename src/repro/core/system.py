"""Integrated power-and-cooling system facade.

:class:`IntegratedPowerCoolingSystem` is the library's top-level object: it
composes the calibrated POWER7+ case study (flow-cell array + thermal model
+ cache PDN + hydraulics + VRM) and evaluates the joint operating point the
paper reports in Section III:

- array electrical capability at the VRM input voltage,
- whether the cache demand (5 W at 1 V) is met after conversion losses,
- the full-load thermal map and its peak,
- pumping power and the net energy balance,
- PDN voltage quality, and
- the bright-silicon/connectivity comparison against the conventional
  baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.casestudy.power7plus import (
    Power7CaseStudy,
    full_load_power_map,
    thermal_family,
)
from repro.casestudy.tables import PAPER_ANCHORS
from repro.core.baselines import ConventionalBaseline
from repro.core.metrics import (
    DEFAULT_TEMPERATURE_LIMIT_C,
    EnergyBalance,
    bright_silicon_utilization,
)
from repro.errors import ConfigurationError
from repro.pdn.power7_pdn import CachePdnResult, solve_cache_pdn
from repro.pdn.vrm import IdealVRM, VoltageRegulator
from repro.thermal.solver import ThermalSolution
from repro.units import bar_per_cm_from_pa_per_m


@dataclass(frozen=True)
class SystemEvaluation:
    """One joint operating-point evaluation of the integrated system."""

    # electrical
    array_ocv_v: float
    array_current_a: float
    array_power_w: float
    vrm_efficiency: float
    delivered_power_w: float
    cache_demand_w: float
    # thermal
    peak_temperature_c: float
    coolant_outlet_rise_k: float
    # hydraulic
    pressure_drop_pa: float
    pressure_gradient_bar_cm: float
    pumping_power_w: float
    # pdn
    pdn_min_voltage_v: float
    pdn_max_voltage_v: float
    # comparisons
    bright_utilization: float
    baseline_utilization: float
    energy_balance: EnergyBalance

    @property
    def demand_met(self) -> bool:
        """Whether the delivered power covers the cache demand."""
        return self.delivered_power_w >= self.cache_demand_w


class IntegratedPowerCoolingSystem:
    """The paper's proposed system, end to end.

    Parameters
    ----------
    case_study:
        Calibrated POWER7+ component bundle (defaults to Table II nominal).
    vrm:
        Regulator between the array and the 1 V cache rail. Defaults to
        the ideal model, matching how the paper accounts its 6 W figure
        (array power at the 1 V tap, no conversion loss); pass a
        :class:`~repro.pdn.vrm.SwitchedCapacitorVRM` or
        :class:`~repro.pdn.vrm.BuckVRM` for the realistic-converter
        analysis (bench A3).
    baseline:
        Conventional comparator for bright-silicon metrics.
    temperature_limit_c:
        Junction limit for the utilization search.
    """

    def __init__(
        self,
        case_study: "Power7CaseStudy | None" = None,
        vrm: "VoltageRegulator | None" = None,
        baseline: "ConventionalBaseline | None" = None,
        temperature_limit_c: float = DEFAULT_TEMPERATURE_LIMIT_C,
    ) -> None:
        self.case_study = case_study if case_study is not None else Power7CaseStudy()
        if vrm is None:
            vrm = IdealVRM(nominal_output_v=1.0)
        self.vrm = vrm
        self.baseline = baseline if baseline is not None else ConventionalBaseline()
        if temperature_limit_c <= 0.0:
            raise ConfigurationError("temperature limit must be > 0")
        self.temperature_limit_c = temperature_limit_c

    # -- pieces ------------------------------------------------------------------

    def steady_state(self, utilization: float = 1.0) -> ThermalSolution:
        """The chip's steady state at a uniform utilization.

        Solved on the kept model of the coolant point in the case-study
        thermal family, so every step of the bright-silicon search reuses
        one LU. The solution's own model carries the power map it was
        solved with, so its energy balance closes.
        """
        from repro.thermal.batch import AnchoredTransientSolver

        study = self.case_study
        family = thermal_family(study.inlet_temperature_k, study.nx, study.ny)
        power = full_load_power_map(study.nx, study.ny, study.floorplan, utilization)
        solver = AnchoredTransientSolver(family.kept_model(study.total_flow_ml_min))
        state = solver.solve_steady_columns(
            solver.model.rhs_columns("active_si", [power])
        )[:, 0]
        model = family.at_flow(study.total_flow_ml_min)
        model.set_power_map("active_si", power)
        return ThermalSolution(temperatures_k=state, model=model)

    def _peak_temperature_at(self, utilization: float) -> float:
        return self.steady_state(utilization).peak_celsius

    def solve_pdn(self) -> CachePdnResult:
        """Solve the cache power grid (Fig. 8)."""
        return solve_cache_pdn(self.case_study.floorplan)

    # -- evaluation -----------------------------------------------------------------

    def evaluate(self, array_input_voltage_v: float = 1.0) -> SystemEvaluation:
        """Evaluate the nominal full-load operating point.

        ``array_input_voltage_v`` is the voltage the VRMs hold at the array
        terminals; the array's polarization curve then fixes its current
        and power. The default 1.0 V reproduces the paper's 6 A / 6 W
        operating point.
        """
        array = self.case_study.array
        current = array.current_at_voltage(array_input_voltage_v)
        array_power = current * array_input_voltage_v

        efficiency = float(self.vrm.efficiency)
        delivered = array_power * efficiency

        thermal = self.steady_state()
        fluid = thermal.field("channels", "fluid")
        outlet_rise = float(
            fluid[-1, :].mean() - self.case_study.inlet_temperature_k
        )

        pdn = self.solve_pdn()
        pressure = self.case_study.pressure_drop_pa()
        pumping = self.case_study.pumping_power_w()
        channel_length = self.case_study.array.layout.channel.length_m

        bright = bright_silicon_utilization(
            self._peak_temperature_at, self.temperature_limit_c
        )
        baseline_util = self.baseline.max_utilization(self.temperature_limit_c)

        return SystemEvaluation(
            array_ocv_v=array.open_circuit_voltage_v,
            array_current_a=current,
            array_power_w=array_power,
            vrm_efficiency=efficiency,
            delivered_power_w=delivered,
            cache_demand_w=(
                PAPER_ANCHORS["cache_current_requirement_a"]
                * PAPER_ANCHORS["cache_supply_voltage_v"]
            ),
            peak_temperature_c=thermal.peak_celsius,
            coolant_outlet_rise_k=outlet_rise,
            pressure_drop_pa=pressure,
            pressure_gradient_bar_cm=bar_per_cm_from_pa_per_m(
                pressure / channel_length
            ),
            pumping_power_w=pumping,
            pdn_min_voltage_v=pdn.min_voltage_v,
            pdn_max_voltage_v=pdn.max_voltage_v,
            bright_utilization=bright,
            baseline_utilization=baseline_util,
            energy_balance=EnergyBalance(
                generated_w=array_power, pumping_w=pumping
            ),
        )

    def io_bumps_freed(self, droop_budget_v: float = 0.05) -> int:
        """c4 bumps released to I/O by supplying the caches fluidically."""
        return self.baseline.delivery.io_gain_if_offloaded(
            PAPER_ANCHORS["cache_current_requirement_a"], droop_budget_v
        )
