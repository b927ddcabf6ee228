"""Tests for the integrated system facade."""

import numpy as np
import pytest

from repro.core.system import IntegratedPowerCoolingSystem
from repro.pdn.vrm import SwitchedCapacitorVRM


@pytest.fixture(scope="module")
def system(request):
    return IntegratedPowerCoolingSystem()


@pytest.fixture(scope="module")
def evaluation(system):
    return system.evaluate(array_input_voltage_v=1.0)


class TestHeadlineAnchors:
    def test_six_amp_six_watt(self, evaluation):
        assert evaluation.array_current_a == pytest.approx(6.0, abs=0.5)
        assert evaluation.array_power_w == pytest.approx(6.0, abs=0.5)

    def test_demand_met(self, evaluation):
        assert evaluation.cache_demand_w == pytest.approx(5.0)
        assert evaluation.demand_met

    def test_peak_temperature(self, evaluation):
        assert evaluation.peak_temperature_c == pytest.approx(41.0, abs=3.0)

    def test_pumping_power(self, evaluation):
        assert evaluation.pumping_power_w == pytest.approx(4.4, abs=0.5)

    def test_net_energy_positive(self, evaluation):
        assert evaluation.energy_balance.is_net_positive
        assert evaluation.energy_balance.net_w > 1.0

    def test_pdn_window(self, evaluation):
        assert 0.955 < evaluation.pdn_min_voltage_v < evaluation.pdn_max_voltage_v < 1.0

    def test_coolant_rise(self, evaluation):
        assert evaluation.coolant_outlet_rise_k == pytest.approx(3.2, abs=0.4)

    def test_bright_silicon(self, evaluation):
        """The proposed system runs the whole chip: utilization 1."""
        assert evaluation.bright_utilization == 1.0

    def test_baseline_darker(self, evaluation):
        assert evaluation.baseline_utilization < 1.0


class TestVrmVariants:
    def test_sc_vrm_reduces_delivered_power(self):
        ideal = IntegratedPowerCoolingSystem()
        lossy = IntegratedPowerCoolingSystem(
            vrm=SwitchedCapacitorVRM(input_v=1.2, nominal_output_v=1.0)
        )
        # Reuse the same case study internals; only conversion differs.
        lossy.case_study = ideal.case_study
        e_ideal = ideal.evaluate(1.0)
        e_lossy = lossy.evaluate(1.0)
        assert e_lossy.delivered_power_w < e_ideal.delivered_power_w
        assert e_lossy.vrm_efficiency < 1.0


class TestConnectivity:
    def test_io_bumps_freed_positive(self, system):
        assert system.io_bumps_freed() > 0

    def test_tighter_budget_frees_more(self, system):
        assert system.io_bumps_freed(0.02) > system.io_bumps_freed(0.10)


class TestKeptModelSolves:
    """The facade solves on the kept family model of its coolant point:
    the bits of a freshly built case-study model, one LU for every
    utilization."""

    @pytest.mark.parametrize("flow, utilization", [
        (676.0, 1.0), (48.0, 0.5), (30.0, 0.66015625),
    ])
    def test_steady_state_is_a_fresh_build(self, flow, utilization):
        from repro.casestudy.power7plus import (
            Power7CaseStudy,
            build_thermal_model,
        )

        system = IntegratedPowerCoolingSystem(
            Power7CaseStudy(total_flow_ml_min=flow, nx=44, ny=22)
        )
        fresh = build_thermal_model(
            nx=44, ny=22, total_flow_ml_min=flow, utilization=utilization,
        ).solve_steady()
        state = system.steady_state(utilization)
        assert np.array_equal(state.temperatures_k, fresh.temperatures_k)
        assert state.energy_balance_error_w() == fresh.energy_balance_error_w()
        assert system._peak_temperature_at(utilization) == fresh.peak_celsius

    def test_bisection_factorizes_once(self, monkeypatch):
        from repro.casestudy.power7plus import (
            Power7CaseStudy,
            clear_thermal_families,
        )
        from repro.core.metrics import bright_silicon_utilization
        from repro.thermal import model as thermal_model

        clear_thermal_families()
        calls = []
        factorize = thermal_model.factorize_steady
        monkeypatch.setattr(
            thermal_model, "factorize_steady",
            lambda matrix: calls.append(1) or factorize(matrix),
        )
        system = IntegratedPowerCoolingSystem(
            Power7CaseStudy(total_flow_ml_min=41.0, nx=22, ny=11)
        )
        utilization = bright_silicon_utilization(
            system._peak_temperature_at, system.temperature_limit_c
        )
        assert 0.0 < utilization < 1.0
        assert len(calls) == 1
