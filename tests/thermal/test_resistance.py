"""Tests for thermal-resistance extraction."""

import pytest

from repro.casestudy.power7plus import build_thermal_model, full_load_power_map
from repro.thermal.resistance import junction_to_inlet_resistance_k_w


@pytest.fixture(scope="module")
def solved_case():
    model = build_thermal_model(nx=44, ny=22)
    power = full_load_power_map(44, 22)
    return model.solve_steady(), power


class TestLumpedResistance:
    def test_magnitude(self, solved_case):
        solution, _ = solved_case
        r = junction_to_inlet_resistance_k_w(solution)
        # ~14 K rise over ~152 W.
        assert r == pytest.approx(0.092, abs=0.03)

    def test_beats_air_heatsink(self, solved_case):
        from repro.core.baselines import ConventionalBaseline

        solution, _ = solved_case
        r = junction_to_inlet_resistance_k_w(solution)
        assert r < ConventionalBaseline().heatsink_resistance_k_w

    def test_scales_with_flow(self):
        low = build_thermal_model(nx=22, ny=11, total_flow_ml_min=150.0)
        high = build_thermal_model(nx=22, ny=11, total_flow_ml_min=1352.0)
        r_low = junction_to_inlet_resistance_k_w(low.solve_steady(), low)
        r_high = junction_to_inlet_resistance_k_w(high.solve_steady(), high)
        assert r_high < r_low
