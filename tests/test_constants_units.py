"""Tests for repro.constants and repro.units."""


import pytest

from repro import constants, units


class TestConstants:
    def test_faraday_value(self):
        assert constants.FARADAY == pytest.approx(96485.33, abs=0.01)

    def test_gas_constant_value(self):
        assert constants.GAS_CONSTANT == pytest.approx(8.31446, abs=1e-4)


class TestLengthConversions:
    def test_mm_to_meters(self):
        assert units.meters_from_mm(1.0) == pytest.approx(1e-3)

    def test_um_to_meters(self):
        assert units.meters_from_um(1.0) == pytest.approx(1e-6)


class TestFlowConversions:
    def test_table2_flow_rate(self):
        # 676 ml/min is the Table II array flow.
        q = units.m3s_from_ml_per_min(676.0)
        assert q == pytest.approx(1.1267e-5, rel=1e-3)

    def test_ul_per_min(self):
        assert units.m3s_from_ul_per_min(60.0) == pytest.approx(1e-9)

    def test_ml_is_1000_ul(self):
        assert units.m3s_from_ml_per_min(1.0) == pytest.approx(
            1000.0 * units.m3s_from_ul_per_min(1.0)
        )


class TestPressureConversions:
    def test_gradient_conversion(self):
        # 1.5 bar/cm = 1.5e7 Pa/m.
        assert units.bar_per_cm_from_pa_per_m(1.5e7) == pytest.approx(1.5)


class TestCurrentDensityConversions:
    def test_power_density(self):
        assert units.w_m2_from_w_cm2(26.7) == pytest.approx(26.7e4)


class TestTemperatureConversions:
    def test_table2_inlet(self):
        assert units.celsius_from_kelvin(300.0) == pytest.approx(26.85)


class TestConcentrationAndViscosity:
    def test_viscosity(self):
        assert units.pa_s_from_mpa_s(2.53) == pytest.approx(2.53e-3)
