"""Property-based tests for geometry and microfluidic relations."""


from hypothesis import given, settings, strategies as st
import pytest

from repro.geometry.channel import RectangularChannel
from repro.microfluidics.hydraulics import pumping_power
from repro.microfluidics.mass_transfer import (
    average_mass_transfer_coefficient,
    leveque_local_mass_transfer_coefficient,
)

widths = st.floats(min_value=50e-6, max_value=5e-3)
heights = st.floats(min_value=50e-6, max_value=1e-3)
lengths = st.floats(min_value=5e-3, max_value=50e-3)
flows = st.floats(min_value=1e-10, max_value=1e-5)


class TestChannelGeometryProperties:
    @given(w=widths, h=heights, length=lengths)
    def test_hydraulic_diameter_bounds(self, w, h, length):
        """D_h lies between the smaller side and twice the smaller side."""
        channel = RectangularChannel(w, h, length)
        small = min(w, h)
        assert small <= channel.hydraulic_diameter_m * (1 + 1e-12)
        assert channel.hydraulic_diameter_m <= 2.0 * small

    @given(w=widths, h=heights, length=lengths)
    def test_aspect_in_unit_interval(self, w, h, length):
        channel = RectangularChannel(w, h, length)
        assert 0.0 < channel.aspect_ratio <= 1.0

    @given(w=widths, h=heights, length=lengths, q=flows)
    def test_velocity_flow_consistency(self, w, h, length, q):
        channel = RectangularChannel(w, h, length)
        assert channel.mean_velocity(q) * channel.cross_section_area_m2 == pytest.approx(q)


class TestHydraulicProperties:
    @given(dp=st.floats(0.0, 1e6), q=st.floats(0.0, 1e-4),
           eta=st.floats(0.05, 1.0))
    def test_pumping_power_scaling(self, dp, q, eta):
        power = pumping_power(dp, q, eta)
        assert power >= 0.0
        assert power == pytest.approx(dp * q / eta)


class TestLevequeProperties:
    @given(d=st.floats(1e-11, 1e-9), gamma=st.floats(1.0, 1e5),
           x=st.floats(1e-4, 0.1))
    def test_average_exceeds_local_at_end(self, d, gamma, x):
        local = leveque_local_mass_transfer_coefficient(d, gamma, x)
        average = average_mass_transfer_coefficient(d, gamma, x)
        assert average == pytest.approx(1.5 * local)

    @given(d=st.floats(1e-11, 1e-9), gamma=st.floats(1.0, 1e5),
           x1=st.floats(1e-4, 0.1), x2=st.floats(1e-4, 0.1))
    def test_local_km_decreases_downstream(self, d, gamma, x1, x2):
        lo, hi = sorted((x1, x2))
        k_lo = leveque_local_mass_transfer_coefficient(d, gamma, lo)
        k_hi = leveque_local_mass_transfer_coefficient(d, gamma, hi)
        assert k_hi <= k_lo * (1 + 1e-12)

    @given(d=st.floats(1e-11, 1e-9), x=st.floats(1e-4, 0.1),
           gamma=st.floats(1.0, 1e5), factor=st.floats(1.0, 1000.0))
    def test_cube_root_shear_scaling(self, d, x, gamma, factor):
        base = leveque_local_mass_transfer_coefficient(d, gamma, x)
        scaled = leveque_local_mass_transfer_coefficient(d, factor * gamma, x)
        assert scaled == pytest.approx(base * factor ** (1.0 / 3.0), rel=1e-9)


class TestPolarizationCurveProperties:
    @given(data=st.data())
    @settings(max_examples=30)
    def test_interpolation_roundtrip(self, data):
        """current_at_voltage(voltage_at_current(i)) == i on strictly
        monotone curves."""
        import numpy as np
        from repro.electrochem.polarization import PolarizationCurve

        n = data.draw(st.integers(3, 30))
        ocv = data.draw(st.floats(0.5, 2.0))
        slope = data.draw(st.floats(1e-3, 0.1))
        current = np.linspace(0.0, 10.0, n)
        curve = PolarizationCurve(current, ocv - slope * current)
        i_probe = data.draw(st.floats(0.0, 10.0))
        v = curve.voltage_at_current(i_probe)
        assert curve.current_at_voltage(v) == pytest.approx(i_probe, abs=1e-9)
