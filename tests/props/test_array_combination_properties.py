"""Property-based tests for heterogeneous array combination.

The electro-thermal co-simulation rests on
:meth:`FlowCellArray.combine_at_voltage` being a well-behaved aggregation;
these properties pin that down for arbitrary curve families.
"""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.electrochem.polarization import PolarizationCurve
from repro.flowcell.array import FlowCellArray


@st.composite
def polarization_curves(draw):
    """A random physically shaped curve: OCV 1..2 V, linear + quadratic sag."""
    ocv = draw(st.floats(1.0, 2.0))
    i_max = draw(st.floats(0.1, 5.0))
    linear = draw(st.floats(0.01, 0.5))
    quadratic = draw(st.floats(0.0, 0.3))
    current = np.linspace(0.0, i_max, draw(st.integers(5, 40)))
    voltage = ocv - linear * current - quadratic * (current / i_max) ** 2 * i_max
    return PolarizationCurve(current, voltage)


class TestCombineProperties:
    @settings(max_examples=40)
    @given(curves=st.lists(polarization_curves(), min_size=1, max_size=6),
           voltage=st.floats(0.1, 2.0))
    def test_total_nonnegative_and_bounded(self, curves, voltage):
        total = FlowCellArray.combine_at_voltage(curves, voltage)
        assert total >= 0.0
        assert total <= sum(c.max_current_a for c in curves) + 1e-9

    @settings(max_examples=40)
    @given(curves=st.lists(polarization_curves(), min_size=1, max_size=6),
           v1=st.floats(0.1, 2.0), v2=st.floats(0.1, 2.0))
    def test_monotone_decreasing_in_voltage(self, curves, v1, v2):
        lo, hi = sorted((v1, v2))
        i_hi_v = FlowCellArray.combine_at_voltage(curves, hi)
        i_lo_v = FlowCellArray.combine_at_voltage(curves, lo)
        assert i_lo_v >= i_hi_v - 1e-9

    @settings(max_examples=30)
    @given(curves=st.lists(polarization_curves(), min_size=2, max_size=6),
           voltage=st.floats(0.1, 2.0))
    def test_superposition(self, curves, voltage):
        """Combining all curves equals the sum of combining each alone."""
        together = FlowCellArray.combine_at_voltage(curves, voltage)
        separately = sum(
            FlowCellArray.combine_at_voltage([c], voltage) for c in curves
        )
        assert together == pytest.approx(separately, rel=1e-12, abs=1e-12)

    @settings(max_examples=25)
    @given(curve=polarization_curves(), n=st.integers(1, 50),
           voltage=st.floats(0.1, 2.0))
    def test_identical_curves_scale(self, curve, n, voltage):
        total = FlowCellArray.combine_at_voltage([curve] * n, voltage)
        single = FlowCellArray.combine_at_voltage([curve], voltage)
        assert total == pytest.approx(n * single, rel=1e-12, abs=1e-12)
