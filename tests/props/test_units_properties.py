"""Property-based tests for unit conversions (linearity)."""

from hypothesis import given, strategies as st
import pytest

from repro import units

positive = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False)


class TestLinearity:
    @given(x=positive, y=positive)
    def test_flow_conversion_additive(self, x, y):
        assert units.m3s_from_ml_per_min(x + y) == pytest.approx(
            units.m3s_from_ml_per_min(x) + units.m3s_from_ml_per_min(y), rel=1e-12
        )
