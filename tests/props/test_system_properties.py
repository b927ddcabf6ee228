"""Property-based tests for system-level components.

Covers conservation and monotonicity invariants of reservoir bookkeeping
and workload power maps.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.casestudy.power7plus import build_array_spec
from repro.flowcell.recirculation import ElectrolyteReservoir


class TestReservoirProperties:
    @settings(max_examples=30)
    @given(
        volume_l=st.floats(0.01, 10.0),
        draws=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=10),
    )
    def test_total_vanadium_invariant(self, volume_l, draws):
        """No sequence of partial (dis)charges changes total vanadium."""
        spec = build_array_spec()
        tank = ElectrolyteReservoir(spec.anolyte, volume_l * 1e-3, is_fuel=True)
        total_before = tank.conc_ox + tank.conc_red
        for charge in draws:
            try:
                tank.draw_charge(charge)
            except Exception:
                pass  # exhausted requests are rejected atomically
        assert tank.conc_ox + tank.conc_red == pytest.approx(total_before)

    @settings(max_examples=30)
    @given(volume_l=st.floats(0.01, 10.0), charge_factor=st.floats(0.01, 0.95))
    def test_charge_bookkeeping_exact(self, volume_l, charge_factor):
        """Charge drawn equals n*F times the moles converted."""
        spec = build_array_spec()
        tank = ElectrolyteReservoir(spec.anolyte, volume_l * 1e-3, is_fuel=True)
        charge = charge_factor * tank.total_charge_c
        red_before = tank.conc_red
        tank.draw_charge(charge)
        from repro.constants import FARADAY

        converted = (red_before - tank.conc_red) * tank.volume_m3
        assert FARADAY * converted == pytest.approx(charge, rel=1e-9)

    @settings(max_examples=20)
    @given(volume_l=st.floats(0.01, 10.0), fraction=st.floats(0.05, 0.9))
    def test_soc_monotone_under_discharge(self, volume_l, fraction):
        spec = build_array_spec()
        tank = ElectrolyteReservoir(spec.anolyte, volume_l * 1e-3, is_fuel=True)
        soc_trace = [tank.state_of_charge]
        step = fraction * tank.total_charge_c / 5.0
        for _ in range(5):
            tank.draw_charge(step)
            soc_trace.append(tank.state_of_charge)
        assert all(a > b for a, b in zip(soc_trace, soc_trace[1:]))


class TestWorkloadProperties:
    @settings(max_examples=15, deadline=None)
    @given(factor=st.floats(0.0, 1.0))
    def test_uniform_activity_scales_power(self, factor):
        from repro.casestudy.workloads import Workload
        from repro.geometry.floorplan import BlockKind
        from repro.geometry.power7 import build_power7_floorplan

        floorplan = build_power7_floorplan()
        full = Workload(name="full")
        scaled = Workload(
            name="scaled", activity={kind: factor for kind in BlockKind}
        )
        p_full = full.power_map(26, 20, floorplan).sum()
        p_scaled = scaled.power_map(26, 20, floorplan).sum()
        assert p_scaled == pytest.approx(factor * p_full, rel=1e-9, abs=1e-12)
