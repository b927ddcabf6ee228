"""Tests for the electrolyte recirculation state."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime.state import (
    ElectrolyteState,
    ElectrolyteStateArray,
    build_case_study_loop,
)


class TestBuildLoop:
    def test_case_study_loop_is_balanced(self):
        loop = build_case_study_loop(volume_m3=1e-4)
        assert loop.anolyte_tank.is_fuel
        assert not loop.catholyte_tank.is_fuel
        assert 0.0 < loop.state_of_charge <= 1.0
        assert loop.deliverable_charge_c > 0.0

    def test_volume_scales_capacity(self):
        small = build_case_study_loop(volume_m3=1e-5)
        large = build_case_study_loop(volume_m3=1e-4)
        assert large.deliverable_charge_c == pytest.approx(
            10.0 * small.deliverable_charge_c
        )


class TestElectrolyteState:
    def test_default_loop_sustains_the_array_current(self):
        state = ElectrolyteState()
        # The paper's 6 A draw for a minute barely dents the 0.5 L tanks.
        sustained = state.step(6.0, 60.0)
        assert sustained == 6.0
        assert not state.depleted
        assert state.state_of_charge > 0.95 * state.initial_soc
        assert 0.0 < state.fuel_utilization < 0.1

    def test_depletion_clamps_instead_of_raising(self):
        state = ElectrolyteState(build_case_study_loop(volume_m3=1e-7),
                                 min_soc=0.1)
        usable = state.usable_charge_c()
        # Demand far beyond the usable window: the step delivers only the
        # remainder and marks the state depleted.
        sustained = state.step(usable, 2.0)  # requests 2x the usable charge
        assert sustained == pytest.approx(usable / 2.0)
        assert state.depleted
        assert state.state_of_charge == pytest.approx(0.1, abs=1e-6)
        assert state.fuel_utilization == pytest.approx(1.0)
        # Once depleted, no further current is sustained.
        assert state.step(1.0, 1.0) == 0.0

    def test_exact_drain_to_floor_depletes(self):
        state = ElectrolyteState(build_case_study_loop(volume_m3=1e-7),
                                 min_soc=0.2)
        usable = state.usable_charge_c()
        assert state.step(usable, 1.0) == pytest.approx(usable)
        assert state.depleted

    def test_zero_current_is_free(self):
        state = ElectrolyteState(build_case_study_loop(volume_m3=1e-6))
        soc = state.state_of_charge
        assert state.step(0.0, 10.0) == 0.0
        assert state.state_of_charge == soc

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ElectrolyteState(min_soc=1.0)
        state = ElectrolyteState(build_case_study_loop(volume_m3=1e-6))
        with pytest.raises(ConfigurationError):
            state.step(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            state.step(-1.0, 1.0)


class TestElectrolyteStateArrayWriteBack:
    def test_write_back_matches_stepping_the_scalar_state(self):
        """Array-stepped lanes, written back, equal scalar-stepped twins
        bit for bit — depleted flag included."""
        def lanes():
            return [
                ElectrolyteState(build_case_study_loop(volume_m3=1e-5)),
                None,
                ElectrolyteState(build_case_study_loop(volume_m3=1e-8)),
            ]

        arrayed, scalar = lanes(), lanes()
        array = ElectrolyteStateArray(arrayed)
        for current, dt in ((6.0, 0.5), (6.0, 0.5), (8.0, 1.0)):
            array.step(np.full(3, current), dt)
            for state in scalar:
                if state is not None:
                    state.step(current, dt)
        array.write_back()
        for written, reference in zip(arrayed, scalar):
            if reference is None:
                continue
            for name in ("anolyte_tank", "catholyte_tank"):
                got = getattr(written.loop, name)
                want = getattr(reference.loop, name)
                assert (got.conc_ox, got.conc_red) == (
                    want.conc_ox, want.conc_red
                )
            assert written.depleted == reference.depleted
            assert written.state_of_charge == reference.state_of_charge
        assert arrayed[2].depleted and not arrayed[0].depleted

    def test_tanks_reject_negative_concentrations(self):
        tank = build_case_study_loop().anolyte_tank
        with pytest.raises(ConfigurationError):
            tank.set_concentrations(-1.0, 10.0)
