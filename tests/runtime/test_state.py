"""Tests for the electrolyte recirculation state."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import state
from repro.runtime.state import ElectrolyteStateArray, build_case_study_loop

from tests.runtime.electrolyte_oracle import ElectrolyteState, tank_loop


class TestBuildLoop:
    def test_case_study_loop_is_balanced(self):
        loop = build_case_study_loop()
        assert loop.anolyte_tank.is_fuel
        assert not loop.catholyte_tank.is_fuel
        assert loop.anolyte_tank.volume_m3 == state.TANK_VOLUME_M3
        assert 0.0 < loop.state_of_charge <= 1.0
        assert loop.deliverable_charge_c > 0.0

    def test_volume_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(state, "TANK_VOLUME_M3", 1e-5)
        small = build_case_study_loop()
        monkeypatch.setattr(state, "TANK_VOLUME_M3", 1e-4)
        large = build_case_study_loop()
        assert large.deliverable_charge_c == pytest.approx(
            10.0 * small.deliverable_charge_c
        )


class TestElectrolyteState:
    """The scalar oracle's own clamped-draw semantics."""

    def test_default_loop_sustains_the_array_current(self):
        reservoir = ElectrolyteState()
        # The paper's 6 A draw for a minute barely dents the 0.5 L tanks.
        sustained = reservoir.step(6.0, 60.0)
        assert sustained == 6.0
        assert not reservoir.depleted
        assert reservoir.state_of_charge > 0.95 * reservoir.initial_soc
        assert 0.0 < reservoir.fuel_utilization < 0.1

    def test_depletion_clamps_instead_of_raising(self):
        reservoir = ElectrolyteState(tank_loop(1e-7), min_soc=0.1)
        usable = reservoir.usable_charge_c()
        # Demand far beyond the usable window: the step delivers only the
        # remainder and marks the state depleted.
        sustained = reservoir.step(usable, 2.0)  # requests 2x the usable charge
        assert sustained == pytest.approx(usable / 2.0)
        assert reservoir.depleted
        assert reservoir.state_of_charge == pytest.approx(0.1, abs=1e-6)
        assert reservoir.fuel_utilization == pytest.approx(1.0)
        # Once depleted, no further current is sustained.
        assert reservoir.step(1.0, 1.0) == 0.0

    def test_exact_drain_to_floor_depletes(self):
        reservoir = ElectrolyteState(tank_loop(1e-7), min_soc=0.2)
        usable = reservoir.usable_charge_c()
        assert reservoir.step(usable, 1.0) == pytest.approx(usable)
        assert reservoir.depleted

    def test_zero_current_is_free(self):
        reservoir = ElectrolyteState(tank_loop(1e-6))
        soc = reservoir.state_of_charge
        assert reservoir.step(0.0, 10.0) == 0.0
        assert reservoir.state_of_charge == soc

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ElectrolyteState(min_soc=1.0)
        reservoir = ElectrolyteState(tank_loop(1e-6))
        with pytest.raises(ConfigurationError):
            reservoir.step(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            reservoir.step(-1.0, 1.0)


class TestElectrolyteStateArray:
    @pytest.mark.parametrize("volume_m3", [1e-5, 1e-8])
    def test_lanes_match_stepping_the_scalar_state(
        self, monkeypatch, volume_m3
    ):
        """Every array lane equals a scalar-stepped twin bit for bit —
        sustained currents, SOC and depleted flag."""
        monkeypatch.setattr(state, "TANK_VOLUME_M3", volume_m3)
        array = ElectrolyteStateArray(3)
        scalar = ElectrolyteState()
        for current, dt in ((6.0, 0.5), (6.0, 0.5), (8.0, 1.0)):
            sustained = array.step(np.full(3, current), dt)
            expected = scalar.step(current, dt)
            assert list(sustained) == [expected] * 3
            assert list(array.state_of_charge) == [scalar.state_of_charge] * 3
            assert list(array.depleted) == [scalar.depleted] * 3
        assert scalar.depleted == (volume_m3 == 1e-8)

    def test_lanes_with_different_draws_match_their_own_scalar_twins(
        self, monkeypatch
    ):
        """A lane's trajectory depends on its own draws alone: one lane
        runs dry while its neighbours keep their charge."""
        monkeypatch.setattr(state, "TANK_VOLUME_M3", 1e-6)
        draws = np.array([0.0, 6.0, 600.0])
        array = ElectrolyteStateArray(3)
        twins = [ElectrolyteState() for _ in draws]
        for dt in (0.5, 0.5, 1.0):
            sustained = array.step(draws, dt)
            assert list(sustained) == [
                twin.step(draw, dt) for twin, draw in zip(twins, draws)
            ]
            assert list(array.state_of_charge) == [
                twin.state_of_charge for twin in twins
            ]
            assert list(array.depleted) == [twin.depleted for twin in twins]
        assert list(array.depleted) == [False, False, True]

    def test_zero_current_is_free(self):
        array = ElectrolyteStateArray(2)
        socs = array.state_of_charge
        charge = array.usable_charge_c()
        assert list(array.step(np.zeros(2), 10.0)) == [0.0, 0.0]
        assert list(array.state_of_charge) == list(socs)
        assert list(array.usable_charge_c()) == list(charge)
        assert not array.depleted.any()

    def test_depleted_is_a_copy(self):
        array = ElectrolyteStateArray(2)
        flags = array.depleted
        flags[:] = True
        assert not array.depleted.any()

    def test_min_soc_is_read_at_construction(self, monkeypatch):
        monkeypatch.setattr(state, "MIN_SOC", 1.0)
        assert ElectrolyteStateArray(2).depleted.all()
        monkeypatch.setattr(state, "MIN_SOC", 0.05)
        assert not ElectrolyteStateArray(2).depleted.any()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ElectrolyteStateArray(0)
        array = ElectrolyteStateArray(2)
        with pytest.raises(ConfigurationError):
            array.step(np.array([1.0, -1.0]), 1.0)
