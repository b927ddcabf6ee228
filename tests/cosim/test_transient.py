"""Tests for the transient co-simulation."""

import pytest

from repro.cosim import CosimConfig
from repro.cosim.transient import TransientCosim, TransientSample
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def cosim():
    return TransientCosim(CosimConfig(nx=22, ny=11))


@pytest.fixture(scope="module")
def step_up(cosim):
    """Idle -> full-load step, half a second."""
    return cosim.run_step_response(0.1, 1.0, duration_s=0.5, dt_s=0.05)


class TestStepResponse:
    def test_temperature_rises_monotonically(self, step_up):
        peaks = [s.peak_temperature_c for s in step_up]
        assert all(a <= b + 1e-6 for a, b in zip(peaks, peaks[1:]))

    def test_starts_at_low_power_steady_state(self, step_up):
        assert step_up[0].peak_temperature_c < 30.0

    def test_approaches_full_load_steady_state(self, cosim, step_up):
        from repro.casestudy.power7plus import build_thermal_model

        steady = build_thermal_model(
            nx=22, ny=11
        ).solve_steady().peak_celsius
        assert step_up[-1].peak_temperature_c == pytest.approx(steady, abs=1.0)

    def test_generation_follows_temperature(self, step_up):
        """Warming coolant lifts the generated current along the way."""
        assert step_up[-1].array_current_a > step_up[0].array_current_a

    def test_current_stays_in_feasible_band(self, step_up):
        for sample in step_up:
            assert 4.0 < sample.array_current_a < 8.0

    def test_step_down_cools(self, cosim):
        samples = cosim.run_step_response(1.0, 0.1, duration_s=0.3, dt_s=0.05)
        assert samples[-1].peak_temperature_c < samples[0].peak_temperature_c

    def test_rejects_bad_timing(self, cosim):
        with pytest.raises(ConfigurationError):
            cosim.run_step_response(0.1, 1.0, duration_s=0.1, dt_s=0.2)


class TestPartialFinalStep:
    """Regression: ``int(round(duration/dt))`` silently dropped or added a
    step when the horizon was not a step multiple."""

    def test_non_multiple_duration_lands_exactly(self, cosim):
        samples = cosim.run_step_response(
            0.1, 1.0, duration_s=0.12, dt_s=0.05
        )
        times = [s.time_s for s in samples]
        assert times == pytest.approx([0.0, 0.05, 0.1, 0.12])

    def test_exact_multiple_unchanged(self, cosim):
        samples = cosim.run_step_response(0.1, 1.0, duration_s=0.1, dt_s=0.05)
        times = [s.time_s for s in samples]
        assert times == pytest.approx([0.0, 0.05, 0.1])
        assert times[-1] == 0.1

    def test_sliver_over_a_multiple_is_not_rounded_away(self, cosim):
        # 0.11 / 0.05 rounds to 2: the old code simulated 0.10 s and
        # labelled it 0.11.
        samples = cosim.run_step_response(
            0.1, 1.0, duration_s=0.11, dt_s=0.05
        )
        assert samples[-1].time_s == pytest.approx(0.11)
        assert len(samples) == 4

    def test_single_full_step(self, cosim):
        samples = cosim.run_step_response(0.1, 1.0, duration_s=0.05,
                                          dt_s=0.05)
        assert [s.time_s for s in samples] == pytest.approx([0.0, 0.05])

    def test_full_steps_share_one_factorization(self, monkeypatch):
        """All full steps pass dt exactly, so the per-dt transient LU
        cache factorizes once per trajectory (not once per drifted
        float step)."""
        import repro.thermal.model as thermal_model

        dts = []
        real = thermal_model.factorize_transient

        def counting(matrix, capacitance, dt_s):
            dts.append(dt_s)
            return real(matrix, capacitance, dt_s)

        monkeypatch.setattr(thermal_model, "factorize_transient", counting)
        fresh = TransientCosim(CosimConfig(nx=22, ny=11))
        fresh.run_step_response(0.1, 1.0, duration_s=0.5, dt_s=0.05)
        assert dts == [0.025]

    def test_final_full_step_time_is_exactly_duration(self, cosim):
        samples = cosim.run_step_response(0.1, 1.0, duration_s=0.5,
                                          dt_s=0.05)
        # Not just approx: 10 * 0.05 accumulates float drift; the label
        # must not.
        assert samples[-1].time_s == 0.5


def direct_march(config, u_before, u_after, duration_s, dt_s, n_full):
    """The step response marched by hand on the scalar thermal model.

    The independent reference for ``run_step_response``: one
    :class:`ThermalModel` steady solve, ``n_full`` calls of
    ``solve_transient(duration=dt, dt=dt/2)``, one partial call for any
    remainder, each state sampled straight off the shared surface.
    """
    from repro.casestudy.power7plus import (
        build_thermal_model,
        full_load_power_map,
    )
    from repro.cosim.coupling import coolant_columns
    from repro.cosim.surface import PolarizationSurface

    surface = PolarizationSurface.shared(config.total_flow_ml_min)

    def sample(time_s, thermal):
        temps = coolant_columns(
            thermal.model, thermal.temperatures_k[:, None]
        )[0][0]
        currents = surface.currents_at(temps, config.operating_voltage_v)
        fluid = thermal.field("channels", "fluid")
        return TransientSample(
            time_s=time_s,
            peak_temperature_c=thermal.peak_celsius,
            mean_coolant_c=float(fluid.mean()) - 273.15,
            array_current_a=float(currents.sum()),
        )

    model = build_thermal_model(
        nx=config.nx, ny=config.ny,
        total_flow_ml_min=config.total_flow_ml_min,
        inlet_temperature_k=config.inlet_temperature_k,
        utilization=u_before,
    )
    state = model.solve_steady()
    model.set_power_map("active_si", full_load_power_map(
        config.nx, config.ny, utilization=u_after
    ))
    samples = [sample(0.0, state)]
    remainder = duration_s - n_full * dt_s
    for i in range(1, n_full + 1):
        state = model.solve_transient(
            duration_s=dt_s, dt_s=dt_s / 2.0, initial=state
        )
        last = i == n_full and remainder == 0.0
        samples.append(sample(duration_s if last else dt_s * i, state))
    if remainder > 0.0:
        state = model.solve_transient(
            duration_s=remainder, dt_s=remainder / 2.0, initial=state
        )
        samples.append(sample(duration_s, state))
    return samples


class TestStepResponseOracle:
    """``run_step_response`` (a batch of one through
    ``batched_step_responses``) against a direct scalar march."""

    @pytest.mark.parametrize("u_before, u_after, duration_s, dt_s, n_full", [
        (0.1, 1.0, 0.5, 0.05, 10),   # exact multiple
        (1.0, 0.3, 0.12, 0.05, 2),   # partial final step
        (0.4, 0.9, 0.05, 0.05, 1),   # single full step
    ])
    def test_bit_identical_to_direct_march(
        self, u_before, u_after, duration_s, dt_s, n_full
    ):
        config = CosimConfig(nx=22, ny=11)
        got = TransientCosim(config).run_step_response(
            u_before, u_after, duration_s=duration_s, dt_s=dt_s
        )
        want = direct_march(config, u_before, u_after, duration_s, dt_s,
                            n_full)
        assert got == want

    def test_other_coolant_point(self):
        config = CosimConfig(nx=22, ny=11,
                             total_flow_ml_min=338.0,
                             inlet_temperature_k=310.0)
        got = TransientCosim(config).run_step_response(
            0.2, 0.8, duration_s=0.17, dt_s=0.04
        )
        assert got == direct_march(config, 0.2, 0.8, 0.17, 0.04, 4)


class TestSettlingTime:
    def test_millisecond_scale(self, cosim, step_up):
        """The thermal time constant is O(100 ms) — fast enough for DVFS
        policies to treat the coolant as quasi-static."""
        settle = cosim.settling_time_s(step_up, 0.9)
        assert 0.02 < settle < 0.5

    def test_flat_trajectory_settles_immediately(self, cosim):
        flat = [
            TransientSample(0.0, 40.0, 30.0, 6.0),
            TransientSample(0.1, 40.0, 30.0, 6.0),
        ]
        assert cosim.settling_time_s(flat) == 0.0

    def test_rejects_bad_fraction(self, cosim, step_up):
        with pytest.raises(ConfigurationError):
            cosim.settling_time_s(step_up, 1.5)

    def test_overshoot_does_not_settle_early(self, cosim):
        """Regression: the first crossing of the start->end span used to be
        reported even when the trajectory overshot and came back."""
        trajectory = [
            TransientSample(0.0, 30.0, 27.0, 6.0),
            TransientSample(0.1, 55.0, 29.0, 6.1),  # overshoot through 50
            TransientSample(0.2, 48.5, 28.5, 6.05),  # 1.5 C out of band
            TransientSample(0.3, 50.0, 28.4, 6.04),
            TransientSample(0.4, 50.0, 28.4, 6.04),
        ]
        # Band at fraction 0.95: 0.05 * |50 - 30| = 1.0 C around 50 C. The
        # old first-crossing rule reported 0.1 s; the trajectory is last
        # outside the band at 0.2 s, so it settles at 0.3 s.
        assert cosim.settling_time_s(trajectory, 0.95) == pytest.approx(0.3)

    def test_excursion_with_equal_endpoints_settles_after_it(self, cosim):
        trajectory = [
            TransientSample(0.0, 40.0, 30.0, 6.0),
            TransientSample(0.1, 45.0, 31.0, 6.2),
            TransientSample(0.2, 40.0, 30.0, 6.0),
            TransientSample(0.3, 40.0, 30.0, 6.0),
        ]
        assert cosim.settling_time_s(trajectory) == pytest.approx(0.2)

    def test_empty_sample_list_raises(self, cosim):
        """Regression: used to raise IndexError on samples[0]."""
        with pytest.raises(ConfigurationError):
            cosim.settling_time_s([])

    def test_single_sample_settles_at_its_time(self, cosim):
        only = [TransientSample(0.25, 40.0, 30.0, 6.0)]
        assert cosim.settling_time_s(only) == pytest.approx(0.25)
