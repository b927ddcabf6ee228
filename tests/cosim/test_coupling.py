"""Tests for the electro-thermal co-simulation (Section III-B)."""

import math

import numpy as np
import pytest

from repro.cosim import CosimConfig, CosimResult, ElectroThermalCosim, coupling
from repro.cosim.coupling import MAX_ITERATIONS, N_CHANNEL_GROUPS
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def nominal_result():
    """Nominal coupled run at a reduced raster for speed."""
    config = CosimConfig(nx=44, ny=22)
    return ElectroThermalCosim(config).run()


class TestConfig:
    def test_nx_must_divide_groups(self):
        with pytest.raises(ConfigurationError, match="nx=90"):
            CosimConfig(nx=90)

    def test_rejects_inlet_outside_surface_range(self):
        with pytest.raises(ConfigurationError, match="inlet_temperature_k"):
            CosimConfig(inlet_temperature_k=500.0)

    @pytest.mark.parametrize(
        "field", ["total_flow_ml_min", "inlet_temperature_k", "operating_voltage_v"]
    )
    @pytest.mark.parametrize("value", [-1.0, 0.0])
    def test_rejects_non_positive_operating_point(self, field, value):
        """A negative voltage used to run to 53.2 A of 'generated' current;
        each operating-point field fails at construction, by name (the
        non-finite rows are in ``test_guards.py``)."""
        with pytest.raises(ConfigurationError, match=field):
            CosimConfig(nx=22, ny=11, **{field: value})


class TestNominalCoupling:
    def test_converges(self, nominal_result):
        assert nominal_result.converged
        assert nominal_result.iterations <= MAX_ITERATIONS

    def test_paper_s2_anchor_small_gain(self, nominal_result):
        """At the nominal flow the paper reports at most ~4 % change."""
        assert 0.0 <= nominal_result.current_gain < 0.05

    def test_temperatures_above_inlet(self, nominal_result):
        assert np.all(
            nominal_result.group_temperatures_k
            >= nominal_result.config.inlet_temperature_k - 1e-9
        )

    def test_group_currents_positive(self, nominal_result):
        assert np.all(nominal_result.group_currents_a > 0.0)

    def test_total_current_consistent(self, nominal_result):
        assert nominal_result.array_current_a == pytest.approx(
            float(nominal_result.group_currents_a.sum())
        )

    def test_power_at_operating_voltage(self, nominal_result):
        assert nominal_result.array_power_w == pytest.approx(
            nominal_result.array_current_a * 1.0
        )

    def test_peak_temperature_close_to_uncoupled(self, nominal_result):
        """Cell self-heating (~4 W over 150 W chip) barely moves the peak."""
        assert nominal_result.peak_temperature_c == pytest.approx(41.0, abs=3.5)


class TestStressScenarios:
    def test_low_flow_gain_matches_paper(self):
        """48 ml/min: the paper's 'up to 23 %' power-gain scenario."""
        config = CosimConfig(
            total_flow_ml_min=48.0, nx=44, ny=22,
        )
        result = ElectroThermalCosim(config).run()
        assert result.converged
        assert 0.15 < result.current_gain < 0.33

    def test_warm_inlet_gain_positive(self):
        """37 C inlet: a clear but smaller thermally induced gain."""
        config = CosimConfig(
            inlet_temperature_k=310.15, nx=44, ny=22,
        )
        result = ElectroThermalCosim(config).run()
        assert result.converged
        # vs the same-inlet isothermal reference the incremental gain is
        # small; the paper's comparison is vs the 27 C case.
        assert result.current_gain >= 0.0

    def test_warm_inlet_beats_nominal_current(self, nominal_result):
        config = CosimConfig(
            inlet_temperature_k=310.15, nx=44, ny=22,
        )
        warm = ElectroThermalCosim(config).run()
        gain_vs_27c = warm.array_current_a / nominal_result.isothermal_current_a - 1.0
        assert 0.05 < gain_vs_27c < 0.20

    def test_low_flow_runs_hot(self):
        config = CosimConfig(
            total_flow_ml_min=48.0, nx=44, ny=22,
        )
        result = ElectroThermalCosim(config).run()
        # ~45 K coolant rise at 48 ml/min pushes the peak toward 85-90 C.
        assert result.peak_temperature_c > 70.0


def _result_with_currents(array_current_a, isothermal_current_a):
    """A CosimResult with just the fields the gain properties read."""
    return CosimResult(
        config=CosimConfig(nx=44, ny=22),
        iterations=1,
        converged=True,
        group_temperatures_k=np.full(11, 300.0),
        group_currents_a=np.full(11, array_current_a / 11.0),
        array_current_a=array_current_a,
        array_power_w=array_current_a,
        isothermal_current_a=isothermal_current_a,
        thermal=None,
    )


class TestCurrentGainContract:
    def test_zero_isothermal_reference_yields_nan(self):
        """Regression: operating voltage above the isothermal OCV used to
        raise ZeroDivisionError; the documented contract is nan."""
        result = _result_with_currents(0.0, 0.0)
        assert math.isnan(result.current_gain)

    def test_nonzero_reference_unchanged(self):
        result = _result_with_currents(6.3, 6.0)
        assert result.current_gain == pytest.approx(0.05)

    def test_voltage_above_ocv_runs_to_nan_gain(self):
        """End-to-end: at a voltage above every OCV the run produces zero
        currents and a nan gain (not a ZeroDivisionError, and not a fake
        finite gain from interpolation slivers)."""
        config = CosimConfig(
            nx=22, ny=11, operating_voltage_v=2.0,
        )
        result = ElectroThermalCosim(config).run()
        assert result.array_current_a == 0.0
        assert result.isothermal_current_a == 0.0
        assert math.isnan(result.current_gain)

    def test_rebound_config_is_honored(self):
        """Rebinding .config between runs must not serve results from the
        stale surface or thermal model."""
        cosim = ElectroThermalCosim(
            CosimConfig(nx=22, ny=11)
        )
        nominal = cosim.run()
        cosim.config = CosimConfig(
            nx=22, ny=11, total_flow_ml_min=48.0,
        )
        low_flow = cosim.run()
        assert low_flow.peak_temperature_c > nominal.peak_temperature_c + 20.0
        assert low_flow.array_current_a > nominal.array_current_a

    def test_repeated_runs_share_state_safely(self):
        """The kept family model and the shared surface must not let one
        run contaminate the next."""
        cosim = ElectroThermalCosim(
            CosimConfig(nx=22, ny=11)
        )
        first = cosim.run()
        second = cosim.run()
        assert second.array_current_a == pytest.approx(
            first.array_current_a, rel=1e-9
        )
        assert second.iterations == first.iterations


class TestHeatFeedback:
    def test_cell_heat_raises_temperature_slightly(self, nominal_result):
        """Against the chip-only steady solve (no cell heat fed back)."""
        from repro.casestudy.power7plus import build_thermal_model

        cold = build_thermal_model(nx=44, ny=22).solve_steady()
        warm = nominal_result
        assert warm.peak_temperature_c >= cold.peak_celsius - 0.05
        # The polarization loss at 6 A is ~4 W against a 151 W chip: small.
        assert warm.peak_temperature_c - cold.peak_celsius < 1.0

    @pytest.mark.parametrize("flow, max_iterations, converged", [
        (676.0, 10, True),
        (59.0, 2, False),
    ], ids=["converged", "stopped-at-max-iterations"])
    def test_final_thermal_state_balances_its_own_power(
        self, flow, max_iterations, converged, monkeypatch
    ):
        """The returned solution's model carries the cell heat it was
        solved with, so its energy balance closes to solver accuracy
        (a map set after the last solve read 1e-4..1e-3 W here)."""
        monkeypatch.setattr(coupling, "MAX_ITERATIONS", max_iterations)
        result = ElectroThermalCosim(CosimConfig(
            total_flow_ml_min=flow, nx=22, ny=11,
        )).run()
        assert result.converged is converged
        assert result.iterations == (2 if converged else max_iterations)
        assert abs(result.thermal.energy_balance_error_w()) < 1e-6
        # The cell heat is in the balance: more than the chip alone.
        model = result.thermal.model
        assert model.total_power_w() > model._sources[
            model._field("active_si").offset
        ].sum()


class TestCoolantColumns:
    """The ``(n_dof, k)`` columns form against the per-column slice means
    it replaced, kept here as the oracle: bit-for-bit, for every batch
    size and every lane position."""

    @staticmethod
    def _oracle(model, column, config):
        from repro.thermal.solver import ThermalSolution

        fluid = ThermalSolution(
            temperatures_k=np.ascontiguousarray(column), model=model
        ).field("channels", "fluid")
        width = config.nx // N_CHANNEL_GROUPS
        groups = np.array([
            float(fluid[:, g * width:(g + 1) * width].mean())
            for g in range(N_CHANNEL_GROUPS)
        ])
        return groups, float(fluid.mean())

    @pytest.mark.parametrize("nx, ny", [(22, 11), (44, 22)])
    def test_matches_per_column_slice_means_at_every_position(self, nx, ny):
        from repro.casestudy.power7plus import build_thermal_model
        from repro.cosim.coupling import coolant_columns

        model = build_thermal_model(nx=nx, ny=ny)
        config = CosimConfig(nx=nx, ny=ny)
        rng = np.random.default_rng(nx)
        lane = 300.0 + 60.0 * rng.random(model.n_dof)
        oracle_groups, oracle_mean = self._oracle(model, lane, config)
        for k in range(1, 9):
            for position in range(k):
                states = 300.0 + 60.0 * rng.random((model.n_dof, k))
                states[:, position] = lane
                groups, means = coolant_columns(model, states)
                assert groups.shape == (k, N_CHANNEL_GROUPS)
                assert np.array_equal(groups[position], oracle_groups)
                assert means[position] == oracle_mean
                for j in range(k):
                    expected, expected_mean = self._oracle(
                        model, states[:, j], config
                    )
                    assert np.array_equal(groups[j], expected)
                    assert means[j] == expected_mean
