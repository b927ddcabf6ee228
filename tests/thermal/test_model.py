"""Tests for the compact thermal model (assembly + steady solve)."""

import numpy as np
import pytest

from repro.casestudy.power7plus import build_thermal_stack
from repro.errors import ConfigurationError
from repro.geometry.array import ChannelArray
from repro.geometry.channel import RectangularChannel
from repro.materials.fluid import vanadium_electrolyte_fluid
from repro.thermal.model import ThermalModel
from repro.thermal.stack import LayerStack, MicrochannelLayer, SolidLayer


def small_model(nx=22, ny=11, power_w=100.0, flow_ml_min=676.0, inlet_k=300.0):
    """A reduced-resolution case-study model with a uniform power map."""
    model = ThermalModel(
        build_thermal_stack(flow_ml_min, inlet_k), 26.55e-3, 21.34e-3, nx, ny
    )
    power = np.full((ny, nx), power_w / (nx * ny))
    model.set_power_map("active_si", power)
    return model


class TestConstruction:
    def test_dof_count(self):
        model = small_model()
        # 3 solid layers + (wall + fluid) = 5 fields.
        assert model.n_dof == 22 * 11 * 5

    def test_adjacent_channel_layers_rejected(self):
        channel = RectangularChannel(200e-6, 400e-6, 22e-3)
        array = ChannelArray(channel, 88, 300e-6)
        fluid = vanadium_electrolyte_fluid()
        layer_a = MicrochannelLayer("a", array, fluid, 1e-5)
        layer_b = MicrochannelLayer("b", array, fluid, 1e-5)
        with pytest.raises(ConfigurationError):
            ThermalModel(LayerStack([layer_a, layer_b]), 0.02, 0.02, 8, 8)

    def test_power_map_shape_checked(self):
        model = small_model()
        with pytest.raises(ConfigurationError):
            model.set_power_map("active_si", np.zeros((5, 5)))

    def test_stack_without_channels_is_singular(self):
        stack = LayerStack([SolidLayer("a", 1e-4), SolidLayer("b", 1e-4)])
        model = ThermalModel(stack, 0.01, 0.01, 6, 6)
        model.set_power_map("a", np.full((6, 6), 1.0))
        with pytest.raises(ConfigurationError):
            model.solve_steady()


class TestSteadyPhysics:
    def test_energy_balance_closes(self):
        solution = small_model().solve_steady()
        assert abs(solution.energy_balance_error_w()) < 1e-6

    def test_outlet_rise_matches_global_balance(self):
        model = small_model(power_w=151.3)
        solution = model.solve_steady()
        fluid = solution.field("channels", "fluid")
        # rho*cp*Q = 47.2 W/K -> 3.2 K bulk rise.
        assert fluid[-1, :].mean() - 300.0 == pytest.approx(151.3 / 47.2, rel=0.02)

    def test_all_temperatures_above_inlet(self):
        solution = small_model().solve_steady()
        assert solution.min_k >= 300.0 - 1e-9

    def test_zero_power_gives_isothermal_inlet(self):
        model = small_model(power_w=0.0)
        solution = model.solve_steady()
        assert solution.peak_k == pytest.approx(300.0, abs=1e-9)
        assert solution.min_k == pytest.approx(300.0, abs=1e-9)

    def test_linear_in_power(self):
        """Double the power, double every temperature rise (linear model)."""
        t1 = small_model(power_w=80.0).solve_steady()
        t2 = small_model(power_w=160.0).solve_steady()
        rise1 = t1.temperatures_k - 300.0
        rise2 = t2.temperatures_k - 300.0
        assert np.allclose(rise2, 2.0 * rise1, rtol=1e-9)

    def test_fluid_warms_downstream(self):
        solution = small_model(power_w=150.0).solve_steady()
        fluid = solution.field("channels", "fluid")
        column_means = fluid.mean(axis=1)
        assert column_means[-1] > column_means[0]

    def test_more_flow_cooler_chip(self):
        hot = small_model(flow_ml_min=100.0).solve_steady()
        cool = small_model(flow_ml_min=1000.0).solve_steady()
        assert cool.peak_k < hot.peak_k

    def test_inlet_temperature_shifts_solution(self):
        base = small_model(inlet_k=300.0).solve_steady()
        warm = small_model(inlet_k=310.0).solve_steady()
        assert warm.peak_k == pytest.approx(base.peak_k + 10.0, abs=0.2)

    def test_source_layer_is_hottest(self):
        solution = small_model(power_w=150.0).solve_steady()
        active = solution.field("active_si")
        cap = solution.field("cap")
        assert active.max() > cap.max()

    def test_flow_along_x_is_the_transposed_flow_along_y(self):
        """Swapping the die's axes together with the flow axis transposes
        every field (unequal flow weights included)."""
        nx, ny, length, width = 9, 7, 0.02, 0.015
        channel = RectangularChannel(200e-6, 400e-6, 22e-3)
        weights = tuple(np.linspace(0.5, 2.0, nx))
        power = np.random.default_rng(3).uniform(0.0, 0.5, (ny, nx))
        solutions = []
        for axis, shape, die, source in (
            ("y", (nx, ny), (length, width), power),
            ("x", (ny, nx), (width, length), power.T),
        ):
            layer = MicrochannelLayer(
                "channels", ChannelArray(channel, 40, 300e-6, flow_axis=axis),
                vanadium_electrolyte_fluid(), 1e-6, flow_weights=weights,
            )
            stack = LayerStack([
                SolidLayer("active_si", 3e-4), layer, SolidLayer("cap", 3e-4),
            ])
            model = ThermalModel(stack, *die, *shape)
            model.set_power_map("active_si", source)
            solutions.append(model.solve_steady())
        along_y, along_x = solutions
        for name, kind in (("active_si", None), ("channels", "wall"),
                           ("channels", "fluid"), ("cap", None)):
            assert np.allclose(
                along_x.field(name, kind), along_y.field(name, kind).T,
                rtol=0.0, atol=1e-9,
            )


class TestFig9Anchor:
    def test_full_load_peak_near_41c(self, thermal_solution):
        """The paper's headline cooling result: 41 C peak at full load."""
        assert thermal_solution.peak_celsius == pytest.approx(41.0, abs=3.0)

    def test_hot_spots_sit_on_cores(self, thermal_solution, floorplan):
        active = thermal_solution.field_celsius("active_si")
        ny, nx = active.shape
        iy, ix = np.unravel_index(np.argmax(active), active.shape)
        x = (ix + 0.5) / nx * floorplan.width_m
        y = (iy + 0.5) / ny * floorplan.height_m
        block = floorplan.block_at(x, y)
        assert block is not None and block.kind.name == "CORE"

    def test_cache_cooler_than_cores(self, thermal_solution, floorplan):
        from repro.geometry.floorplan import BlockKind

        active = thermal_solution.field_celsius("active_si")
        ny, nx = active.shape
        core_mask = floorplan.rasterize_mask(nx, ny, BlockKind.CORE)
        cache_mask = floorplan.rasterize_mask(nx, ny, BlockKind.L2, BlockKind.L3)
        assert active[cache_mask].mean() < active[core_mask].mean()

    def test_energy_balance_full_load(self, thermal_solution):
        assert abs(thermal_solution.energy_balance_error_w()) < 1e-6


class TestRhsColumns:
    """The stacked multi-RHS form the batched solvers take."""

    def test_each_column_is_the_rhs_of_that_power_map(self):
        model = small_model()
        maps = [np.full((11, 22), w / 242.0) for w in (0.0, 50.0, 250.0)]
        columns = model.rhs_columns("active_si", maps)
        assert columns.shape == (model.n_dof, len(maps))
        for k, power in enumerate(maps):
            reference = small_model(power_w=0.0)
            reference.set_power_map("active_si", power)
            _, rhs = reference._build_system()
            # Bit-identical: the batched paths rely on it.
            assert np.array_equal(columns[:, k], rhs)

    def test_ignores_the_models_own_power_maps(self):
        loaded = small_model(power_w=100.0)
        bare = small_model(power_w=0.0)
        power = np.full((11, 22), 1.0)
        assert np.array_equal(
            loaded.rhs_columns("active_si", [power]),
            bare.rhs_columns("active_si", [power]),
        )

    def test_targets_the_named_field(self):
        model = small_model()
        power = np.full((11, 22), 2.0)
        on_beol = model.rhs_columns("beol", [power])
        on_silicon = model.rhs_columns("active_si", [power])
        assert not np.array_equal(on_beol, on_silicon)
        assert on_beol.sum() == pytest.approx(on_silicon.sum())

    def test_power_map_shape_checked(self):
        with pytest.raises(ConfigurationError):
            small_model().rhs_columns("active_si", [np.zeros((3, 3))])


class TestTransient:
    def test_transient_approaches_steady(self):
        model = small_model(nx=12, ny=6, power_w=100.0)
        steady = model.solve_steady()
        transient = model.solve_transient(duration_s=30.0, dt_s=0.5)
        assert transient.peak_k == pytest.approx(steady.peak_k, abs=0.1)

    def test_short_transient_still_cold(self):
        model = small_model(nx=12, ny=6, power_w=100.0)
        steady = model.solve_steady()
        early = model.solve_transient(duration_s=1e-3, dt_s=1e-4)
        assert early.peak_k < steady.peak_k

    def test_monotone_heating(self):
        model = small_model(nx=12, ny=6, power_w=100.0)
        t1 = model.solve_transient(duration_s=0.01, dt_s=0.002)
        t2 = model.solve_transient(duration_s=0.05, dt_s=0.002, initial=t1)
        assert t2.peak_k >= t1.peak_k - 1e-9

    def test_initial_from_uniform(self):
        model = small_model(nx=12, ny=6, power_w=0.0)
        solution = model.solve_transient(duration_s=50.0, dt_s=1.0, initial=350.0)
        # With no power the stack relaxes toward the coolant inlet.
        assert solution.peak_k < 350.0

    def test_rejects_bad_dt(self):
        model = small_model(nx=12, ny=6)
        with pytest.raises(ConfigurationError):
            model.solve_transient(duration_s=1.0, dt_s=0.0)
