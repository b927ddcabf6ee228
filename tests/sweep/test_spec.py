"""Tests for scenario specs and grid expansion."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sweep import ScenarioSpec, SweepGrid


class TestScenarioSpec:
    def test_defaults_are_table2_nominal(self):
        spec = ScenarioSpec()
        assert spec.total_flow_ml_min == 676.0
        assert spec.inlet_temperature_k == 300.0
        assert spec.channel_width_um == 200.0
        assert spec.wall_width_um == 100.0
        assert spec.evaluator == "operating_point"
        assert spec.pump_efficiency == 0.5  # the paper's pump
        assert spec.controller == "pid"

    @pytest.mark.parametrize("changes", [
        {"total_flow_ml_min": 0.0},
        {"total_flow_ml_min": -1.0},
        {"inlet_temperature_k": -5.0},
        {"channel_width_um": 0.0},
        {"wall_width_um": -1.0},
        {"operating_voltage_v": 0.0},
        {"utilization": 1.5},
        {"utilization": -0.1},
        {"utilization_before": 1.5},
        {"utilization_before": -0.1},
        {"step_duration_s": 0.0},
        {"step_dt_s": 0.0},
        {"step_dt_s": 0.2, "step_duration_s": 0.1},
        {"nx": 1},
        {"vrm": "bucK"},
        {"workload": "full loda"},
        {"pump_efficiency": 0.0},
        {"pump_efficiency": 1.01},
        {"trace": "stpe"},
        {"trace_seed": -1},
        {"controller": "bang-bang"},
        {"pid_kp": -1.0},
        {"pid_ki": -0.5},
    ])
    def test_validation_rejects(self, changes):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(**changes)

    @pytest.mark.parametrize(
        "evaluator", ["cosim", "transient", "runtime", "fleet_chip", "fleet"]
    )
    def test_grouped_evaluators_reject_an_undivided_raster(self, evaluator):
        """These evaluators split nx into the 11 channel groups: a raster
        the groups do not divide fails at construction and on replace of
        either field, naming nx, instead of at evaluation."""
        with pytest.raises(ConfigurationError, match="nx=23"):
            ScenarioSpec(evaluator=evaluator, nx=23, ny=11)
        with pytest.raises(ConfigurationError, match="nx=23"):
            ScenarioSpec(evaluator=evaluator, nx=22, ny=11).replace(nx=23)
        with pytest.raises(ConfigurationError, match="nx=23"):
            ScenarioSpec(nx=23, ny=11).replace(evaluator=evaluator)

    def test_operating_point_takes_any_raster(self):
        assert ScenarioSpec(evaluator="operating_point", nx=23, ny=11).nx == 23

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ScenarioSpec._FLOAT_FIELDS)
    def test_non_finite_floats_rejected_by_name(self, field, value):
        """NaN passes every ``x <= 0`` check; the field must be named."""
        with pytest.raises(ConfigurationError, match=field):
            ScenarioSpec(**{field: value})

    @pytest.mark.parametrize(
        "value", ["fast", None, float("nan"), float("inf"), 10**400]
    )
    @pytest.mark.parametrize(
        "field", ScenarioSpec._INT_FIELDS + ("total_flow_ml_min", "pid_kp")
    )
    def test_non_numbers_rejected_by_name(self, field, value):
        """A value that is no finite number names its field instead of
        escaping as a bare TypeError/ValueError/OverflowError, on
        construction and on replace alike."""
        with pytest.raises(ConfigurationError, match=field):
            ScenarioSpec(**{field: value})
        with pytest.raises(ConfigurationError, match=field):
            ScenarioSpec().replace(**{field: value})

    @pytest.mark.parametrize("field", ScenarioSpec._INT_FIELDS)
    @pytest.mark.parametrize(
        ("value", "message"),
        [
            (float("inf"), "must be a finite number, got inf"),
            (10**400, "is out of range"),
        ],
    )
    def test_out_of_range_ints_say_why(self, field, value, message):
        for build in (ScenarioSpec, ScenarioSpec().replace):
            with pytest.raises(ConfigurationError, match=message) as caught:
                build(**{field: value})
            assert str(caught.value).startswith(field)

    def test_replace_validates_field_names(self):
        spec = ScenarioSpec()
        assert spec.replace(total_flow_ml_min=48.0).total_flow_ml_min == 48.0
        with pytest.raises(ConfigurationError):
            spec.replace(flow=48.0)

    def test_specs_are_hashable_and_comparable(self):
        assert ScenarioSpec() == ScenarioSpec()
        assert len({ScenarioSpec(), ScenarioSpec()}) == 1


class TestCacheKey:
    def test_stable_across_instances(self):
        assert ScenarioSpec().cache_key() == ScenarioSpec().cache_key()

    def test_label_excluded_from_identity(self):
        assert (
            ScenarioSpec(label="a").cache_key()
            == ScenarioSpec(label="b").cache_key()
        )

    def test_numpy_scalars_are_coerced(self):
        # Grids built from np.linspace/arange must hash and key
        # identically to plain-float ones.
        spec = ScenarioSpec(
            total_flow_ml_min=np.float64(676.0), nx=np.int64(44)
        )
        assert type(spec.total_flow_ml_min) is float
        assert type(spec.nx) is int
        assert spec == ScenarioSpec()
        assert spec.cache_key() == ScenarioSpec().cache_key()

    def test_numpy_grid_expands_and_keys(self):
        grid = SweepGrid.from_dict({"nx": np.arange(22, 66, 22)})
        specs = grid.expand()
        assert [s.nx for s in specs] == [22, 44]
        assert all(isinstance(s.cache_key(), str) for s in specs)

    def test_physical_fields_change_the_key(self):
        base = ScenarioSpec()
        for changes in (
            {"total_flow_ml_min": 48.0},
            {"inlet_temperature_k": 310.15},
            {"vrm": "sc"},
            {"workload": "idle"},
            {"nx": 88, "ny": 44},
            {"evaluator": "geometry"},
        ):
            assert base.replace(**changes).cache_key() != base.cache_key()


class TestSweepGrid:
    def test_expansion_size_and_order(self):
        grid = SweepGrid.from_dict({
            "channel_width_um": (100.0, 200.0),
            "total_flow_ml_min": (338.0, 676.0, 1352.0),
        })
        assert len(grid) == 6
        specs = grid.expand(ScenarioSpec(evaluator="geometry"))
        assert len(specs) == 6
        # Row-major: last axis varies fastest.
        assert [s.total_flow_ml_min for s in specs[:3]] == [338.0, 676.0, 1352.0]
        assert [s.channel_width_um for s in specs] == [100.0] * 3 + [200.0] * 3
        # Unswept fields keep the base value.
        assert all(s.evaluator == "geometry" for s in specs)

    def test_expand_default_base(self):
        specs = SweepGrid.from_dict({"utilization": (0.5, 1.0)}).expand()
        assert [s.utilization for s in specs] == [0.5, 1.0]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepGrid.from_dict({"flow": (1.0,)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepGrid.from_dict({"total_flow_ml_min": ()})

    def test_string_axis_values_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepGrid((("vrm", "ideal"),))

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepGrid((
                ("total_flow_ml_min", (1.0,)),
                ("total_flow_ml_min", (2.0,)),
            ))

    def test_invalid_grid_values_fail_at_expansion(self):
        grid = SweepGrid.from_dict({"total_flow_ml_min": (676.0, -1.0)})
        with pytest.raises(ConfigurationError):
            grid.expand()
