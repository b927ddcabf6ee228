"""Optimization preset registry and the studies' structural invariants."""

import pytest

from repro.errors import ConfigurationError
from repro.opt import ContinuousAxis, Optimizer, get_preset, preset_names
from repro.opt.presets import PRESETS
from repro.sweep.evaluators import evaluator_names


class TestRegistry:
    def test_names_sorted_and_complete(self):
        assert preset_names() == (
            "fleet-allocation", "flow-optimum", "geometry-pareto",
            "runtime-pid", "vrm-tradeoff"
        )
        assert set(preset_names()) == set(PRESETS)

    def test_get_preset_roundtrip(self):
        for name in preset_names():
            assert get_preset(name).name == name

    def test_unknown_preset_lists_available(self):
        with pytest.raises(ConfigurationError, match="flow-optimum"):
            get_preset("nonsense")


class TestPresetStructure:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_evaluator_registered(self, name):
        preset = get_preset(name)
        assert preset.problem.base.evaluator in evaluator_names()

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_description_one_line(self, name):
        description = get_preset(name).description
        assert description
        assert "\n" not in description

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_optimizer_factory(self, name):
        preset = get_preset(name)
        optimizer = preset.optimizer()
        assert isinstance(optimizer, Optimizer)
        assert optimizer.max_rounds == preset.max_rounds
        assert preset.optimizer(max_rounds=1).max_rounds == 1

    def test_flow_optimum_is_a_constrained_scalar_search(self):
        preset = get_preset("flow-optimum")
        assert len(preset.problem.objectives) == 1
        assert preset.problem.objectives[0].describe() == "max net_w"
        described = [c.describe() for c in preset.problem.constraints]
        assert "peak_temperature_c <= 85" in described
        assert "delivered_w >= 5" in described
        (axis,) = preset.problem.axes
        assert isinstance(axis, ContinuousAxis)
        assert axis.scale == "log"

    def test_multi_objective_presets_declare_a_tradeoff(self):
        for name in ("geometry-pareto", "vrm-tradeoff"):
            objectives = get_preset(name).problem.objectives
            assert len(objectives) == 2
            assert {o.mode for o in objectives} == {"max", "min"}

    def test_runtime_pid_tunes_gains_under_the_thermal_limit(self):
        preset = get_preset("runtime-pid")
        assert preset.problem.base.evaluator == "runtime"
        assert preset.problem.base.controller == "pid"
        assert preset.problem.base.trace == "bursty"
        assert {a.field for a in preset.problem.axes} == {
            "pid_kp", "pid_ki"
        }
        (objective,) = preset.problem.objectives
        assert objective.describe() == "max net_energy_j"
        described = [c.describe() for c in preset.problem.constraints]
        assert "peak_temperature_c <= 85" in described

    def test_vrm_tradeoff_excludes_the_ideal_regulator(self):
        preset = get_preset("vrm-tradeoff")
        categorical = [
            a for a in preset.problem.axes if hasattr(a, "values")
            and not isinstance(a, ContinuousAxis)
        ]
        (vrm_axis,) = categorical
        assert "ideal" not in vrm_axis.values
