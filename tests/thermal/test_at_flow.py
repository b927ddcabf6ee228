"""``ThermalModel.at_flow``: one conduction stamp shared across flows."""

import math

import numpy as np
import pytest

from repro.casestudy.power7plus import (
    build_array_fluid,
    build_array_layout,
    build_thermal_stack,
    thermal_family,
)
from repro.errors import ConfigurationError
from repro.geometry.power7 import build_power7_floorplan
from repro.materials.solids import SILICON
from repro.thermal.model import ThermalModel
from repro.thermal.stack import LayerStack, MicrochannelLayer, SolidLayer
from repro.units import m3s_from_ml_per_min

FLOORPLAN = build_power7_floorplan()
FLOWS_ML_MIN = (30.0, 59.0, 676.0)


def case_study_model(flow_ml_min, inlet_k, nx, ny):
    return ThermalModel(
        build_thermal_stack(flow_ml_min, inlet_k),
        FLOORPLAN.width_m, FLOORPLAN.height_m, nx, ny,
    )


def weighted_stack(flow_ml_min, nx):
    weights = tuple(np.linspace(0.5, 1.5, nx))
    return LayerStack([
        SolidLayer("active_si", 300e-6, SILICON),
        MicrochannelLayer(
            "channels", build_array_layout(), build_array_fluid(),
            m3s_from_ml_per_min(flow_ml_min), flow_weights=weights,
        ),
    ])


def assert_same_system(derived, fresh):
    matrix, rhs = derived._system_structure()
    expected, expected_rhs = fresh._system_structure()
    assert np.array_equal(matrix.indptr, expected.indptr)
    assert np.array_equal(matrix.indices, expected.indices)
    assert np.array_equal(matrix.data, expected.data)
    assert np.array_equal(rhs, expected_rhs)


@pytest.mark.parametrize("inlet_k", [300.0, 310.15])
@pytest.mark.parametrize("nx, ny", [(22, 11), (44, 22)])
def test_derived_system_is_bit_identical(inlet_k, nx, ny):
    family = case_study_model(100.0, inlet_k, nx, ny)
    kept = thermal_family(inlet_k, nx, ny)
    for flow in FLOWS_ML_MIN:
        fresh = case_study_model(flow, inlet_k, nx, ny)
        assert_same_system(family.at_flow(m3s_from_ml_per_min(flow)), fresh)
        # The process's kept family derives the same system, power-free.
        derived = kept.at_flow(flow)
        assert_same_system(derived, fresh)
        assert derived.total_power_w() == 0.0


def test_flow_weights_survive_derivation():
    nx, ny = 22, 11
    family = ThermalModel(
        weighted_stack(100.0, nx), FLOORPLAN.width_m, FLOORPLAN.height_m,
        nx, ny,
    )
    for flow in FLOWS_ML_MIN:
        fresh = ThermalModel(
            weighted_stack(flow, nx), FLOORPLAN.width_m, FLOORPLAN.height_m,
            nx, ny,
        )
        assert_same_system(family.at_flow(m3s_from_ml_per_min(flow)), fresh)


def test_derived_models_share_one_conduction_matrix():
    family = case_study_model(100.0, 300.0, 22, 11)
    derived = [
        family.at_flow(m3s_from_ml_per_min(flow)) for flow in FLOWS_ML_MIN
    ]
    # A model derived from a derived one joins the same family.
    derived.append(derived[0].at_flow(m3s_from_ml_per_min(200.0)))
    assert family._conduction is not None
    assert all(model._conduction is family._conduction for model in derived)
    assert not derived[0]._sources


def test_directly_built_model_keeps_no_conduction_copy():
    model = case_study_model(100.0, 300.0, 22, 11)
    model.set_power_map("active_si", np.full((11, 22), 0.1))
    model.solve_steady()
    assert model._conduction is None


@pytest.mark.parametrize("flow", [math.nan, math.inf, 0.0, -1e-6])
def test_bad_flow_rejected_by_name(flow):
    family = case_study_model(100.0, 300.0, 22, 11)
    with pytest.raises(ConfigurationError, match="total_flow_m3_s"):
        family.at_flow(flow)


def two_channel_stack():
    def channels(name):
        return MicrochannelLayer(
            name, build_array_layout(), build_array_fluid(),
            m3s_from_ml_per_min(100.0),
        )

    return LayerStack([
        SolidLayer("active_0", 300e-6, SILICON),
        channels("channels_0"),
        SolidLayer("active_1", 300e-6, SILICON),
        channels("channels_1"),
    ])


@pytest.mark.parametrize("stack, count", [
    (two_channel_stack(), 2),
    (LayerStack([SolidLayer("a", 1e-4), SolidLayer("b", 1e-4)]), 0),
])
def test_stack_without_exactly_one_channel_layer_rejected(stack, count):
    model = ThermalModel(stack, FLOORPLAN.width_m, FLOORPLAN.height_m, 8, 8)
    with pytest.raises(ConfigurationError, match=f"single channel layer.*{count}"):
        model.at_flow(m3s_from_ml_per_min(50.0))
