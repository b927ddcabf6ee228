"""Grid contracts every named sweep preset must honour.

The result store keys scenarios by :meth:`ScenarioSpec.cache_key`, so a
preset grid that repeats a scenario wastes an evaluation and one that
reorders between runs defeats replay. Each preset is checked at several
densities without evaluating anything.
"""

import pytest

from repro.sweep import get_preset, preset_names

DENSITIES = (1, 2, 4, 8, 16)


@pytest.fixture(params=preset_names())
def preset(request):
    return get_preset(request.param)


def test_scenarios_are_distinct(preset):
    for points in DENSITIES:
        keys = [spec.cache_key() for spec in preset.expand(points)]
        assert len(keys) == len(set(keys)), (preset.name, points)


def test_expansion_is_reproducible(preset):
    first = [spec.cache_key() for spec in preset.expand()]
    second = [spec.cache_key() for spec in preset.expand()]
    assert first == second


def test_size_grows_with_requested_points(preset):
    sizes = [len(preset.expand(points)) for points in DENSITIES]
    assert sizes[0] >= 1
    assert sizes == sorted(sizes)
    assert all(size >= points for size, points in zip(sizes, DENSITIES))


def test_every_axis_moves_on_a_dense_grid(preset):
    """Densifying reaches every axis, so none is a constant that belongs
    in the base spec. (The default grid may hold an axis at one value: the
    runtime preset keeps a single starting flow until asked for more.)"""
    points = DENSITIES[-1]
    specs = preset.expand(points)
    for axis in preset.grid(points).axis_names:
        values = {getattr(spec, axis) for spec in specs}
        assert len(values) > 1, (preset.name, axis)
