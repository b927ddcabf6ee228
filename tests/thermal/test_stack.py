"""Tests for thermal layer-stack definitions."""

import pytest

from repro.errors import ConfigurationError
from repro.geometry.array import ChannelArray
from repro.geometry.channel import RectangularChannel
from repro.materials.fluid import vanadium_electrolyte_fluid
from repro.materials.solids import SILICON
from repro.thermal.stack import LayerStack, MicrochannelLayer, SolidLayer


@pytest.fixture
def channel_layer():
    channel = RectangularChannel(200e-6, 400e-6, 22e-3)
    array = ChannelArray(channel, 88, 300e-6)
    return MicrochannelLayer(
        "channels", array, vanadium_electrolyte_fluid(), 676e-6 / 60.0
    )


class TestSolidLayer:
    def test_defaults(self):
        layer = SolidLayer("si", 300e-6)
        assert layer.material is SILICON
        assert not layer.is_channel

    def test_rejects_zero_thickness(self):
        with pytest.raises(ConfigurationError):
            SolidLayer("bad", 0.0)


class TestMicrochannelLayer:
    def test_thickness_is_channel_height(self, channel_layer):
        assert channel_layer.thickness_m == pytest.approx(400e-6)

    def test_fluid_fraction(self, channel_layer):
        assert channel_layer.fluid_fraction == pytest.approx(200.0 / 300.0)

    def test_is_channel(self, channel_layer):
        assert channel_layer.is_channel

    def test_rejects_zero_flow(self, channel_layer):
        with pytest.raises(ConfigurationError):
            MicrochannelLayer(
                "bad", channel_layer.array, channel_layer.fluid, 0.0
            )

    def test_rejects_bad_enhancement(self, channel_layer):
        with pytest.raises(ConfigurationError):
            MicrochannelLayer(
                "bad", channel_layer.array, channel_layer.fluid, 1e-5,
                heat_transfer_enhancement=0.0,
            )


class TestLayerStack:
    def test_index_lookup(self, channel_layer):
        stack = LayerStack([SolidLayer("die", 300e-6), channel_layer])
        assert stack.index_of("channels") == 1

    def test_unknown_layer_raises(self, channel_layer):
        stack = LayerStack([SolidLayer("die", 300e-6), channel_layer])
        with pytest.raises(ConfigurationError):
            stack.index_of("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            LayerStack([SolidLayer("a", 1e-4), SolidLayer("a", 1e-4)])

    def test_empty_stack_rejected(self):
        with pytest.raises(ConfigurationError):
            LayerStack([])
