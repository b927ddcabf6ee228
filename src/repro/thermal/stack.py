"""Chip layer-stack description for the thermal model.

A :class:`LayerStack` lists layers bottom-to-top. Two kinds exist:

- :class:`SolidLayer` — a homogeneous solid slab (BEOL, bulk silicon, cap
  wafer, TIM ...), one temperature DOF per lateral grid cell;
- :class:`MicrochannelLayer` — the etched channel layer of Fig. 1: silicon
  walls alternating with electrolyte channels at the array pitch. Each
  lateral cell carries *two* DOFs (wall and fluid), the standard
  two-equation treatment of microchannel heat sinks; the fluid DOF advects
  enthalpy along the flow axis and exchanges heat with the channel floor,
  ceiling and the (finned) side walls.

The paper's case-study stack is built by
:func:`repro.casestudy.power7plus.build_thermal_stack`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geometry.array import ChannelArray
from repro.materials.fluid import Fluid
from repro.materials.solids import SILICON, SolidMaterial


@dataclass(frozen=True)
class SolidLayer:
    """A homogeneous solid layer.

    Parameters
    ----------
    name:
        Unique identifier within the stack ("active_si", "cap", ...).
    thickness_m:
        Layer thickness [m].
    material:
        Thermal properties.
    """

    name: str
    thickness_m: float
    material: SolidMaterial = SILICON

    def __post_init__(self) -> None:
        # Written as ``not 0 < x < inf`` so NaN and inf fail the checks too.
        if not 0.0 < self.thickness_m < math.inf:
            raise ConfigurationError(
                f"layer {self.name}: thickness_m must be finite and > 0, "
                f"got {self.thickness_m}"
            )

    @property
    def is_channel(self) -> bool:
        return False


@dataclass(frozen=True)
class MicrochannelLayer:
    """The microfluidic channel layer (walls + flowing electrolyte).

    Parameters
    ----------
    name:
        Unique identifier within the stack.
    array:
        Channel-array layout (unit channel geometry, count, pitch, flow
        axis). The layer thickness equals the channel height.
    fluid:
        Coolant/electrolyte properties.
    total_flow_m3_s:
        Total volumetric flow through the whole array [m^3/s].
    inlet_temperature_k:
        Coolant inlet temperature [K] (300 K in Table II).
    wall_material:
        Material of the inter-channel walls (silicon).
    heat_transfer_enhancement:
        Multiplier on the open-channel Nusselt heat-transfer coefficient.
        Channels filled with flow-through porous electrodes (the array
        configuration of the case study) exchange heat far better than
        open ducts — porous-media literature reports 2-5x; the case study
        uses a conservative 1.4. Default 1.0 models plain channels.
    flow_weights:
        Optional relative flow allocation across the channels (one value
        per cell across the flow axis; normalised internally). ``None``
        means the even split the paper assumes. Laminar fully developed
        heat transfer keeps h flow-independent, so only the advective
        capacity varies — allocating coolant toward hot columns is a pure
        redistribution of the same total flow (bench A11).
    """

    name: str
    array: ChannelArray
    fluid: Fluid
    total_flow_m3_s: float
    inlet_temperature_k: float = 300.0
    wall_material: SolidMaterial = SILICON
    heat_transfer_enhancement: float = 1.0
    flow_weights: "tuple[float, ...] | None" = None

    def __post_init__(self) -> None:
        for field in (
            "total_flow_m3_s", "inlet_temperature_k",
            "heat_transfer_enhancement",
        ):
            value = getattr(self, field)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"layer {self.name}: {field} must be finite and > 0, "
                    f"got {value}"
                )
        if self.flow_weights is not None:
            weights = tuple(float(w) for w in self.flow_weights)
            if not weights or not all(0.0 < w < math.inf for w in weights):
                raise ConfigurationError(
                    f"layer {self.name}: flow weights must be finite and "
                    f"positive, got {self.flow_weights}"
                )
            object.__setattr__(self, "flow_weights", weights)

    def normalized_flow_weights(self, n_across: int) -> "tuple[float, ...]":
        """Per-column flow shares summing to 1 (even split if unset)."""
        if self.flow_weights is None:
            return tuple(1.0 / n_across for _ in range(n_across))
        if len(self.flow_weights) != n_across:
            raise ConfigurationError(
                f"layer {self.name}: {len(self.flow_weights)} flow weights for "
                f"{n_across} across-flow cells"
            )
        total = sum(self.flow_weights)
        return tuple(w / total for w in self.flow_weights)

    @property
    def thickness_m(self) -> float:
        """Layer thickness = channel etch depth [m]."""
        return self.array.channel.height_m

    @property
    def is_channel(self) -> bool:
        return True

    @property
    def fluid_fraction(self) -> float:
        """Plan-view fraction of the layer occupied by channels."""
        return self.array.channel.width_m / self.array.pitch_m

    @property
    def per_channel_flow_m3_s(self) -> float:
        """Flow through one channel [m^3/s]."""
        return self.array.per_channel_flow(self.total_flow_m3_s)


Layer = "SolidLayer | MicrochannelLayer"


@dataclass(frozen=True)
class LayerStack:
    """An ordered (bottom -> top) list of layers with unique names."""

    layers: "tuple[SolidLayer | MicrochannelLayer, ...]"

    def __init__(self, layers) -> None:
        layers = tuple(layers)
        if not layers:
            raise ConfigurationError("a stack needs at least one layer")
        names = [layer.name for layer in layers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate layer names in stack: {names}")
        object.__setattr__(self, "layers", layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def index_of(self, name: str) -> int:
        """Index of the layer with the given name."""
        for k, layer in enumerate(self.layers):
            if layer.name == name:
                return k
        raise ConfigurationError(f"no layer named {name!r} in stack")

    @property
    def total_thickness_m(self) -> float:
        """Stack height [m]."""
        return sum(layer.thickness_m for layer in self.layers)
