"""Voltage-regulator-module (VRM) models.

The electrochemical cell potential is set by thermodynamics (~1.65 V for
the charged vanadium couples), not by what the load wants, so the paper
inserts in-package VRMs between the flow-cell array and the on-chip grid
(Figs. 5-6). Three models are provided, matching the technologies the paper
cites:

- :class:`IdealVRM` — lossless, perfectly regulated; isolates grid effects.
- :class:`SwitchedCapacitorVRM` — on-chip SC converter after Andersen et
  al. 2013 (ref [22]): ~86 % peak efficiency, 4.6 W/mm^2 power density,
  efficiency degrading as the conversion ratio departs from the nearest
  rational topology ratio.
- :class:`BuckVRM` — stacked-chip buck after Onizuka et al. 2007
  (ref [23]): wide-ratio regulation at a flatter ~80 % efficiency, needing
  interposer inductors (a lower power density, so more converter area).

The system layer reads a model's ``efficiency`` (1.0 for the ideal
regulator) and its ``required_area_m2(p_out)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.errors import ConfigurationError


class VoltageRegulator(Protocol):
    """Common interface of all VRM models."""

    nominal_output_v: float

    @property
    def efficiency(self) -> float:
        """Delivered / input power, in (0, 1]."""
        ...

    def required_area_m2(self, p_out_w: float) -> float:
        """Silicon/interposer area [m^2] needed to convert ``p_out_w``."""
        ...


@dataclass(frozen=True)
class IdealVRM:
    """Lossless, droop-free regulator (analysis baseline)."""

    nominal_output_v: float = 1.0

    @property
    def efficiency(self) -> float:
        """Lossless: 1.0 (a property, so the serialized form is only
        ``nominal_output_v``)."""
        return 1.0

    def required_area_m2(self, p_out_w: float) -> float:
        return 0.0


@dataclass(frozen=True)
class SwitchedCapacitorVRM:
    """On-chip switched-capacitor converter (Andersen 2013, ref [22]).

    Parameters
    ----------
    input_v:
        Cell-array side voltage [V].
    nominal_output_v:
        Regulated output [V].
    peak_efficiency:
        Efficiency at the ideal rational conversion ratio (0.86 reported).
    power_density_w_m2:
        Converted power per converter area (4.6 W/mm^2 reported).
    ratio_granularity:
        Available topology ratios are multiples of 1/this (2:1, 3:2, ... a
        granularity of 6 models a reconfigurable 1/6-step SC bank).
    """

    input_v: float
    nominal_output_v: float = 1.0
    peak_efficiency: float = 0.86
    power_density_w_m2: float = 4.6e6
    ratio_granularity: int = 6

    def __post_init__(self) -> None:
        if self.input_v <= 0.0 or self.nominal_output_v <= 0.0:
            raise ConfigurationError("voltages must be > 0")
        if not 0.0 < self.peak_efficiency <= 1.0:
            raise ConfigurationError("peak efficiency must be in (0, 1]")
        if self.power_density_w_m2 <= 0.0:
            raise ConfigurationError("power density must be > 0")
        if self.ratio_granularity < 1:
            raise ConfigurationError("ratio granularity must be >= 1")

    @property
    def conversion_ratio(self) -> float:
        """Requested output/input ratio."""
        return self.nominal_output_v / self.input_v

    @property
    def efficiency(self) -> float:
        """Efficiency including the intrinsic SC ratio-mismatch loss.

        An SC converter is lossless only at rational ratios; regulating
        below the nearest available ratio r costs a linear-regulator-like
        factor (V_out/ (r*V_in)). The model picks the best available ratio
        at or above the requested one.
        """
        import math

        requested = self.conversion_ratio
        if requested > 1.0:
            raise ConfigurationError(
                f"SC model is step-down only: ratio {requested:.3f} > 1"
            )
        steps = math.ceil(requested * self.ratio_granularity - 1e-12)
        best_ratio = steps / self.ratio_granularity
        mismatch = requested / best_ratio
        return self.peak_efficiency * mismatch

    def required_area_m2(self, p_out_w: float) -> float:
        return p_out_w / self.power_density_w_m2


@dataclass(frozen=True)
class BuckVRM:
    """Stacked-chip buck converter (Onizuka 2007, ref [23]).

    Flat efficiency across conversion ratios (the inductor does the work)
    but lower power density.
    """

    input_v: float
    nominal_output_v: float = 1.0
    efficiency: float = 0.80
    power_density_w_m2: float = 1.5e6

    def __post_init__(self) -> None:
        if self.input_v <= 0.0 or self.nominal_output_v <= 0.0:
            raise ConfigurationError("voltages must be > 0")
        if self.nominal_output_v > self.input_v:
            raise ConfigurationError("buck model is step-down only")
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError("efficiency must be in (0, 1]")
        if self.power_density_w_m2 <= 0.0:
            raise ConfigurationError("power density must be > 0")

    def required_area_m2(self, p_out_w: float) -> float:
        return p_out_w / self.power_density_w_m2
