"""Flow-cell array: N channels electrically in parallel.

The POWER7+ study connects 88 identical channels in parallel (Fig. 1): they
share the cell voltage and their currents add. For a uniform-temperature
array this reduces to scaling one channel's polarization curve by N; the
electro-thermal co-simulation additionally needs the *heterogeneous* case
where every channel sits at its own temperature, so the array can also
combine distinct per-channel curves at a common voltage.
"""

from __future__ import annotations

from typing import Sequence

from repro.electrochem.polarization import PolarizationCurve
from repro.errors import ConfigurationError
from repro.geometry.array import ChannelArray


class FlowCellArray:
    """Electrical aggregate of N parallel flow-cell channels.

    Parameters
    ----------
    channel_curve:
        Polarization curve of ONE channel (any of the cell models).
    count:
        Number of channels in parallel.
    layout:
        Optional :class:`~repro.geometry.array.ChannelArray` carrying the
        geometric layout, used by reporting and the thermal embedding.
    """

    def __init__(
        self,
        channel_curve: PolarizationCurve,
        count: int,
        layout: "ChannelArray | None" = None,
    ) -> None:
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        if layout is not None and layout.count != count:
            raise ConfigurationError(
                f"layout holds {layout.count} channels but count={count}"
            )
        self.count = count
        self.layout = layout
        self.channel_curve = channel_curve
        self.curve = channel_curve.scaled(
            count, label=f"{count}-channel array ({channel_curve.label})"
        )

    # -- characteristics -------------------------------------------------------

    @property
    def open_circuit_voltage_v(self) -> float:
        """Array OCV [V] (equals the single-channel OCV)."""
        return self.curve.open_circuit_voltage_v

    @property
    def max_current_a(self) -> float:
        """Largest array current on the sampled curve [A]."""
        return self.curve.max_current_a

    def current_at_voltage(self, voltage_v: float) -> float:
        """Array current [A] delivered at a terminal voltage [V]."""
        return self.curve.current_at_voltage(voltage_v)

    def power_at_voltage(self, voltage_v: float) -> float:
        """Array electrical power [W] at a terminal voltage [V]."""
        return self.curve.power_at_voltage(voltage_v)

    @property
    def max_power_w(self) -> float:
        """Maximum power point of the array [W]."""
        return self.curve.max_power_w

    # -- heterogeneous combination -------------------------------------------------

    @staticmethod
    def combine_at_voltage(
        channel_curves: Sequence[PolarizationCurve], voltage_v: float
    ) -> float:
        """Total current [A] of distinct parallel channels at one voltage.

        Channels whose curve does not reach the requested voltage (e.g. a
        cold channel with OCV below it) contribute zero — they are
        open-circuit at that terminal voltage rather than sinks, because a
        discharge-only cell cannot conduct in reverse in this model.
        """
        total = 0.0
        for curve in channel_curves:
            v_min = float(curve.voltage_v[-1])
            v_max = float(curve.voltage_v[0])
            if voltage_v >= v_max:
                continue
            clamped = max(voltage_v, v_min)
            total += curve.current_at_voltage(clamped)
        return total
