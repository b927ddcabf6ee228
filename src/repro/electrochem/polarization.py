"""Polarization and power curves.

A :class:`PolarizationCurve` stores matched arrays of cell current and cell
voltage — the object behind the paper's Fig. 3 (current density vs voltage,
validation cell) and Fig. 7 (current vs voltage, 88-channel array) — and
provides the standard analyses: open-circuit voltage, interpolation in both
directions, power curve and maximum power point.

Voltage is a strictly decreasing function of current for every cell in this
study, which the constructor verifies; interpolation relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PolarizationCurve:
    """Sampled V(I) characteristic of a cell or cell array.

    Parameters
    ----------
    current_a:
        Monotonically increasing current samples [A] starting at 0.
        (For single cells normalised per area, pass current density in
        A/m^2 and read all "current" quantities as densities.)
    voltage_v:
        Cell voltage at each current sample [V], non-increasing.
    label:
        Optional description for reports ("88-channel array, 300 K").
    """

    current_a: np.ndarray
    voltage_v: np.ndarray
    label: str = ""

    def __init__(self, current_a, voltage_v, label: str = "") -> None:
        current = np.asarray(current_a, dtype=float)
        voltage = np.asarray(voltage_v, dtype=float)
        if current.ndim != 1 or voltage.ndim != 1 or current.size != voltage.size:
            raise ConfigurationError("current and voltage must be 1-D arrays of equal size")
        if current.size < 2:
            raise ConfigurationError("a polarization curve needs at least two samples")
        if np.any(np.diff(current) <= 0.0):
            raise ConfigurationError("current samples must be strictly increasing")
        if current[0] < 0.0:
            raise ConfigurationError("current samples must start at >= 0")
        if np.any(np.diff(voltage) > 1e-9):
            raise ConfigurationError("voltage must be non-increasing with current")
        object.__setattr__(self, "current_a", current)
        object.__setattr__(self, "voltage_v", voltage)
        object.__setattr__(self, "label", label)

    # -- scalar characteristics -------------------------------------------------

    @property
    def open_circuit_voltage_v(self) -> float:
        """Voltage of the first (lowest-current) sample [V]."""
        return float(self.voltage_v[0])

    @property
    def max_current_a(self) -> float:
        """Largest sampled current [A]."""
        return float(self.current_a[-1])

    @property
    def power_w(self) -> np.ndarray:
        """Electrical power P = V*I at each sample [W]."""
        return self.current_a * self.voltage_v

    @property
    def max_power_w(self) -> float:
        """Maximum of the sampled power curve [W]."""
        return float(self.power_w.max())

    @property
    def current_at_max_power_a(self) -> float:
        """Current at the sampled maximum power point [A]."""
        return float(self.current_a[int(np.argmax(self.power_w))])

    # -- interpolation -------------------------------------------------------------

    def voltage_at_current(self, current_a: float) -> float:
        """Linear interpolation V(I); raises outside the sampled range."""
        if not self.current_a[0] <= current_a <= self.current_a[-1]:
            raise ConfigurationError(
                f"current {current_a:.4g} A outside sampled range "
                f"[{self.current_a[0]:.4g}, {self.current_a[-1]:.4g}] A"
            )
        return float(np.interp(current_a, self.current_a, self.voltage_v))

    def current_at_voltage(self, voltage_v: float) -> float:
        """Linear interpolation I(V) using monotonicity of the curve."""
        v_min, v_max = float(self.voltage_v[-1]), float(self.voltage_v[0])
        if not v_min <= voltage_v <= v_max:
            raise ConfigurationError(
                f"voltage {voltage_v:.4g} V outside sampled range "
                f"[{v_min:.4g}, {v_max:.4g}] V"
            )
        # np.interp needs increasing x; the voltage axis decreases.
        return float(
            np.interp(voltage_v, self.voltage_v[::-1], self.current_a[::-1])
        )

    def power_at_voltage(self, voltage_v: float) -> float:
        """P = V * I(V) [W]."""
        return voltage_v * self.current_at_voltage(voltage_v)

    # -- transforms -----------------------------------------------------------------

    def scaled(self, current_scale: float, label: "str | None" = None) -> "PolarizationCurve":
        """A copy with currents multiplied by ``current_scale``.

        Used to move between a single channel and an N-channel parallel
        array (identical channels share the same voltage, currents add) and
        between absolute current and current density.
        """
        if current_scale <= 0.0:
            raise ConfigurationError(f"current scale must be > 0, got {current_scale}")
        return PolarizationCurve(
            self.current_a * current_scale,
            self.voltage_v.copy(),
            label if label is not None else self.label,
        )
