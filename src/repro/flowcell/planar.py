"""Planar co-laminar flow cell (film/Leveque model).

Models the Table I validation cell: a single channel with planar electrodes
on the two side walls and a co-laminar fuel/oxidant interface down the
middle (the paper's Fig. 2). Mass transport to each electrode is described
by the length-averaged Leveque mass-transfer coefficient; kinetics by
Butler-Volmer with film-model surface concentrations; ohmic loss by the
series ionic path across the channel. The resulting V(I) has closed form up
to one scalar Butler-Volmer inversion per electrode, making this model fast
enough for wide parameter sweeps.

The signature prediction — limiting current growing with the cube root of
flow rate — is what anchors the Fig. 3 validation.
"""

from __future__ import annotations

import numpy as np

from repro.electrochem.halfcell import FilmHalfCell
from repro.electrochem.losses import ohmic_resistance_colaminar
from repro.electrochem.polarization import PolarizationCurve
from repro.errors import ConfigurationError, OperatingPointError
from repro.flowcell.cell import ColaminarCellSpec
from repro.microfluidics.mass_transfer import average_mass_transfer_coefficient


class PlanarColaminarCell:
    """Analytic model of a planar-electrode co-laminar flow cell.

    Parameters
    ----------
    spec:
        Cell geometry, electrolytes and flow rate.
    temperature_k:
        Uniform cell temperature. For the coupled electro-thermal study the
        co-simulation layer rebuilds cells at local temperatures.
    """

    def __init__(self, spec: ColaminarCellSpec, temperature_k: float = 300.0) -> None:
        if temperature_k <= 0.0:
            raise ConfigurationError("temperature must be > 0 K")
        self.spec = spec
        self.temperature_k = temperature_k
        channel = spec.channel

        # Wall shear governing boundary-layer growth: the transverse profile
        # is set by the *smaller* cross-section dimension (Hele-Shaw limit
        # for wide flat channels, parabolic for narrow deep ones), so the
        # near-electrode shear rate is 6*v/min(w, h).
        velocity = channel.mean_velocity(spec.volumetric_flow_m3_s)
        spacing = min(channel.width_m, channel.height_m)
        self.wall_shear_rate_s = 6.0 * velocity / spacing

        anolyte, catholyte = spec.anolyte, spec.catholyte
        km_anode = average_mass_transfer_coefficient(
            anolyte.couple.diffusivity_red(temperature_k),
            self.wall_shear_rate_s,
            channel.length_m,
        )
        km_cathode = average_mass_transfer_coefficient(
            catholyte.couple.diffusivity_ox(temperature_k),
            self.wall_shear_rate_s,
            channel.length_m,
        )
        self.negative = FilmHalfCell(
            couple=anolyte.couple,
            conc_ox=anolyte.conc_ox,
            conc_red=anolyte.conc_red,
            mass_transfer_coefficient=km_anode,
            temperature_k=temperature_k,
        )
        self.positive = FilmHalfCell(
            couple=catholyte.couple,
            conc_ox=catholyte.conc_ox,
            conc_red=catholyte.conc_red,
            mass_transfer_coefficient=km_cathode,
            temperature_k=temperature_k,
        )
        self.resistance_ohm = ohmic_resistance_colaminar(
            channel, anolyte, catholyte, temperature_k,
            electronic_resistance_ohm=spec.electronic_resistance_ohm,
        )

    # -- scalar characteristics ------------------------------------------------

    @property
    def electrode_area_m2(self) -> float:
        """Area of each side-wall electrode [m^2]."""
        return self.spec.channel.electrode_area_m2

    @property
    def open_circuit_voltage_v(self) -> float:
        """Cell OCV [V] including the calibration adjustment."""
        return (
            self.positive.equilibrium_potential_v
            - self.negative.equilibrium_potential_v
            + self.spec.ocv_adjustment_v
        )

    @property
    def limiting_current_a(self) -> float:
        """Transport-limited cell current [A] (weaker electrode governs)."""
        j_lim = min(self.negative.anodic_limit_a_m2, self.positive.cathodic_limit_a_m2)
        return j_lim * self.electrode_area_m2

    @property
    def limiting_current_density_a_m2(self) -> float:
        """Transport-limited current density [A/m^2 of electrode]."""
        return self.limiting_current_a / self.electrode_area_m2

    # -- operating points --------------------------------------------------------

    def voltage_at_current(self, current_a: float) -> float:
        """Cell voltage [V] at a discharge current [A].

        Raises :class:`OperatingPointError` beyond the transport limit.
        """
        if current_a < 0.0:
            raise ConfigurationError("discharge current must be >= 0 in this model")
        j = current_a / self.electrode_area_m2
        e_neg = self.negative.electrode_potential(+j)
        e_pos = self.positive.electrode_potential(-j)
        return (
            e_pos - e_neg - current_a * self.resistance_ohm + self.spec.ocv_adjustment_v
        )

    def loss_breakdown(self, current_a: float) -> "dict[str, float]":
        """Decompose the total loss at a current into the paper's terms.

        Returns a dict with ``eta_ct_neg``, ``eta_ct_pos`` (activation at
        bulk concentrations), ``eta_mt_neg``, ``eta_mt_pos`` (the remainder
        attributed to mass transport) and ``eta_ohmic`` [all V, positive].
        """
        j = current_a / self.electrode_area_m2
        eta_neg_total = self.negative.overpotential(+j)
        eta_pos_total = self.positive.overpotential(-j)
        eta_ct_neg = self.negative.activation_only_overpotential(+j)
        eta_ct_pos = self.positive.activation_only_overpotential(-j)
        return {
            "eta_ct_neg": eta_ct_neg,
            "eta_ct_pos": -eta_ct_pos,
            "eta_mt_neg": eta_neg_total - eta_ct_neg,
            "eta_mt_pos": -(eta_pos_total - eta_ct_pos),
            "eta_ohmic": current_a * self.resistance_ohm,
        }

    # -- curves ---------------------------------------------------------------------

    def polarization_curve(
        self, n_points: int = 60, max_utilization: float = 0.995
    ) -> PolarizationCurve:
        """Sample the full V(I) characteristic up to the transport limit.

        Samples cluster near the limiting current where the curve bends.
        Points past V = 0 are dropped, matching how the paper plots Fig. 3.
        """
        if n_points < 2:
            raise ConfigurationError(f"n_points must be >= 2, got {n_points}")
        if not 0.0 < max_utilization < 1.0:
            raise ConfigurationError("max_utilization must be in (0, 1)")
        s = np.linspace(0.0, 1.0, n_points)
        currents = self.limiting_current_a * max_utilization * (1.0 - (1.0 - s) ** 2)
        voltages = np.empty_like(currents)
        for k, current in enumerate(currents):
            try:
                voltages[k] = self.voltage_at_current(current)
            except OperatingPointError:
                voltages[k] = -np.inf
        keep = voltages > 0.0
        if int(keep.sum()) < 2:
            raise OperatingPointError("cell has no positive-voltage operating range")
        return PolarizationCurve(
            currents[keep],
            np.minimum.accumulate(voltages[keep]),
            label=f"planar cell @ {self.temperature_k:.1f} K",
        )

    def polarization_curve_density(
        self, n_points: int = 60, max_utilization: float = 0.995
    ) -> PolarizationCurve:
        """Like :meth:`polarization_curve` but in A/m^2 of electrode area."""
        curve = self.polarization_curve(n_points, max_utilization)
        return PolarizationCurve(
            curve.current_a / self.electrode_area_m2,
            curve.voltage_v,
            label=curve.label + " (density)",
        )
