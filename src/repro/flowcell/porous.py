"""Flow-through porous-electrode cell (1-D plug-flow model).

The POWER7+ array channels must deliver ~0.78 A/cm2 of electrode area at
1 V (Fig. 7) — an order of magnitude beyond what boundary-layer transport to
planar walls can supply at 2 M vanadium. The paper's own Section II points
at the resolution: the highest membraneless densities were achieved with
*flow-through porous* electrodes (Lee et al. 2013, ref [15]). This module
models each half-stream as a porous carbon electrode the electrolyte flows
through:

- Plug flow along the channel, discretised into axial segments; species
  deplete segment by segment, which enforces the Faradaic (coulombic)
  bound ``I <= n*F*C*Q`` automatically.
- In each segment, a volumetric Butler-Volmer reaction on the fibre surface
  (specific area a_s) with film-model fibre-scale mass transport (porous
  k_m correlation).
- The solid electrode is treated as equipotential (metal-like conductivity
  against the electrolyte's), so one potential per electrode describes the
  whole channel; the axial reaction distribution follows from the local
  concentration state.

The electrode characteristic I(E) is produced by sweeping the electrode
potential; the cell curve is assembled by
:func:`repro.flowcell.cell.assemble_polarization`.

Production curves, :meth:`FlowThroughPorousCell.polarization_curve`
included, come from the array march of
:func:`repro.flowcell.batch.batched_polarization_curves`. The scalar
per-potential march here (``electrode_current`` /
``electrode_characteristic``) is the independent oracle that march is
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.constants import FARADAY
from repro.electrochem.halfcell import FilmHalfCell
from repro.electrochem.polarization import PolarizationCurve
from repro.errors import ConfigurationError
from repro.flowcell.cell import ColaminarCellSpec, ElectrodeCharacteristic
from repro.materials.electrolyte import Electrolyte
from repro.microfluidics.mass_transfer import porous_mass_transfer_coefficient


@dataclass(frozen=True)
class PorousElectrodeSpec:
    """Properties of the fibrous flow-through electrode medium.

    Parameters
    ----------
    specific_surface_area_m2_m3:
        Wetted fibre surface per electrode volume a_s [m^2/m^3]; carbon
        papers/felts lie in the 1e5..1e6 range. This is the main
        calibration lever for the array's current capability.
    permeability_m2:
        Darcy permeability K [m^2] for the hydraulic model.
    porosity:
        Void fraction; enters the effective (Bruggeman) ionic conductivity.
    fibre_diameter_m:
        Fibre scale of the mass-transfer correlation.
    km_coefficient / km_exponent:
        Parameters of the porous k_m(v) power-law correlation.
    """

    specific_surface_area_m2_m3: float = 2.0e4
    permeability_m2: float = 4.6e-10
    porosity: float = 0.75
    fibre_diameter_m: float = 10e-6
    km_coefficient: float = 0.9
    km_exponent: float = 0.4

    def __post_init__(self) -> None:
        if self.specific_surface_area_m2_m3 <= 0.0:
            raise ConfigurationError("specific surface area must be > 0")
        if self.permeability_m2 <= 0.0:
            raise ConfigurationError("permeability must be > 0")
        if not 0.0 < self.porosity < 1.0:
            raise ConfigurationError("porosity must be in (0, 1)")
        if self.fibre_diameter_m <= 0.0:
            raise ConfigurationError("fibre diameter must be > 0")


class FlowThroughPorousCell:
    """Plug-flow model of a porous-electrode co-laminar channel."""

    def __init__(
        self,
        spec: ColaminarCellSpec,
        electrode: PorousElectrodeSpec = PorousElectrodeSpec(),
        temperature_k: float = 300.0,
        n_segments: int = 40,
    ) -> None:
        if not 0.0 < temperature_k < math.inf:  # NaN fails too
            raise ConfigurationError(
                f"temperature must be finite and > 0 K, got {temperature_k}"
            )
        if n_segments < 1:
            raise ConfigurationError(f"n_segments must be >= 1, got {n_segments}")
        self.spec = spec
        self.electrode = electrode
        self.temperature_k = temperature_k
        self.n_segments = n_segments

        channel = spec.channel
        # Superficial velocity through the porous half-channel equals the
        # overall mean velocity: (Q/2) / ((w/2)*h) = Q / (w*h).
        self.superficial_velocity_m_s = channel.mean_velocity(spec.volumetric_flow_m3_s)
        #: volume of one electrode segment [m^3]
        self._segment_volume_m3 = (
            channel.half_width_m * channel.height_m * channel.length_m / n_segments
        )
        self._km_cache: "dict[float, float]" = {}

    # -- transport --------------------------------------------------------------

    def _km(self, diffusivity_m2_s: float) -> float:
        """Porous-media mass-transfer coefficient for a species."""
        key = diffusivity_m2_s
        if key not in self._km_cache:
            self._km_cache[key] = porous_mass_transfer_coefficient(
                diffusivity_m2_s,
                self.superficial_velocity_m_s,
                fibre_diameter_m=self.electrode.fibre_diameter_m,
                coefficient=self.electrode.km_coefficient,
                exponent=self.electrode.km_exponent,
            )
        return self._km_cache[key]

    # -- per-electrode plug-flow solve (the scalar oracle) -----------------------

    def _segment_march(
        self, electrolyte: Electrolyte, potential_v: float, anodic: bool
    ) -> "Iterator[tuple[float, float, float]]":
        """Plug flow through the axial segments at one electrode potential.

        Yields ``(segment_current, conc_ox, conc_red)`` per segment: the
        signed segment current [A] and the concentrations leaving it.
        Each segment reacts at its inlet composition, capped at the
        reactant its throughflow carries (plug-flow Faradaic bound).
        """
        couple = electrolyte.couple
        diffusivity = (
            couple.diffusivity_red(self.temperature_k)
            if anodic
            else couple.diffusivity_ox(self.temperature_k)
        )
        km = self._km(diffusivity)
        area_per_segment = (
            self.electrode.specific_surface_area_m2_m3 * self._segment_volume_m3
        )
        n_f_q = couple.electrons * FARADAY * self.spec.stream_flow_m3_s

        conc_ox = electrolyte.conc_ox
        conc_red = electrolyte.conc_red
        for _ in range(self.n_segments):
            half = FilmHalfCell(
                couple=couple,
                conc_ox=conc_ox,
                conc_red=conc_red,
                mass_transfer_coefficient=km,
                temperature_k=self.temperature_k,
            )
            segment_current = half.current_at_potential(potential_v) * area_per_segment
            if segment_current > 0.0:
                segment_current = min(segment_current, 0.999 * (conc_red * n_f_q))
            else:
                segment_current = max(segment_current, -0.999 * (conc_ox * n_f_q))
            delta_c = segment_current / n_f_q
            conc_red -= delta_c
            conc_ox += delta_c
            yield segment_current, conc_ox, conc_red

    def electrode_current(
        self, electrolyte: Electrolyte, potential_v: float, anodic: bool
    ) -> float:
        """Total electrode current [A] at a fixed electrode potential.

        Marches the plug flow through the axial segments, reacting each one
        at the local composition. Positive return value means the reaction
        runs in the electrode's discharge direction (anodic for the fuel
        electrode, cathodic magnitude for the oxidant electrode).
        """
        total_current = 0.0
        for segment_current, _, _ in self._segment_march(
            electrolyte, potential_v, anodic
        ):
            total_current += segment_current
        return total_current if anodic else -total_current

    def electrode_characteristic(
        self,
        anodic: bool,
        n_samples: int = 48,
        max_overpotential_v: float = 1.0,
    ) -> ElectrodeCharacteristic:
        """Sample I(E) for one electrode by sweeping its potential (oracle).

        For the fuel electrode (``anodic=True``) the sweep runs from the
        equilibrium potential upward (discharge direction); for the oxidant
        electrode downward. The sweep is log-spaced in overpotential to
        resolve both the kinetic knee and the transport plateau. The
        returned characteristic is in *signed electrode current* (anodic
        positive), as :func:`~repro.flowcell.cell.assemble_polarization`
        expects. Two of these, assembled by it, are the scalar reference
        curve the batch march must reproduce to 1e-9.
        """
        if n_samples < 4:
            raise ConfigurationError(f"n_samples must be >= 4, got {n_samples}")
        electrolyte = self.spec.anolyte if anodic else self.spec.catholyte
        from repro.electrochem.nernst import equilibrium_potential

        e_eq = equilibrium_potential(
            electrolyte.couple, electrolyte.conc_ox, electrolyte.conc_red,
            self.temperature_k,
        )
        overpotentials = np.concatenate(
            ([0.0], np.geomspace(1e-3, max_overpotential_v, n_samples - 1))
        )
        sign = 1.0 if anodic else -1.0
        potentials = e_eq + sign * overpotentials
        currents = np.empty_like(potentials)
        for k, potential in enumerate(potentials):
            current = self.electrode_current(electrolyte, potential, anodic)
            currents[k] = sign * current  # back to signed (anodic positive)
        order = np.argsort(potentials)
        potentials, currents = potentials[order], currents[order]
        # Guard against round-off kinks; physically I(E) is monotone.
        currents = np.maximum.accumulate(currents)
        return ElectrodeCharacteristic(potentials, currents)

    # -- full cell ---------------------------------------------------------------------

    @property
    def resistance_ohm(self) -> float:
        """Series ohmic resistance [Ohm] of the channel cell.

        Ionic path across the two porous half-streams with Bruggeman
        effective conductivity sigma*porosity^1.5, plus the lumped
        electronic term from the spec.
        """
        channel = self.spec.channel
        area = channel.electrode_area_m2
        half_gap = channel.half_width_m
        factor = self.electrode.porosity**1.5
        sigma_a = self.spec.anolyte.ionic_conductivity(self.temperature_k) * factor
        sigma_c = self.spec.catholyte.ionic_conductivity(self.temperature_k) * factor
        return (
            half_gap / (sigma_a * area)
            + half_gap / (sigma_c * area)
            + self.spec.electronic_resistance_ohm
        )

    @property
    def faradaic_limit_a(self) -> float:
        """Coulombic bound n*F*C_charged*Q_stream [A] (weaker stream)."""
        anode_bound = (
            self.spec.anolyte.charge_capacity_per_volume(as_fuel=True)
            * self.spec.stream_flow_m3_s
        )
        cathode_bound = (
            self.spec.catholyte.charge_capacity_per_volume(as_fuel=False)
            * self.spec.stream_flow_m3_s
        )
        return min(anode_bound, cathode_bound)

    @property
    def open_circuit_voltage_v(self) -> float:
        """Cell OCV [V] from the two inlet Nernst potentials."""
        from repro.electrochem.nernst import open_circuit_voltage

        return (
            open_circuit_voltage(
                self.spec.catholyte.couple,
                self.spec.catholyte.conc_ox,
                self.spec.catholyte.conc_red,
                self.spec.anolyte.couple,
                self.spec.anolyte.conc_ox,
                self.spec.anolyte.conc_red,
                self.temperature_k,
            )
            + self.spec.ocv_adjustment_v
        )

    def polarization_curve(
        self,
        n_points: int = 40,
        n_potential_samples: int = 48,
        max_overpotential_v: float = 1.0,
    ) -> PolarizationCurve:
        """Full-cell V(I) by combining the two electrode characteristics.

        A batch of one through
        :func:`~repro.flowcell.batch.batched_polarization_curves`, so this
        curve is bit-identical to the same cell's curve in any batch.
        """
        from repro.flowcell.batch import batched_polarization_curves

        return batched_polarization_curves(
            [self],
            n_points=n_points,
            n_potential_samples=n_potential_samples,
            max_overpotential_v=max_overpotential_v,
        )[0]
