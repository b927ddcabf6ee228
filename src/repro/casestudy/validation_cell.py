"""Builders for the Table I validation cell (Fig. 3 study).

The experimental cell of Kjeang et al. 2007 uses graphite-rod electrodes in
a PDMS channel; two lumped calibration terms absorb what the compact model
cannot derive from Table I alone (both documented in DESIGN.md note 2):

- ``OCV_ADJUSTMENT_V`` — measured membraneless cells sit ~0.1-0.15 V below
  the Nernst OCV because reactant crossover at the co-laminar interface
  creates a mixed potential at the electrode edges;
- ``ELECTRONIC_RESISTANCE_OHM`` — rod/contact/lead resistance of the
  experimental setup.
"""

from __future__ import annotations

from repro.casestudy.tables import TABLE1
from repro.flowcell.cell import ColaminarCellSpec
from repro.flowcell.planar import PlanarColaminarCell
from repro.geometry.channel import RectangularChannel
from repro.materials.electrolyte import Electrolyte
from repro.materials.fluid import vanadium_electrolyte_fluid
from repro.materials.species import (
    vanadium_negative_couple,
    vanadium_positive_couple,
)
from repro.units import (
    m3s_from_ul_per_min,
    meters_from_mm,
    meters_from_um,
    pa_s_from_mpa_s,
)

#: The four experimental flow rates of Fig. 3.
KJEANG_FLOW_RATES_UL_MIN = TABLE1["flow_rates_ul_min"]

#: Mixed-potential OCV calibration (see module docstring).
OCV_ADJUSTMENT_V = -0.13

#: Experimental series resistance of the graphite-rod setup.
ELECTRONIC_RESISTANCE_OHM = 2.5


def build_validation_spec(
    flow_ul_min: float,
    temperature_dependent: bool = False,
) -> ColaminarCellSpec:
    """Cell spec of the Table I validation cell at one flow rate."""
    channel = RectangularChannel(
        width_m=meters_from_mm(TABLE1["channel_width_mm"]),
        height_m=meters_from_um(TABLE1["channel_height_um"]),
        length_m=meters_from_mm(TABLE1["channel_length_mm"]),
    )
    fluid = vanadium_electrolyte_fluid(
        density_kg_m3=TABLE1["density_kg_m3"],
        viscosity_pa_s=pa_s_from_mpa_s(TABLE1["dynamic_viscosity_mpa_s"]),
        temperature_dependent=temperature_dependent,
    )
    anode = TABLE1["anode"]
    cathode = TABLE1["cathode"]
    negative = vanadium_negative_couple(
        rate_constant_m_s=anode["rate_constant_m_s"],
        diffusivity_m2_s=anode["diffusivity_m2_s"],
        standard_potential_v=anode["standard_potential_v"],
        temperature_dependent=temperature_dependent,
    )
    positive = vanadium_positive_couple(
        rate_constant_m_s=cathode["rate_constant_m_s"],
        diffusivity_m2_s=cathode["diffusivity_m2_s"],
        standard_potential_v=cathode["standard_potential_v"],
        temperature_dependent=temperature_dependent,
    )
    anolyte = Electrolyte(
        fluid, negative,
        conc_ox=anode["conc_ox_mol_m3"],
        conc_red=anode["conc_red_mol_m3"],
    )
    catholyte = Electrolyte(
        fluid, positive,
        conc_ox=cathode["conc_ox_mol_m3"],
        conc_red=cathode["conc_red_mol_m3"],
    )
    return ColaminarCellSpec(
        channel=channel,
        anolyte=anolyte,
        catholyte=catholyte,
        volumetric_flow_m3_s=m3s_from_ul_per_min(flow_ul_min),
        electronic_resistance_ohm=ELECTRONIC_RESISTANCE_OHM,
        ocv_adjustment_v=OCV_ADJUSTMENT_V,
    )


def build_validation_cell(
    flow_ul_min: float, temperature_k: float = 300.0
) -> PlanarColaminarCell:
    """Analytic (film/Leveque) model of the validation cell."""
    return PlanarColaminarCell(
        build_validation_spec(flow_ul_min), temperature_k=temperature_k
    )
