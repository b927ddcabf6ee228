"""repro — reproduction of "Integrated Microfluidic Power Generation and
Cooling for Bright Silicon MPSoCs" (Sabry, Sridhar, Atienza, Ruch, Michel —
DATE 2014).

The library models an MPSoC whose coolant is also its power supply: an
on-chip array of membraneless all-vanadium redox flow cells that generates
electric power for the die it cools. Subpackages:

- :mod:`repro.materials` — fluids, electrolytes, redox couples, solids.
- :mod:`repro.geometry` — channels, channel arrays, floorplans (POWER7+).
- :mod:`repro.microfluidics` — hydraulics, heat and mass transfer.
- :mod:`repro.electrochem` — Nernst, Butler-Volmer, losses, polarization.
- :mod:`repro.flowcell` — single-cell and array models (COMSOL substitute).
- :mod:`repro.pdn` — on-chip power-grid analysis, VRMs, TSVs, c4 baseline.
- :mod:`repro.thermal` — 3D-ICE-style compact thermal model.
- :mod:`repro.cosim` — electro-thermal coupling.
- :mod:`repro.core` — integrated system facade and bright-silicon metrics.
- :mod:`repro.validation` — reference data and comparison metrics.
- :mod:`repro.casestudy` — Table I / Table II configurations.
- :mod:`repro.sweep` — batch scenario-sweep engine (grids, memoization,
  batched evaluation, CSV/JSON export).
- :mod:`repro.opt` — design-space optimization over the sweep engine
  (objectives/constraints, Pareto frontiers, adaptive refinement).
- :mod:`repro.runtime` — trace-driven closed-loop runtime engine (flow
  control + thermal throttling over workload traces).
- :mod:`repro.fleet` — rack-scale multi-chip co-design under a shared
  coolant supply.
- :mod:`repro.obs` — span tracing, counters and solver health metrics
  across the sweep/opt/runtime/fleet stack (off by default; Chrome
  trace + metrics snapshot export).
"""

__version__ = "1.1.0"
