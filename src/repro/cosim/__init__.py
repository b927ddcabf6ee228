"""Electro-thermal co-simulation (the paper's Section III-B coupling study).

The flow cells cool the chip, the chip heats the electrolytes, and warmer
electrolytes react and diffuse faster — so the generated power depends on
the thermal state and vice versa. :class:`~repro.cosim.coupling.ElectroThermalCosim`
iterates the two models to a fixed point:

1. solve the coolant point's kept thermal model (chip + cell loss heat),
2. average the coolant temperature over each channel group,
3. look up each group's current and OCV on the shared
   :class:`~repro.cosim.surface.PolarizationSurface` at its local
   temperature,
4. combine the groups electrically in parallel at the operating voltage,
5. deposit the cells' polarization-loss heat back into the fluid,
6. repeat until the channel temperatures settle.

:class:`~repro.cosim.transient.TransientCosim` integrates the same coupled
system through a workload step, and both draw their curves from the same
process-wide surface store. :func:`~repro.cosim.batch.batched_step_responses`
marches many such step responses in lockstep (shared thermal families,
stacked state columns) with bit-identical trajectories.
"""

from repro.cosim.batch import StepResponseCase, batched_step_responses
from repro.cosim.coupling import CosimConfig, CosimResult, ElectroThermalCosim
from repro.cosim.surface import PolarizationSurface, warm_surfaces
from repro.cosim.transient import TransientCosim, TransientSample

__all__ = [
    "CosimConfig",
    "CosimResult",
    "ElectroThermalCosim",
    "PolarizationSurface",
    "StepResponseCase",
    "TransientCosim",
    "TransientSample",
    "batched_step_responses",
    "warm_surfaces",
]
