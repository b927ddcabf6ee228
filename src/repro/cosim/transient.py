"""Transient electro-thermal co-simulation.

The steady coupling of :mod:`repro.cosim.coupling` answers "where does the
system settle"; this module answers "what happens on the way": a workload
step changes the chip's power map, the thermal state relaxes on its
~100 ms time constant, and the generated current follows the coolant
temperature. A DVFS or power-management policy would consume exactly this
trajectory.

The integration is operator-split per step: one backward-Euler thermal
step at the current heat load, then an electrochemical update at the new
channel-group temperatures (the cells respond quasi-statically — their
species transit time, ~14 ms, is below the thermal step sizes used here,
and their thermal mass is part of the fluid's).

Electrochemical data comes from the shared
:class:`~repro.cosim.surface.PolarizationSurface`, so the stepper never
builds a polarization curve of its own and shares every node curve with
the steady solver and the sweep evaluators. The stepping itself is
:func:`repro.cosim.batch.batched_step_responses`; a
:class:`TransientCosim` run is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cosim.coupling import CosimConfig
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TransientSample:
    """One point on the coupled trajectory."""

    time_s: float
    peak_temperature_c: float
    mean_coolant_c: float
    array_current_a: float


class TransientCosim:
    """Step-response co-simulation of the POWER7+ case study.

    Parameters
    ----------
    config:
        Shares the steady co-simulation's configuration (raster, groups,
        operating voltage, coolant point, polarization surface).
    """

    def __init__(self, config: CosimConfig = CosimConfig()) -> None:
        self.config = config

    def run_step_response(
        self,
        utilization_before: float,
        utilization_after: float,
        duration_s: float = 1.0,
        dt_s: float = 0.05,
    ) -> "list[TransientSample]":
        """Trajectory of a utilization step at t = 0.

        The system starts at the *steady state* of ``utilization_before``,
        the power map switches to ``utilization_after``, and the coupled
        state is sampled every ``dt_s`` for ``duration_s``. When
        ``duration_s`` is not an integer multiple of ``dt_s``, a final
        partial step lands the last sample exactly at ``duration_s`` — no
        horizon is silently dropped or added.

        A batch of one through
        :func:`repro.cosim.batch.batched_step_responses`, which owns the
        stepping schedule (full steps as two backward-Euler half steps,
        then the partial step) and the ``0 < dt <= duration`` check.
        """
        from repro.cosim.batch import StepResponseCase, batched_step_responses

        (samples,) = batched_step_responses([StepResponseCase(
            config=self.config,
            utilization_before=utilization_before,
            utilization_after=utilization_after,
            duration_s=duration_s,
            dt_s=dt_s,
        )])
        return samples

    @staticmethod
    def settling_time_s(
        samples: "list[TransientSample]", fraction: float = 0.95
    ) -> float:
        """Time after which the peak temperature stays settled.

        Settled means within ``(1 - fraction) * |end - start|`` of the
        final value. The answer is the time of the first sample after the
        trajectory *last* leaves that band — so an overshooting
        (non-monotonic) trajectory is not credited with its first crossing
        on the way through. A trajectory that never leaves the band (flat,
        or settled from the start) settles at the first sample's time.
        """
        if not samples:
            raise ConfigurationError("need at least one sample")
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError("fraction must be in (0, 1)")
        start = samples[0].peak_temperature_c
        end = samples[-1].peak_temperature_c
        band = (1.0 - fraction) * abs(end - start) + 1e-9
        last_outside = None
        for index, sample in enumerate(samples):
            if abs(sample.peak_temperature_c - end) > band:
                last_outside = index
        if last_outside is None:
            return samples[0].time_s
        # samples[-1] deviates from itself by zero, so an index after the
        # last outside sample always exists.
        return samples[last_outside + 1].time_s
