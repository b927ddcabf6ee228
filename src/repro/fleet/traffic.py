"""Fleet traffic: aggregate request rate to per-chip utilization.

A production fleet serves one aggregate request stream — millions of
users whose demand swings with the time of day and spikes with flash
crowds. :class:`TrafficModel` represents that stream with the named
generators of :mod:`repro.runtime.trace` (``diurnal-bursty`` by default:
a diurnal envelope plus seeded bursts) and maps it to per-chip
utilization schedules through a lognormal load-balancing skew: real
balancers are never perfect, so chips draw seeded per-chip weights and
the hot ones saturate first while the cold ones idle.

The mapping is fully deterministic given ``(trace, trace_seed, skew,
n_chips)`` — the weight draw uses ``numpy.random.default_rng`` on the
trace seed — so fleet scenarios memoize through the sweep cache exactly
like single-chip ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, check_count
from repro.runtime.trace import WorkloadTrace, standard_trace


@dataclass(frozen=True)
class TrafficModel:
    """Aggregate fleet demand and its split across chips.

    Parameters
    ----------
    n_chips:
        Fleet size (>= 1).
    trace / trace_seed:
        Named aggregate demand trace (see
        :func:`repro.runtime.trace.standard_trace`); the seed pins both
        the trace's burst pattern and the per-chip weight draw.
    skew:
        Load-balancing imperfection: per-chip weights are
        ``exp(skew * z) / mean(...)`` with ``z`` standard normal, so 0
        means a perfect balancer (all chips identical) and larger values
        spread the fleet across the utilization range. Must be >= 0.
    """

    n_chips: int
    trace: str = "diurnal-bursty"
    trace_seed: int = 7
    skew: float = 0.35

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "n_chips", check_count("n_chips", self.n_chips)
        )
        object.__setattr__(self, "trace_seed", int(self.trace_seed))
        object.__setattr__(self, "skew", float(self.skew))
        if self.trace_seed < 0:
            raise ConfigurationError("trace seed must be >= 0")
        # Written as ``not lo <= x < inf`` so NaN and inf fail too.
        if not 0.0 <= self.skew < math.inf:
            raise ConfigurationError(
                f"skew must be finite and >= 0, got {self.skew}"
            )
        # Validates the trace name eagerly (same closed-set policy as
        # ScenarioSpec).
        standard_trace(self.trace, seed=self.trace_seed)

    def aggregate_trace(self) -> WorkloadTrace:
        """The fleet-level demand schedule (mean utilization over chips)."""
        return standard_trace(self.trace, seed=self.trace_seed)

    def chip_weights(self) -> np.ndarray:
        """Per-chip demand weights, mean-normalized to 1.

        ``skew=0`` yields exactly 1.0 everywhere (the random draw cancels
        analytically, not just statistically), so an unskewed fleet is
        bit-identical to ``n_chips`` copies of the aggregate trace.
        """
        rng = np.random.default_rng(self.trace_seed)
        z = rng.standard_normal(self.n_chips)
        weights = np.exp(self.skew * z)
        return weights / weights.mean()

    def utilization_matrix(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(durations_s, utilization)`` of the whole fleet schedule.

        ``durations_s`` has one entry per aggregate-trace segment;
        ``utilization`` is ``(n_steps, n_chips)``, each row the aggregate
        segment's utilization scaled by the chip weights and clipped to
        ``[0, 1]`` (a chip asked for more than full load saturates — the
        excess is shed load the balancer could not place).
        """
        segments = self.aggregate_trace().segments
        durations = np.array([s.duration_s for s in segments])
        weights = self.chip_weights()
        base = np.array([s.utilization for s in segments])
        utilization = np.clip(base[:, None] * weights[None, :], 0.0, 1.0)
        return durations, utilization
