"""Rack-scale fleet layer: many chips under one coolant supply.

The paper models a single MPSoC whose microchannel array cools the die
and generates power; the ROADMAP north-star is a production deployment
serving millions of users — thousands of such chips sharing a hydraulic
loop and an aggregate request stream. This package composes the existing
per-chip physics into that system:

- :mod:`repro.fleet.supply` — cross-chip flow allocation under a fixed
  total pump budget (uniform / proportional / greedy policies);
- :mod:`repro.fleet.traffic` — maps a fleet request-rate trace (diurnal +
  bursty components from :mod:`repro.runtime.trace`) to per-chip
  utilization schedules with configurable load-balancing skew;
- :mod:`repro.fleet.chip` — the per-chip operating-state physics on the
  quantized flow x utilization grid (the ``fleet_chip`` evaluator and
  the :class:`~repro.fleet.chip.ChipTable` lookup the engine rolls up);
- :mod:`repro.fleet.fleet` — :class:`FleetSpec` / :class:`FleetEngine` /
  :class:`FleetResult`: evaluates every chip state through the sweep
  engine (vectorized backend by default) and reduces a whole trace to
  fleet KPIs — total net energy, worst-case junction temperature,
  throttled chip-time fraction, allocation fairness.

Typical use::

    from repro.fleet import FleetSpec, FleetEngine

    result = FleetEngine(FleetSpec(n_chips=8, policy="greedy")).run()
    print(result.kpis()["total_net_energy_j"])

or, from the shell, ``python -m repro fleet --chips 8 --policy greedy``.
"""

from repro.fleet.chip import ChipTable
from repro.fleet.fleet import (
    FleetEngine,
    FleetResult,
    FleetSpec,
    shared_fleet_runner,
)
from repro.fleet.supply import (
    POLICY_NAMES,
    SupplySpec,
    allocate,
    jain_fairness,
    supply_distribution,
)
from repro.fleet.traffic import TrafficModel

__all__ = [
    "POLICY_NAMES",
    "ChipTable",
    "FleetEngine",
    "FleetResult",
    "FleetSpec",
    "SupplySpec",
    "TrafficModel",
    "allocate",
    "jain_fairness",
    "shared_fleet_runner",
    "supply_distribution",
]
