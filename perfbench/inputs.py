"""Seeded inputs: the spec lists and job lists every workload runs.

The seed alone fixes every input. A plan is plain data (spec field
dicts and job parameter dicts), so it hashes into a digest that shows
two runs used identical inputs, and the program receives only the
generated specs and jobs, never the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from typing import Iterator

#: Default seed, and a held-out seed kept for later claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 97

COLD_WORKLOADS = ("steady-sweep", "dynamic-sweep", "fleet-table")
WORKLOADS = COLD_WORKLOADS + ("serve-mix",)

#: Per-workload sizes: chosen so one cold repetition is a few seconds
#: (more for fleet-table, whose cold chip table alone is ~15 s).
#: The latency percentiles pool per-scenario times of the sweep steps.
#: A step's scenarios share one time per repetition (its batch's wall
#: split evenly), so a percentile on the edge between two steps, or at
#: the low end of one, reads a single repetition and jumps from run to
#: run. Sizes keep both percentiles well inside the dearest step:
#: steady-sweep's flow and workloads steps cost nearly the same per
#: scenario; dynamic-sweep's 4 transient scenarios (cheapest) are 14% of
#: 28, so its p50 sits near the middle of the runtime scenarios.
STEADY_FLOWS = 28
STEADY_RASTER = {"nx": 88, "ny": 44}
TRANSIENT_FLOWS = 1
RUNTIME_FLOWS = 6
FLEET_POINTS = 120

#: serve-mix: client threads, miss sweeps per client, jobs per list.
SERVE_CLIENTS = 2
SERVE_MISSES_PER_CLIENT = 6
SERVE_LIST_LENGTH = 4000
#: Each client's miss sweeps sit one per equal stratum of its first
#: MISS_SPAN jobs: about two thirds of what a client completes in a
#: 25-s run on the reference machine, so a default run reaches them all.
MISS_SPAN = 900
#: Distinct seeded fleet jobs per run. Lists are dealt in blocks of
#: BLOCK jobs, FLEET_PER_BLOCK of them fleet jobs: 15%, above 10%, so the
#: p90 latency falls inside the fleet jobs rather than on the edge
#: between them and the faster replays.
FLEET_VARIANTS = 24
BLOCK = 20
FLEET_PER_BLOCK = 3
#: The warm fill's fleet job: it builds the 187-point chip table cold.
#: Every parameter is explicit, so the in-process reference needs no
#: server defaults.
FLEET_JOB = ("fleet", {"chips": 8, "policy": "greedy",
                       "supply_per_chip_ml_min": 40.0,
                       "trace": "diurnal-bursty", "seed": 7, "skew": 0.35})
FLEET_POLICIES = ("greedy", "proportional", "uniform")
#: Jobs the set-up pass runs before the loop; every replay is one of
#: them. The flow sweep at 12 points spans 11 intervals, so its interior
#: flows are i/11 fractions of the log range.
SERVE_REPLAYS = (
    ("sweep", {"preset": "flow", "points": 12}),
    ("sweep", {"preset": "flow", "points": 4}),
    ("sweep", {"preset": "geometry", "points": 12}),
    ("sweep", {"preset": "workloads", "points": 8}),
    ("sweep", {"preset": "vrm", "points": 9}),
    FLEET_JOB,
    ("optimize", {"preset": "flow-optimum"}),
)
#: Miss sweeps are ``flow`` sweeps over p + 1 points for a prime p: the
#: interior flows sit at i/p fractions of the log range, so sweeps with
#: distinct primes share only their two end points, which the replay
#: set already holds. No prime is 3 or 11 (the replay flow sweeps) or 2
#: (flow-optimum's refinement grids sit at dyadic fractions), so a miss
#: sweep never hits a flow the replay set evaluated.
MISS_PRIMES = (5, 7, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _strata(
    rng: random.Random, lo: float, hi: float, n: int, log: bool = False
) -> "list[float]":
    """One uniform draw in each of ``n`` equal strata of [lo, hi]
    (log-spaced with ``log``), shuffled.

    Stratifying keeps the spacing of the values, and with it the
    solver work, nearly the same for every seed, while the values
    themselves change with the seed.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    values = [a + (i + rng.random()) * (b - a) / n for i in range(n)]
    rng.shuffle(values)
    return [math.exp(v) for v in values] if log else values


def cold_plan(workload: str, seed: int) -> "dict[str, object]":
    """The optimize preset and sweep steps of one cold workload.

    Steps are ``{"name", "specs"}`` with each spec a dict of
    :class:`repro.sweep.ScenarioSpec` fields.
    """
    rng = _rng(workload, seed)
    if workload == "steady-sweep":
        from repro.sweep.presets import FLOW_RANGE_ML_MIN

        flows = sorted(
            _strata(rng, *FLOW_RANGE_ML_MIN, STEADY_FLOWS, log=True)
        )
        flow_specs = [
            {"evaluator": "operating_point", "total_flow_ml_min": flow,
             **STEADY_RASTER}
            for flow in flows
        ]
        return {
            "optimize": "flow-optimum",
            "steps": [
                {"name": "flow", "specs": flow_specs},
                {"name": "workloads", "preset": "workloads",
                 "override": STEADY_RASTER},
            ],
        }
    if workload == "dynamic-sweep":
        transient = [
            {"evaluator": "transient", "nx": 22, "ny": 11,
             "utilization_before": 0.1, "utilization": 1.0,
             "total_flow_ml_min": flow,
             "inlet_temperature_k": inlet, "step_dt_s": dt}
            for flow in _strata(rng, 169.0, 1352.0, TRANSIENT_FLOWS, log=True)
            for inlet in (300.0, 310.15)
            for dt in (0.05, 0.025)
        ]
        runtime = [
            {"evaluator": "runtime", "nx": 22, "ny": 11,
             "controller": controller, "trace": trace,
             "total_flow_ml_min": flow,
             "trace_seed": rng.randrange(1, 10_000)}
            for flow in _strata(rng, 169.0, 676.0, RUNTIME_FLOWS, log=True)
            for controller in ("fixed", "pid")
            for trace in ("step", "bursty")
        ]
        return {
            "optimize": "runtime-pid",
            "steps": [
                {"name": "transient", "specs": transient},
                {"name": "runtime", "specs": runtime},
            ],
        }
    if workload == "fleet-table":
        policies = ("greedy", "proportional", "uniform")
        fleet = [
            {"evaluator": "fleet", "nx": 22, "ny": 11,
             "trace": "diurnal-bursty",
             "fleet_policy": policies[i % len(policies)],
             "supply_per_chip_ml_min": supply,
             "trace_seed": rng.randrange(1, 10_000),
             "fleet_skew": skew}
            for i, (supply, skew) in enumerate(zip(
                _strata(rng, 32.0, 56.0, FLEET_POINTS),
                _strata(rng, 0.2, 0.5, FLEET_POINTS),
            ))
        ]
        return {
            "optimize": "fleet-allocation",
            "steps": [{"name": "fleet", "specs": fleet}],
        }
    raise ValueError(f"not a cold workload: {workload!r}")


def fleet_jobs(rng: random.Random) -> "list[list[object]]":
    """``FLEET_VARIANTS`` distinct fleet jobs: seeded fleet size, policy,
    per-chip budget, trace seed and skew. Each reads the warm chip table
    from the store (no misses) and runs its own fleet rollup."""
    policies = [FLEET_POLICIES[i % len(FLEET_POLICIES)]
                for i in range(FLEET_VARIANTS)]
    rng.shuffle(policies)
    return [
        ["fleet", {"chips": rng.choice((4, 8, 12, 16)), "policy": policy,
                   "supply_per_chip_ml_min": supply,
                   "trace": "diurnal-bursty",
                   "seed": rng.randrange(1, 10_000), "skew": skew}]
        for policy, supply, skew in zip(
            policies,
            _strata(rng, 32.0, 56.0, FLEET_VARIANTS),
            _strata(rng, 0.2, 0.5, FLEET_VARIANTS),
        )
    ]


def _deck(rng: random.Random, items: "list[object]") -> "Iterator[object]":
    """``items`` dealt over and over, reshuffled on every pass."""
    while True:
        deck = list(items)
        rng.shuffle(deck)
        yield from deck


def serve_plan(seed: int) -> "dict[str, object]":
    """The warm-fill jobs and one seeded job list per client thread.

    Lists are dealt in shuffled blocks of ``BLOCK`` jobs: ``FLEET_PER_BLOCK``
    of the run's seeded fleet jobs (store reads plus a fleet rollup) and
    replays of the warm fill's sweep and optimize jobs (store reads),
    each kind dealt evenly from its own deck, so every stretch of the
    loop does nearly the same mix of work whatever the seed. Each
    client's miss sweeps (evaluations and store writes) sit at one
    seeded position in each equal stratum of its first ``MISS_SPAN``
    jobs. Primes are dealt to clients without repeats, so misses are
    disjoint across clients and no job's hit or miss count depends on
    interleaving.
    """
    rng = _rng("serve-mix", seed)
    fleet = _deck(rng, fleet_jobs(rng))
    replays = _deck(
        rng, [list(job) for job in SERVE_REPLAYS if job[0] != "fleet"]
    )
    primes = list(MISS_PRIMES)
    rng.shuffle(primes)
    clients = []
    for client in range(SERVE_CLIENTS):
        jobs: "list[list[object]]" = []
        while len(jobs) < SERVE_LIST_LENGTH:
            block = (
                [list(next(fleet)) for _ in range(FLEET_PER_BLOCK)]
                + [list(next(replays)) for _ in range(BLOCK - FLEET_PER_BLOCK)]
            )
            rng.shuffle(block)
            jobs += block
        mine = primes[client::SERVE_CLIENTS][:SERVE_MISSES_PER_CLIENT]
        stratum = MISS_SPAN // len(mine)
        for k, prime in enumerate(mine):
            slot = k * stratum + rng.randrange(stratum)
            jobs[slot] = ["sweep", {"preset": "flow", "points": prime + 1}]
        clients.append(jobs)
    return {
        "replays": [list(job) for job in SERVE_REPLAYS],
        "clients": clients,
    }


def client_jobs(jobs: "list[list[object]]") -> "Iterator[list[object]]":
    """A client's list, then its non-miss jobs over and over, so a fast
    run never runs out of jobs and never repeats a miss."""
    return itertools.chain(
        jobs, itertools.cycle([j for j in jobs if not expected_misses(j)])
    )


def plan(workload: str, seed: int) -> "dict[str, object]":
    if workload == "serve-mix":
        return serve_plan(seed)
    return cold_plan(workload, seed)


def digest(workload: str, seed: int) -> str:
    """Short hash of a workload's generated inputs."""
    canonical = json.dumps(plan(workload, seed), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def expected_misses(job: "list[object]") -> "int | None":
    """Store misses a serve-mix loop job must cause: 0 for a replay or
    a fleet job, the interior point count for a miss sweep."""
    kind, params = job
    if kind == "fleet" or list(job) in [list(r) for r in SERVE_REPLAYS]:
        return 0
    if kind == "sweep" and params["preset"] == "flow":
        return int(params["points"]) - 2
    return None
