#!/usr/bin/env python
"""CI smoke test for ``repro serve`` (docs/service.md).

Boots a :class:`~repro.serve.server.ResultServer` on a daemon thread
against a throwaway store directory, submits the flow preset twice from
a plain-socket client, and asserts the service contract end to end:

- the cold submission evaluates every scenario;
- the warm submission performs **zero evaluations** (all store hits);
- both return byte-identical CSV/JSON export text;
- a bad job is an ``error`` event and the server survives it.

A ``fleet`` job and an ``optimize flow-optimum`` job are then each
submitted twice as well: their warm replays go through the memoized
chip-table specs and the flat-record JSON encoder, so they must also
miss nothing and return the cold run's exact bytes, and the warm fleet
job must read every chip-table point from the store once.

Run from the repository root (CI does)::

    PYTHONPATH=src python tools/serve_smoke.py

Exit code 0 on success; any contract violation raises.
"""

from __future__ import annotations

import sys
import tempfile

POINTS = 6
FLEET = {"chips": 8, "policy": "greedy", "supply_per_chip_ml_min": 40.0,
         "trace": "diurnal-bursty", "seed": 7, "skew": 0.35}


def _replay_twice(client, kind: str, **params) -> dict:
    """Submit a job cold, then warm; assert the warm replay missed
    nothing and returned the cold run's exact export bytes."""
    cold = client.submit(kind, **params).require()
    warm = client.submit(kind, **params).require()
    assert warm["store"]["misses"] == 0, warm["store"]
    assert warm["csv"] == cold["csv"]
    assert warm["json"] == cold["json"]
    print(f"serve smoke: warm {kind} replay did 0 evaluations "
          f"({warm['store']['hits']} hit(s)), byte-identical exports")
    return warm


def main() -> int:
    from repro.fleet import FleetSpec
    from repro.serve import BackgroundServer, ResultServer, ServeClient
    from repro.store import ResultStore
    from repro.sweep import SweepRunner

    store_dir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    runner = SweepRunner(cache=ResultStore(store_dir))
    server = ResultServer(runner)
    with BackgroundServer(server) as bg:
        client = ServeClient(port=bg.port)

        cold = client.submit("sweep", preset="flow", points=POINTS).require()
        assert cold["store"]["misses"] == POINTS, cold["store"]
        print(f"serve smoke: cold run evaluated {POINTS} scenario(s)")

        warm = client.submit("sweep", preset="flow", points=POINTS).require()
        assert warm["store"] == {
            "hits": POINTS, "misses": 0, "corrupt": 0, "evicted": 0,
        }, warm["store"]
        assert warm["csv"] == cold["csv"]
        assert warm["json"] == cold["json"]
        print("serve smoke: warm replay did 0 evaluations, "
              "byte-identical exports")

        failed = client.submit("sweep", preset="no-such-preset")
        assert not failed.ok and "no-such-preset" in (failed.error or "")
        assert client.submit("sweep", preset="flow", points=POINTS).ok
        print("serve smoke: job failure was an event; server survived")

        fleet = _replay_twice(client, "fleet", **FLEET)
        spec = FleetSpec(
            n_chips=FLEET["chips"], policy=FLEET["policy"],
            supply_per_chip_ml_min=FLEET["supply_per_chip_ml_min"],
            trace=FLEET["trace"], trace_seed=FLEET["seed"],
            skew=FLEET["skew"],
        )
        points = (
            len(spec.supply().flow_levels()) * len(spec.utilization_levels())
        )
        assert fleet["store"]["hits"] == points, (fleet["store"], points)
        _replay_twice(client, "optimize", preset="flow-optimum")

    assert server.jobs_completed == 7 and server.jobs_failed == 1
    print(f"serve smoke: OK ({server.jobs_completed} job(s), "
          f"{server.jobs_failed} failure(s), store at {store_dir})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
