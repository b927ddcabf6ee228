"""Command-line interface: ``python -m repro <command>``.

Gives the reproduction a zero-code entry point:

- ``summary``  — the joint case-study evaluation (the paper's headline
  numbers side by side with ours);
- ``fig3`` / ``fig7`` / ``fig8`` / ``fig9`` — regenerate one artifact and
  print its series/map;
- ``cosim``   — the Section III-B coupling scenarios;
- ``sweep``   — batch design-space exploration through the
  :mod:`repro.sweep` engine (named presets, selectable batch width
  via ``--backend``, CSV/JSON export);
- ``optimize`` — design-space optimization through :mod:`repro.opt`
  (objectives + constraints, Pareto frontiers, adaptive refinement);
- ``runtime`` — closed-loop execution of a workload trace through
  :mod:`repro.runtime` (flow control + thermal throttling; KPI summary
  and CSV/JSON time series);
- ``fleet``   — rack-scale multi-chip co-design through
  :mod:`repro.fleet` (shared coolant supply split across a fleet under
  a traffic schedule; fleet KPIs and per-chip CSV/JSON records);
- ``serve``   — the :mod:`repro.serve` job-queue server: many clients
  submit sweep/optimize/runtime/fleet jobs against one warm
  :mod:`repro.store` result store (see ``docs/service.md``);
- ``obs``     — render the span traces / metrics snapshots the engine
  commands write with ``--trace`` / ``--metrics`` (see
  :mod:`repro.obs` and ``docs/observability.md``).

``sweep``, ``optimize``, ``runtime`` and ``fleet`` run the job layer
(:mod:`repro.serve.jobs`) that ``serve`` runs: each maps its flags onto
the job kind's params, calls the kind's handler and prints from the job
it returns. ``sweep --list`` and ``optimize --list`` print the available
presets; ``repro --version`` prints the package version. Every command
is a thin wrapper over the public API, so the CLI doubles as usage
documentation; ``docs/cli.md`` walks through each one.
"""

from __future__ import annotations

import argparse
import sys


def package_version() -> str:
    """Version of the ``repro`` package actually on the import path.

    ``repro.__version__`` is authoritative: it is colocated with the
    code being executed, whereas ``importlib.metadata.version("repro")``
    answers for whichever *distribution* of that name is installed — a
    ``PYTHONPATH=src`` checkout can shadow an installed (and possibly
    unrelated) ``repro`` distribution, whose metadata would then
    misreport. Metadata is the fallback for installs that strip the
    attribute.
    """
    import repro

    version = getattr(repro, "__version__", None)
    if version:
        return version
    import importlib.metadata

    return importlib.metadata.version("repro")


def _cmd_summary(_: argparse.Namespace) -> int:
    from repro.core.report import format_table
    from repro.core.system import IntegratedPowerCoolingSystem

    system = IntegratedPowerCoolingSystem()
    ev = system.evaluate(1.0)
    print(format_table(
        ["metric", "ours", "paper"],
        [
            ["array OCV [V]", ev.array_ocv_v, "~1.6"],
            ["array current at 1 V [A]", ev.array_current_a, 6.0],
            ["array power at 1 V [W]", ev.array_power_w, 6.0],
            ["cache demand [W]", ev.cache_demand_w, 5.0],
            ["demand met", str(ev.demand_met), "yes"],
            ["peak temperature [C]", ev.peak_temperature_c, 41.0],
            ["pumping power [W]", ev.pumping_power_w, 4.4],
            ["net energy gain [W]", ev.energy_balance.net_w, 1.6],
            ["PDN window [V]",
             f"[{ev.pdn_min_voltage_v:.3f}, {ev.pdn_max_voltage_v:.3f}]",
             "[0.96, 0.995]"],
            ["bright-silicon utilization", ev.bright_utilization, 1.0],
        ],
    ))
    return 0


def _cmd_fig3(_: argparse.Namespace) -> int:
    from repro.casestudy.validation_cell import build_validation_cell
    from repro.core.report import format_table
    from repro.electrochem.polarization import PolarizationCurve
    from repro.units import ma_cm2_from_a_m2
    from repro.validation import compare_polarization, reference_curve

    rows = []
    for flow in (2.5, 10.0, 60.0, 300.0):
        curve = build_validation_cell(flow).polarization_curve_density(60)
        model = PolarizationCurve(ma_cm2_from_a_m2(curve.current_a), curve.voltage_v)
        comparison = compare_polarization(model, reference_curve(flow))
        rows.append([
            flow, model.open_circuit_voltage_v, model.max_current_a,
            100.0 * comparison.max_relative_error,
        ])
    print(format_table(
        ["flow [uL/min]", "OCV [V]", "j_max [mA/cm2]", "max err [%]"], rows
    ))
    return 0


def _cmd_fig7(_: argparse.Namespace) -> int:
    from repro.casestudy.power7plus import build_array

    array = build_array()
    print(f"OCV: {array.open_circuit_voltage_v:.3f} V")
    for current in (0.0, 2.0, 4.0, 6.0, 10.0, 20.0, 30.0, 40.0, 50.0):
        if current <= array.max_current_a:
            print(f"  I = {current:5.1f} A  ->  V = "
                  f"{array.curve.voltage_at_current(current):.3f} V")
    print(f"I at 1.0 V: {array.current_at_voltage(1.0):.2f} A (paper: 6 A)")
    return 0


def _cmd_fig8(_: argparse.Namespace) -> int:
    from repro.core.report import ascii_heatmap
    from repro.geometry.power7 import build_power7_floorplan
    from repro.pdn.power7_pdn import solve_cache_pdn

    result = solve_cache_pdn(build_power7_floorplan())
    print(f"voltage window: [{result.min_voltage_v:.4f}, "
          f"{result.max_voltage_v:.4f}] V, supply {result.supply_current_a:.2f} A")
    print(ascii_heatmap(result.voltage_map_v))
    return 0


def _cmd_fig9(_: argparse.Namespace) -> int:
    from repro.casestudy.power7plus import build_thermal_model
    from repro.core.report import ascii_heatmap

    solution = build_thermal_model().solve_steady()
    print(f"peak: {solution.peak_celsius:.1f} C (paper: 41 C)")
    print(ascii_heatmap(solution.field_celsius("active_si")))
    return 0


def _cmd_cosim(_: argparse.Namespace) -> int:
    from repro.cosim import CosimConfig, ElectroThermalCosim

    base = dict(nx=44, ny=22)
    for label, config in (
        ("nominal", CosimConfig(**base)),
        ("48 ml/min", CosimConfig(total_flow_ml_min=48.0, **base)),
        ("37 C inlet", CosimConfig(inlet_temperature_k=310.15, **base)),
    ):
        result = ElectroThermalCosim(config).run()
        print(f"{label:12s} I = {result.array_current_a:5.2f} A, "
              f"peak {result.peak_temperature_c:5.1f} C, "
              f"gain vs own isothermal {100 * result.current_gain:+5.1f} %")
    return 0


def _preset_usage(args: argparse.Namespace, presets: "dict[str, object]"
                  ) -> "int | None":
    """Handle ``--list`` (one line per preset: name + description,
    name-sorted) and a missing preset name; None when the job should
    run."""
    if args.list:
        width = max(len(name) for name in presets)
        for name in sorted(presets):
            print(f"{name:<{width}}  {presets[name].description}")
        return 0
    if args.preset is None:
        print(f"repro {args.command}: error: a preset name is required "
              "(see --list)", file=sys.stderr)
        return 2
    return None


def _runner(args: argparse.Namespace, directory: "str | None"):
    """The sweep runner a job command, or the server, evaluates on."""
    from repro.store import ResultStore
    from repro.sweep import SweepRunner

    return SweepRunner(
        cache=ResultStore(
            directory=directory,
            max_disk_entries=getattr(args, "cache_max_entries", None),
            max_disk_bytes=getattr(args, "cache_max_bytes", None),
        ),
        backend=getattr(args, "backend", None),
    )


def _job_params(args: argparse.Namespace) -> "dict[str, object]":
    """The job params the command's flags set.

    Each mapped flag's ``dest`` is its param name and a flag the user
    did not set is absent (``argparse.SUPPRESS``), so the job schema's
    default applies. ``runtime``/``fleet`` already use ``--trace NAME``
    to pick the workload or traffic trace, while the observability flags
    spell the span-trace output ``--trace out.json`` everywhere. A value
    ending in ``.json`` is unambiguous — no trace *name* ends that way —
    so it becomes the Chrome-trace output path (``args.trace_out``) and
    the trace param is left out. The check is case-insensitive: ``--trace
    OUT.JSON`` is a span-trace path on a case-preserving filesystem too,
    not a (nonexistent) workload named ``OUT.JSON``.
    """
    from repro.serve.jobs import _SCHEMAS

    params = {
        name: getattr(args, name)
        for name in _SCHEMAS[args.command] if hasattr(args, name)
    }
    if params.get("trace", "").lower().endswith(".json"):
        args.trace_out = params.pop("trace")
    return params


def _run_job(args: argparse.Namespace):
    """Run the command's job (:func:`repro.serve.jobs.execute`) on its
    runner, in an observability session if ``--trace``/``--metrics``
    asked for one; returns ``(job, runner)``."""
    from repro import obs
    from repro.serve.jobs import execute

    params = _job_params(args)
    runner = _runner(args, getattr(args, "cache_dir", None))
    trace_out = getattr(args, "trace_out", None)
    metrics = getattr(args, "metrics", None)
    if trace_out or metrics:
        obs.start()
    try:
        return execute(args.command, params, runner), runner
    finally:
        session = obs.stop()
        if session is not None:
            if trace_out:
                print("Chrome trace written to "
                      f"{session.write_trace(trace_out)}")
            if metrics:
                print(f"metrics written to {session.write_metrics(metrics)}")


def _export(args: argparse.Namespace, job, label: str) -> int:
    """Write the job's ``--csv``/``--json`` exports; ``label`` leads
    each "written to" line."""
    if args.csv:
        print(f"{label}CSV written to {job.export.save_csv(args.csv)}")
    if args.json:
        print(f"{label}JSON written to {job.export.save_json(args.json)}")
    return 0


def _print_kpis(kpis: "dict[str, object]") -> None:
    from repro.core.report import format_table

    print(format_table(
        ["KPI", "value"], [[name, value] for name, value in kpis.items()]
    ))


def _print_cache_stats(cache) -> None:
    """The store's accounting: this run, plus (for a directory-backed
    store) the flushed lifetime totals of every process that shared it."""
    from repro.core.report import format_table

    names = ("hits", "misses", "corrupt", "evicted")
    stats = cache.stats()
    rows = [[name, stats[name]] for name in names]
    if cache.directory is not None:
        cache.flush_stats()
        persisted = cache.persisted_stats()
        rows = [
            row + [persisted[name]] for row, name in zip(rows, names)
        ]
        print("\ncache statistics (this run | directory lifetime):")
        print(format_table(["outcome", "run", "lifetime"], rows))
    else:
        print("\ncache statistics:")
        print(format_table(["outcome", "count"], rows))


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep.presets import PRESETS

    usage = _preset_usage(args, PRESETS)
    if usage is not None:
        return usage
    job, runner = _run_job(args)
    preset, results = job.subject, job.result
    print(
        f"sweep '{preset.name}' — {preset.description}\n"
        f"{job.summary['scenarios']} scenarios through the "
        f"{preset.base.evaluator!r} evaluator ({runner.backend.name} "
        "backend)\n"
    )
    print(results.table())
    print(
        f"\nevaluated in {results.total_elapsed_s:.2f} s "
        f"({runner.cache.hits} cache hit(s), "
        f"{runner.cache.misses} miss(es))"
    )
    if args.cache_stats:
        _print_cache_stats(runner.cache)
    return _export(args, job, "")


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.core.report import format_table
    from repro.opt.presets import PRESETS

    usage = _preset_usage(args, PRESETS)
    if usage is not None:
        return usage
    job, _ = _run_job(args)
    preset, result = job.subject, job.result
    problem = preset.problem
    print(
        f"optimize '{preset.name}' — {preset.description}\n"
        f"objectives: "
        f"{', '.join(o.describe() for o in problem.objectives)}"
    )
    if problem.constraints:
        print("constraints: "
              f"{', '.join(c.describe() for c in problem.constraints)}")
    print()
    print(format_table(
        ["round", "scenarios", "evaluated", "cached", "front", "bounds"],
        [
            [
                r.index, r.n_scenarios, r.n_evaluated, r.n_cached,
                r.front_size,
                "  ".join(
                    f"{field}=[{lo:g}, {hi:g}]" for field, lo, hi in r.spans
                ),
            ]
            for r in result.rounds
        ],
    ))
    if not len(result.frontier):
        print("\nno feasible design point found — every scenario violates "
              "a constraint")
        return 1
    print(f"\nPareto frontier ({len(result.frontier)} point(s)):\n")
    # Explicit columns: the table's varying-fields default would drop
    # any design axis that takes a single value on the frontier (always
    # the case for a converged scalar search).
    axis_fields = [axis.field for axis in problem.axes]
    metric_names = [
        key for key in result.frontier[0].record()
        if key not in result.frontier[0].spec.field_names()
    ]
    print(result.frontier.table(axis_fields + metric_names))
    best = result.best
    lead = problem.objectives[0]
    def show(value: object) -> str:
        return f"{value:g}" if isinstance(value, float) else str(value)

    print(
        f"\nbest ({lead.describe()}): {lead.metric} = "
        f"{best.metrics[lead.metric]:.4g} at "
        + ", ".join(
            f"{field}={show(getattr(best.spec, field))}"
            for field in axis_fields
        )
    )
    status = {
        "converged": "converged to tolerance",
        "front_spans_region":
            "stopped (front spans the remaining search region)",
        "budget":
            "stopped (round budget exhausted while still refining; "
            "raise --rounds to tighten further)",
    }[result.stop_reason]
    print(
        f"{status} after {len(result.rounds)} round(s); "
        f"{result.n_evaluated} evaluation(s), {result.n_cached} from cache"
    )
    return _export(args, job, "frontier ")


def _cmd_runtime(args: argparse.Namespace) -> int:
    job, _ = _run_job(args)
    trace = job.subject
    print(
        f"runtime '{trace.name}' — {len(trace.segments)} segment(s), "
        f"{trace.duration_s:g} s, {job.params['controller']} flow control\n"
    )
    _print_kpis(job.summary["kpis"])
    return _export(args, job, "\ntime series ")


def _cmd_fleet(args: argparse.Namespace) -> int:
    job, runner = _run_job(args)
    spec = job.subject
    print(
        f"fleet — {spec.n_chips} chip(s), {spec.policy!r} allocation, "
        f"{spec.supply().total_flow_ml_min:g} ml/min shared supply, "
        f"'{spec.trace}' traffic (skew {spec.skew:g})\n"
    )
    _print_kpis(job.summary["kpis"])
    print()
    print(job.result.table())
    stats = runner.cache.stats()
    print(
        f"\nchip table: {stats['misses']} evaluation(s), "
        f"{stats['hits']} cache hit(s) ({runner.backend.name} backend)"
    )
    return _export(args, job, "per-chip ")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ResultServer

    runner = _runner(args, args.store)
    server = ResultServer(
        runner, host=args.host, port=args.port,
        heartbeat_s=args.heartbeat,
    )

    def _announce(ready: "object") -> None:
        store = "memory-only" if args.store is None else args.store
        print(
            f"repro serve: listening on {server.host}:{server.port} "
            f"(store: {store}, {runner.backend.name} backend)",
            flush=True,
        )

    try:
        asyncio.run(server.serve_forever(on_ready=_announce))
    except KeyboardInterrupt:
        print("repro serve: stopped")
    return 0


def _cmd_obs_summarize(args: argparse.Namespace) -> int:
    import json

    from repro.obs.report import format_metrics_summary, format_trace_summary

    if args.trace_in is None and args.metrics_in is None:
        print("repro obs summarize: error: nothing to summarize — pass "
              "--trace and/or --metrics", file=sys.stderr)
        return 2
    shown = False
    if args.trace_in is not None:
        with open(args.trace_in, encoding="utf-8") as handle:
            payload = json.load(handle)
        print(f"spans ({args.trace_in}):")
        print(format_trace_summary(payload, limit=args.top))
        shown = True
    if args.metrics_in is not None:
        with open(args.metrics_in, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        if shown:
            print()
        print(f"metrics ({args.metrics_in}):")
        print(format_metrics_summary(snapshot))
    return 0


#: Simple artifact commands (no options of their own).
_ARTIFACT_COMMANDS = {
    "summary": (_cmd_summary, "joint case-study evaluation vs the paper"),
    "fig3": (_cmd_fig3, "validation-cell polarization vs Kjeang 2007"),
    "fig7": (_cmd_fig7, "88-channel array V-I curve"),
    "fig8": (_cmd_fig8, "cache PDN voltage map"),
    "fig9": (_cmd_fig9, "full-load thermal map"),
    "cosim": (_cmd_cosim, "Section III-B coupling scenarios"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Integrated Microfluidic Power "
        "Generation and Cooling for Bright Silicon MPSoCs' (DATE 2014).",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {package_version()}",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="command"
    )
    for name, (handler, help_text) in _ARTIFACT_COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)

    sweep = commands.add_parser(
        "sweep",
        help="batch design-space sweep (see docs/cli.md)",
        description="Expand a named preset grid into scenarios and run "
        "them through the sweep engine.",
    )
    # Preset names are validated by get_preset at run time (caught in
    # main), not via choices=: importing repro.sweep here would put the
    # whole model stack on every CLI invocation's startup path.
    sweep.add_argument(
        "preset", nargs="?", default=None,
        help="which design study to run: flow, geometry, vrm, "
        "workloads, cosim, transient, runtime or fleet (see --list)",
    )
    sweep.add_argument(
        "--list", action="store_true",
        help="print the available presets with descriptions and exit",
    )
    sweep.add_argument(
        "--points", type=int, default=argparse.SUPPRESS, metavar="N",
        help="grid density: expand to at least N scenarios "
        "(default: the preset's own)",
    )
    sweep.add_argument(
        "--backend", default=None, metavar="NAME",
        choices=("serial", "vectorized"),
        help="evaluation backend: vectorized (one batch per evaluator, "
        "default) or serial (batches of one)",
    )
    sweep.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist per-scenario results as JSON under DIR and reuse "
        "them on later runs (shareable across processes and hosts; "
        "see docs/service.md)",
    )
    sweep.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="evict oldest-touched cache entries beyond N (default: "
        "unlimited)",
    )
    sweep.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="BYTES",
        help="evict oldest-touched cache entries once the directory "
        "exceeds BYTES (default: unlimited)",
    )
    sweep.add_argument(
        "--csv", default=None, metavar="PATH", help="export records as CSV"
    )
    sweep.add_argument(
        "--json", default=None, metavar="PATH", help="export records as JSON"
    )
    sweep.add_argument(
        "--cache-stats", action="store_true", dest="cache_stats",
        help="print the cache hits/misses/corrupt table after the run",
    )
    sweep.add_argument(
        "--trace", dest="trace_out", default=None, metavar="PATH",
        help="write a Chrome-format span trace of the run to PATH "
        "(see docs/observability.md)",
    )
    sweep.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the observability metrics snapshot to PATH as JSON",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    optimize = commands.add_parser(
        "optimize",
        help="design-space optimization (see docs/optimization.md)",
        description="Run a named optimization preset: adaptive grid "
        "refinement toward the objective(s) under the constraints, "
        "through the sweep engine's cache and backends.",
    )
    optimize.add_argument(
        "preset", nargs="?", default=None,
        help="which design question to answer: flow-optimum, "
        "geometry-pareto, vrm-tradeoff, runtime-pid or "
        "fleet-allocation (see --list)",
    )
    optimize.add_argument(
        "--list", action="store_true",
        help="print the available presets with descriptions and exit",
    )
    optimize.add_argument(
        "--rounds", type=int, default=argparse.SUPPRESS, metavar="N",
        help="refinement-round budget (default: the preset's own)",
    )
    optimize.add_argument(
        "--backend", default=None, metavar="NAME",
        choices=("serial", "vectorized"),
        help="evaluation backend for every refinement round: vectorized "
        "(default) or serial (batches of one)",
    )
    optimize.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist per-scenario results under DIR; a re-run replays "
        "the search with no new evaluations",
    )
    optimize.add_argument(
        "--csv", default=None, metavar="PATH",
        help="export the Pareto frontier as CSV",
    )
    optimize.add_argument(
        "--json", default=None, metavar="PATH",
        help="export the Pareto frontier as JSON",
    )
    optimize.add_argument(
        "--trace", dest="trace_out", default=None, metavar="PATH",
        help="write a Chrome-format span trace of the search to PATH "
        "(see docs/observability.md)",
    )
    optimize.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the observability metrics snapshot to PATH as JSON",
    )
    optimize.set_defaults(handler=_cmd_optimize)

    runtime = commands.add_parser(
        "runtime",
        help="closed-loop workload-trace execution (see docs/runtime.md)",
        description="Run a named workload trace through the closed-loop "
        "runtime engine: a flow controller and a thermal throttle "
        "governor modulate the coolant stream while the trace plays.",
    )
    # Trace and controller names are validated by the runtime layer at
    # run time (caught in main), for the same startup-cost reason the
    # sweep presets are.
    runtime.add_argument(
        "--trace", default=argparse.SUPPRESS, metavar="NAME",
        help="workload trace: step, ramp, square, bursty or diurnal "
        "(default: bursty); a value ending in .json instead writes a "
        "Chrome-format span trace there (see docs/observability.md)",
    )
    runtime.add_argument(
        "--controller", default=argparse.SUPPRESS, choices=("fixed", "pid"),
        help="flow policy: closed-loop PID on peak temperature, or "
        "fixed open-loop flow (default: pid)",
    )
    runtime.add_argument(
        "--flow", dest="flow_ml_min", type=float,
        default=argparse.SUPPRESS, metavar="ML_MIN",
        help="fixed flow, or the PID's starting flow [ml/min] (default: "
        "676, the paper's nominal)",
    )
    runtime.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, metavar="N",
        help="burst-pattern seed of the bursty trace (default: 7)",
    )
    runtime.add_argument(
        "--kp", type=float, default=argparse.SUPPRESS, metavar="G",
        help="PID proportional gain [ml/min per K] (default: 40)",
    )
    runtime.add_argument(
        "--ki", type=float, default=argparse.SUPPRESS, metavar="G",
        help="PID integral gain [ml/min per K.s] (default: 60)",
    )
    runtime.add_argument(
        "--csv", default=None, metavar="PATH",
        help="export the per-step time series as CSV",
    )
    runtime.add_argument(
        "--json", default=None, metavar="PATH",
        help="export the per-step time series as JSON",
    )
    runtime.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the observability metrics snapshot to PATH as JSON",
    )
    runtime.set_defaults(handler=_cmd_runtime)

    fleet = commands.add_parser(
        "fleet",
        help="rack-scale shared-supply fleet evaluation (see docs/fleet.md)",
        description="Split one coolant supply across a fleet of chips "
        "under a traffic schedule and report the fleet KPIs: net energy, "
        "worst-chip junction temperature, throttling and fairness.",
    )
    # Policy and trace names are validated by the fleet layer at run
    # time (caught in main), for the same startup-cost reason as above.
    fleet.add_argument(
        "--chips", type=int, default=argparse.SUPPRESS, metavar="N",
        help="fleet size (default: 8)",
    )
    fleet.add_argument(
        "--policy", default=argparse.SUPPRESS, metavar="NAME",
        help="flow allocation policy: greedy, proportional or uniform "
        "(default: greedy)",
    )
    fleet.add_argument(
        "--supply", dest="supply_per_chip_ml_min", type=float,
        default=argparse.SUPPRESS, metavar="ML_MIN",
        help="pump budget per chip [ml/min]; the shared supply is N "
        "chips times this (default: 40)",
    )
    fleet.add_argument(
        "--trace", default=argparse.SUPPRESS, metavar="NAME",
        help="traffic trace: step, ramp, square, bursty, diurnal or "
        "diurnal-bursty (default: diurnal-bursty); a value ending in "
        ".json instead writes a Chrome-format span trace there "
        "(see docs/observability.md)",
    )
    fleet.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, metavar="N",
        help="traffic seed: burst pattern and per-chip load-balancing "
        "weights (default: 7)",
    )
    fleet.add_argument(
        "--skew", type=float, default=argparse.SUPPRESS, metavar="S",
        help="load-balancing skew; 0 spreads traffic evenly "
        "(default: 0.35)",
    )
    fleet.add_argument(
        "--backend", default=None, metavar="NAME",
        choices=("serial", "vectorized"),
        help="chip-table evaluation backend: vectorized (default) or "
        "serial (batches of one)",
    )
    fleet.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist chip-table points as JSON under DIR; a re-run "
        "replays the fleet with no new evaluations",
    )
    fleet.add_argument(
        "--csv", default=None, metavar="PATH",
        help="export the per-chip records as CSV",
    )
    fleet.add_argument(
        "--json", default=None, metavar="PATH",
        help="export the per-chip records as JSON",
    )
    fleet.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the observability metrics snapshot to PATH as JSON",
    )
    fleet.set_defaults(handler=_cmd_fleet)

    serve = commands.add_parser(
        "serve",
        help="job-queue server over one shared result store "
        "(see docs/service.md)",
        description="Accept sweep/optimize/runtime/fleet jobs from many "
        "clients over newline-delimited JSON and evaluate them against "
        "one warm content-addressed result store, streaming progress "
        "and returning byte-identical exports to in-process runs.",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=7777, metavar="PORT",
        help="bind port; 0 picks a free one and prints it (default: 7777)",
    )
    serve.add_argument(
        "--store", default=None, metavar="DIR",
        help="shared result-store directory (default: memory-only — "
        "warm within this server's lifetime, not across restarts)",
    )
    serve.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="store eviction budget: keep at most N entries on disk",
    )
    serve.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="BYTES",
        help="store eviction budget: keep the directory under BYTES",
    )
    serve.add_argument(
        "--backend", default=None, metavar="NAME",
        choices=("serial", "vectorized"),
        help="evaluation backend for every job: vectorized (default) or "
        "serial (batches of one)",
    )
    serve.add_argument(
        "--heartbeat", type=float, default=1.0, metavar="SECONDS",
        help="progress-event interval for waiting clients (default: 1.0)",
    )
    serve.set_defaults(handler=_cmd_serve)

    obs_parser = commands.add_parser(
        "obs",
        help="observability reports over --trace/--metrics exports "
        "(see docs/observability.md)",
    )
    obs_commands = obs_parser.add_subparsers(
        dest="obs_command", required=True, metavar="action"
    )
    summarize = obs_commands.add_parser(
        "summarize",
        help="top spans by self-time and the counter table",
        description="Summarize the JSON files written by the "
        "--trace/--metrics flags of sweep, optimize, runtime and fleet.",
    )
    summarize.add_argument(
        "--trace", dest="trace_in", default=None, metavar="PATH",
        help="Chrome-format span trace to summarize",
    )
    summarize.add_argument(
        "--metrics", dest="metrics_in", default=None, metavar="PATH",
        help="metrics snapshot to summarize",
    )
    summarize.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many spans to show, ranked by self-time (default: 10)",
    )
    summarize.set_defaults(handler=_cmd_obs_summarize)

    lint = commands.add_parser(
        "lint",
        help="run the repo's AST lint suite (determinism, unit "
        "suffixes, spec contracts; see docs/static-analysis.md)",
    )
    from repro.analysis.cli import add_arguments as _add_lint_arguments

    _add_lint_arguments(lint)
    lint.set_defaults(handler=_cmd_lint)
    return parser


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run as lint_run

    return lint_run(args)


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.errors import ConfigurationError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    sys.exit(main())
