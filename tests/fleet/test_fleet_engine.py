"""Fleet engine regressions: the 8-chip golden rack and backend equivalence.

The default :class:`~repro.fleet.fleet.FleetSpec` — 8 chips, greedy
allocation, 40 ml/min per-chip budget, the seeded diurnal-bursty trace —
is the configuration the ``repro fleet`` CLI, the ``fleet`` sweep preset
and bench A18 all build on. This module pins its KPIs to six significant
figures inside tier-1, so a drift in the chip table physics, the
allocation policies or the rollup arithmetic surfaces in ``pytest -x -q``
long before a bench runs.

The equivalence class then asserts the backend contract at fleet scale:
a chip table built by the :class:`~repro.sweep.backends.SerialBackend`
and one built by the vectorized backend drive the rollup to the same
fleet result within the documented
:data:`~repro.sweep.vectorized.EQUIVALENCE_RTOL`.

These are regression pins, not physics assertions — move the goldens
only with a deliberate recalibration.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet import FleetEngine, FleetSpec
from repro.fleet.chip import ChipTable
from repro.sweep import SweepRunner
from repro.sweep.vectorized import EQUIVALENCE_RTOL

#: Default-rack KPIs on the 22x11 raster, pinned to 6 significant
#: figures (values as printed by ``repro fleet`` with no flags).
GOLDEN_KPIS = {
    "n_chips": 8.0,
    "duration_s": 4.0,
    "total_supply_ml_min": 320.0,
    "total_net_energy_j": 269.583,
    "total_generated_energy_j": 270.190,
    "total_pumping_energy_j": 0.607533,
    "worst_peak_temperature_c": 83.8799,
    "throttled_chip_time_fraction": 0.109375,
    "shed_load_fraction": 0.0218069,
    "allocation_fairness": 0.829032,
    "supply_uniformity": 0.406047,
    "mean_flow_ml_min": 40.0,
    "mean_utilization": 0.626953,
    "mean_served_utilization": 0.613281,
}


@pytest.fixture(scope="module")
def vectorized_result():
    """The default rack, rolled once for the whole module."""
    engine = FleetEngine(FleetSpec(), runner=SweepRunner(backend="vectorized"))
    return engine.run()


class TestDefaultRackGoldens:
    def test_kpis_pinned_to_six_sig_figs(self, vectorized_result):
        kpis = vectorized_result.kpis()
        assert set(kpis) == set(GOLDEN_KPIS)
        for name, golden in GOLDEN_KPIS.items():
            # rel=5e-6 is half a unit in the sixth significant figure
            # at mantissa 1 — exactly the pinning precision.
            assert kpis[name] == pytest.approx(golden, rel=5e-6), name

    def test_kpis_are_plain_floats(self, vectorized_result):
        """Exports and JSON round-trips rely on builtin scalars, not
        numpy types leaking out of the rollup."""
        for name, value in vectorized_result.kpis().items():
            assert type(value) is float, name

    def test_greedy_throttles_but_sheds_little(self, vectorized_result):
        """The qualitative shape behind the goldens: the constrained
        budget throttles ~11% of chip-time yet sheds only ~2% of load,
        while every junction stays inside the 85 degC limit."""
        result = vectorized_result
        assert 0.0 < result.throttled_chip_time_fraction < 0.2
        assert 0.0 < result.kpis()["shed_load_fraction"] < 0.05
        assert result.worst_peak_temperature_c <= 85.0


class TestBackendEquivalence:
    def test_serial_table_matches_vectorized(self, vectorized_result):
        """The rollup is a pure function of the chip table; the table is
        backend-independent within the vectorized tolerance."""
        serial = FleetEngine(
            FleetSpec(), runner=SweepRunner(backend="serial")
        ).run()

        for name, value in vectorized_result.kpis().items():
            assert serial.kpis()[name] == pytest.approx(
                value, rel=EQUIVALENCE_RTOL, abs=1e-9
            ), name
        for attr in (
            "chip_mean_flow_ml_min",
            "chip_net_energy_j",
            "chip_peak_temperature_c",
            "chip_throttled_time_fraction",
        ):
            np.testing.assert_allclose(
                getattr(serial, attr),
                getattr(vectorized_result, attr),
                rtol=EQUIVALENCE_RTOL,
                err_msg=attr,
            )


class _RecordingRunner(SweepRunner):
    """A sweep runner that keeps every spec list it was asked to run."""

    def __init__(self) -> None:
        super().__init__()
        self.batches: "list[list]" = []

    def run(self, scenarios):
        self.batches.append(list(scenarios))
        return super().run(scenarios)


class TestChipTableGridMemo:
    def test_warm_builds_reuse_specs_but_still_read_every_point(self):
        """The grid's specs (and their hashed keys) are built once per
        process; each build still reads every point from the store, so a
        job's store deltas are unchanged."""
        base = FleetSpec(n_chips=3).table_base_spec().replace(label="memo")
        flows, utils = (24.0, 16.0), (1.0, 0.0)
        runner = _RecordingRunner()
        expected = [
            base.replace(
                evaluator="fleet_chip", total_flow_ml_min=flow,
                utilization=util,
            )
            for flow in (16.0, 24.0) for util in (0.0, 1.0)
        ]
        for index, spec in enumerate(expected):
            runner.cache.put(spec.cache_key(), {
                "peak_temperature_c": 50.0 + index, "net_w": 1.0,
                "generated_w": 1.5, "pumping_w": 0.5,
                "array_current_a": 1.5,
            })
        tables = []
        for _ in range(2):
            before = runner.cache.stats()
            tables.append(ChipTable.build(flows, utils, base, runner))
            after = runner.cache.stats()
            assert after["hits"] - before["hits"] == len(expected)
            assert after["misses"] == before["misses"]
        first, second = runner.batches
        assert first == expected
        assert all(a is b for a, b in zip(first, second))
        np.testing.assert_array_equal(
            tables[1].peak_c, [[50.0, 51.0], [52.0, 53.0]]
        )


class TestSpecBoundary:
    @pytest.mark.parametrize("field, value", [
        ("operating_voltage_v", -1.0),
        ("inlet_temperature_k", -1.0),
        ("pump_efficiency", 0.0),
        ("pump_efficiency", 1.5),
    ])
    def test_bad_chip_constant_fails_at_construction(self, field, value):
        """The per-chip constants are checked with the fleet spec, not at
        the first chip-table build (non-finite rows are in
        ``tests/test_nonfinite_guards.py``)."""
        with pytest.raises(ConfigurationError):
            FleetSpec(**{field: value})

    def test_undivided_raster_fails_at_construction(self):
        """The chips' raster is split into the channel groups; an nx they
        do not divide fails with the spec, naming nx."""
        with pytest.raises(ConfigurationError, match="nx=23"):
            FleetSpec(nx=23)

    @pytest.mark.parametrize("utilization, durations, field", [
        (np.full((3, 2), np.nan), None, "utilization"),
        ([[0.5, np.nan], [0.5, 0.5]], None, "utilization"),
        ([[0.5, 1.5]], None, "utilization"),
        (np.empty((0, 2)), None, "utilization"),
        (np.empty((0, 2)), np.empty(0), "utilization"),
        (np.full((2, 2), 0.5), [1.0, np.nan], "durations_s"),
        (np.full((2, 2), 0.5), [np.inf, 1.0], "durations_s"),
        (np.full((2, 2), 0.5), [1.0, 0.0], "durations_s"),
        (np.full((2, 2), 0.5), [1.0], "durations_s"),
        (np.full((2, 2), 0.5), [1e308, 1e308], "durations_s"),
        (np.full((2, 2), 0.5), [0.6e9, 0.6e9], "durations_s"),
    ], ids=["all-nan-util", "one-nan-util", "util-above-one", "no-steps",
            "no-steps-no-durations", "nan-duration", "inf-duration",
            "zero-duration", "short-durations", "overflowing-durations",
            "schedule-above-bound"])
    def test_bad_explicit_schedule_fails_by_field(
        self, utilization, durations, field
    ):
        """An explicit schedule is checked before any table is built: NaN,
        inf, out-of-range or empty inputs, and durations totalling more
        than ``MAX_SCHEDULE_S`` (whose weighted sums would overflow to
        inf and NaN KPIs), fail on the field they came in on instead of
        reaching the KPIs (or a division by a zero duration)."""
        engine = FleetEngine(FleetSpec(n_chips=2))
        with pytest.raises(ConfigurationError, match=field):
            engine.run(utilization=utilization, durations_s=durations)
        assert "chip_table" not in engine.__dict__
