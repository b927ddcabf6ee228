"""Tests for the shared polarization surface (the co-sim curve source)."""

import numpy as np
import pytest

from repro.casestudy.power7plus import build_array_cell
from repro.cosim import PolarizationSurface, warm_surfaces
from repro.cosim.surface import (
    CHANNELS_PER_GROUP,
    MAX_OVERPOTENTIAL_V,
    N_CURVE_POINTS,
)
from repro.errors import ConfigurationError
from repro.flowcell.array import FlowCellArray

#: Off-node temperatures spanning the co-sim operating envelope: nominal
#: inlet, warm inlet, and the coolant temperatures the 48 ml/min stress
#: case reaches (~90 C).
ENVELOPE_TEMPS_K = (300.0, 303.37, 310.15, 322.71, 341.0, 363.2)


def direct_group_curve(flow_ml_min: float, temperature_k: float):
    """The pre-refactor reference: a curve built at the exact temperature."""
    cell = build_array_cell(
        total_flow_ml_min=flow_ml_min,
        temperature_k=temperature_k,
        temperature_dependent=True,
    )
    return cell.polarization_curve(
        n_points=N_CURVE_POINTS, max_overpotential_v=MAX_OVERPOTENTIAL_V
    ).scaled(CHANNELS_PER_GROUP)


def count_marches(monkeypatch):
    """Record ``(cells, n_points)`` of every node march from here on."""
    from repro.flowcell import batch

    marches = []
    real = batch.batched_polarization_curves

    def recording(cells, n_points=40, **kwargs):
        marches.append((len(cells), n_points))
        return real(cells, n_points=n_points, **kwargs)

    monkeypatch.setattr(batch, "batched_polarization_curves", recording)
    return marches


@pytest.fixture(scope="module")
def surface():
    return PolarizationSurface(676.0)


class TestAccuracy:
    @pytest.mark.parametrize("voltage", [0.8, 1.0, 1.2])
    def test_currents_match_direct_construction(self, surface, voltage):
        """Interpolated currents within 0.5 % of exact-temperature curves
        across the co-sim operating envelope (the acceptance band)."""
        interpolated = surface.currents_at(ENVELOPE_TEMPS_K, voltage)
        for temperature, current in zip(ENVELOPE_TEMPS_K, interpolated):
            curve = direct_group_curve(676.0, temperature)
            direct = FlowCellArray.combine_at_voltage([curve], voltage)
            assert current == pytest.approx(direct, rel=5e-3)

    def test_ocvs_match_direct_construction(self, surface):
        ocvs = surface.ocvs_at(ENVELOPE_TEMPS_K)
        for temperature, ocv in zip(ENVELOPE_TEMPS_K, ocvs):
            curve = direct_group_curve(676.0, temperature)
            assert ocv == pytest.approx(curve.open_circuit_voltage_v, rel=5e-3)

    def test_exact_node_query_is_exact(self, surface):
        """A query landing on a grid node reproduces that node's curve."""
        node_t = float(surface.node_temperatures_k[100])
        curve = direct_group_curve(676.0, node_t)
        direct = FlowCellArray.combine_at_voltage([curve], 1.0)
        assert surface.current_at(node_t, 1.0) == pytest.approx(direct, rel=1e-12)

    def test_voltage_above_all_ocvs_gives_zero(self, surface):
        assert np.all(surface.currents_at(ENVELOPE_TEMPS_K, 2.0) == 0.0)

    def test_ocv_cutoff_matches_interpolated_ocv(self, surface):
        """A voltage straddling the OCVs of the envelope must split the
        temperatures cleanly: exact zero at or below the interpolated
        OCV, strictly positive above — no blended sliver currents from a
        zero-contribution node."""
        temps = np.linspace(300.0, 340.0, 81)
        ocvs = surface.ocvs_at(temps)
        assert ocvs.max() > ocvs.min()  # OCV does move over the envelope
        voltage = 0.5 * (float(ocvs.min()) + float(ocvs.max()))
        currents = surface.currents_at(temps, voltage)
        open_circuit = voltage >= ocvs
        assert np.all(currents[open_circuit] == 0.0)
        assert np.all(currents[~open_circuit] > 0.0)


class TestVectorization:
    def test_preserves_shape(self, surface):
        temps = np.array([[300.0, 310.0], [320.0, 330.0]])
        currents = surface.currents_at(temps, 1.0)
        assert currents.shape == temps.shape
        assert surface.ocvs_at(temps).shape == temps.shape

    def test_scalar_conveniences(self, surface):
        assert isinstance(surface.current_at(300.0, 1.0), float)

    def test_warmer_groups_make_more_current(self, surface):
        temps = np.linspace(300.0, 340.0, 9)
        currents = surface.currents_at(temps, 1.0)
        assert np.all(np.diff(currents) > 0.0)


class TestGrid:
    def test_nodes_built_lazily(self):
        fresh = PolarizationSurface(676.0)
        assert fresh.nodes_built == 0
        fresh.currents_at([300.1, 300.2], 1.0)
        # Two queries inside one grid cell touch only its two nodes.
        assert fresh.nodes_built == 2

    def test_out_of_range_raises(self, surface):
        lo, hi = surface.temperature_range_k
        with pytest.raises(ConfigurationError):
            surface.currents_at([lo - 1.0], 1.0)
        with pytest.raises(ConfigurationError):
            surface.ocvs_at([hi + 1.0])

    def test_range_endpoints_are_queryable(self, surface):
        lo, hi = surface.temperature_range_k
        assert surface.current_at(lo, 1.0) >= 0.0
        assert surface.current_at(hi, 1.0) > 0.0

    @pytest.mark.parametrize("kwargs", [
        {"resolution_k": 0.0},
        {"resolution_k": -1.0},
        {"temperature_range_k": (400.0, 300.0)},
        {"temperature_range_k": (-10.0, 300.0)},
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            PolarizationSurface(676.0, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"total_flow_ml_min": float("nan")},
        {"total_flow_ml_min": float("inf")},
        {"resolution_k": float("nan")},
        {"temperature_range_k": (float("nan"), 300.0)},
        {"temperature_range_k": (300.0, float("inf"))},
    ])
    def test_non_finite_inputs_rejected(self, kwargs):
        kwargs = {"total_flow_ml_min": 676.0, **kwargs}
        with pytest.raises(ConfigurationError):
            PolarizationSurface(**kwargs)

    def test_flow_validation(self):
        with pytest.raises(ConfigurationError):
            PolarizationSurface(0.0)


class TestGridEdges:
    """Out-of-grid behavior pinned against direct construction.

    Regression guard for the edge conventions: queries *at* the covered
    window's endpoints are exact node evaluations (the bracketing clamp
    never blends in data from outside the grid), anything strictly
    beyond raises rather than extrapolating, and a window whose span is
    not an integer multiple of the resolution is extended (never
    truncated) to the next node.
    """

    @pytest.fixture(scope="class")
    def narrow(self):
        return PolarizationSurface(
            676.0, temperature_range_k=(300.0, 304.0), resolution_k=1.0,
        )

    @pytest.mark.parametrize("edge", [0, -1])
    def test_edge_queries_match_direct_construction(self, narrow, edge):
        edge_t = float(narrow.node_temperatures_k[edge])
        curve = direct_group_curve(676.0, edge_t)
        direct = FlowCellArray.combine_at_voltage([curve], 1.0)
        # Exact, not approximately: the edge query must evaluate the
        # edge node's own curve, with zero interpolation weight leaking
        # toward the interior.
        assert narrow.current_at(edge_t, 1.0) == pytest.approx(
            direct, rel=1e-12
        )
        assert narrow.ocvs_at([edge_t])[0] == pytest.approx(
            curve.open_circuit_voltage_v, rel=1e-12
        )

    @pytest.mark.parametrize("epsilon", [1e-9, 0.01, 5.0])
    def test_beyond_either_edge_raises_not_extrapolates(self, narrow,
                                                        epsilon):
        lo, hi = narrow.temperature_range_k
        for bad in (lo - epsilon, hi + epsilon):
            with pytest.raises(ConfigurationError, match="outside"):
                narrow.currents_at([bad], 1.0)
            with pytest.raises(ConfigurationError, match="outside"):
                narrow.ocvs_at([bad])

    def test_out_of_window_error_names_the_coolant_and_window(self, narrow):
        """No caller can set the window, so the error names the coolant
        temperature and the window it left, not a knob."""
        with pytest.raises(ConfigurationError) as caught:
            narrow.current_at(310.0, 1.0)
        message = str(caught.value)
        assert "coolant temperature" in message
        assert "window [300.00, 304.00] K" in message
        assert "temperature_range_k" not in message

    def test_one_bad_temperature_fails_the_whole_batch(self, narrow):
        lo, hi = narrow.temperature_range_k
        with pytest.raises(ConfigurationError):
            narrow.currents_at([lo, 0.5 * (lo + hi), hi + 1.0], 1.0)

    def test_non_multiple_span_overshoots_to_the_next_node(self):
        surface = PolarizationSurface(
            676.0, temperature_range_k=(300.0, 301.3), resolution_k=0.5,
        )
        lo, hi = surface.temperature_range_k
        assert lo == pytest.approx(300.0)
        # The covered window extends past the requested 301.3 K max...
        assert hi == pytest.approx(301.5)
        # ...and the extension is queryable, not a dead zone.
        assert surface.current_at(301.4, 1.0) > 0.0
        with pytest.raises(ConfigurationError):
            surface.current_at(301.5 + 1e-6, 1.0)

    def test_edge_interval_interpolates_between_its_nodes(self, narrow):
        """A query inside the last interval blends only the last two
        nodes (the index clamp at len-2 must not shift the bracket)."""
        t_lo = float(narrow.node_temperatures_k[-2])
        t_hi = float(narrow.node_temperatures_k[-1])
        inside = 0.75 * t_hi + 0.25 * t_lo
        current = narrow.current_at(inside, 1.0)
        bracket = sorted([
            narrow.current_at(t_lo, 1.0), narrow.current_at(t_hi, 1.0)
        ])
        assert bracket[0] <= current <= bracket[1]


class TestSharing:
    def test_same_flow_shares_one_surface(self):
        assert PolarizationSurface.shared(676.0) is PolarizationSurface.shared(
            676
        )

    def test_different_flow_gets_its_own_surface(self):
        assert (
            PolarizationSurface.shared(676.0)
            is not PolarizationSurface.shared(48.0)
        )

    def test_clear_shared_resets(self):
        first = PolarizationSurface.shared(676.0)
        PolarizationSurface.clear_shared()
        try:
            assert PolarizationSurface.shared(676.0) is not first
        finally:
            PolarizationSurface.clear_shared()


class TestHistoryIndependence:
    """Every node of a surface has one construction, whoever builds it."""

    TEMPS_K = (300.2, 301.7, 305.4, 318.9, 340.3)

    @staticmethod
    def _assert_same_nodes(surface, other):
        """Every node built on ``surface`` is built on ``other``, same bits."""
        assert surface._curves
        for node, curve in surface._curves.items():
            twin = other._curves[node]
            assert np.array_equal(curve.current_a, twin.current_a)
            assert np.array_equal(curve.voltage_v, twin.voltage_v)

    @pytest.mark.parametrize("array_query", [False, True])
    def test_alone_and_cross_surface_warmed_nodes_are_bit_identical(
        self, array_query, monkeypatch
    ):
        """A surface whose own queries (scalar or array) warm its nodes
        matches one warmed in a cross-surface batch, bit for bit."""
        alone, batched = (
            PolarizationSurface(676.0)
            for _ in range(2)
        )
        others = [
            PolarizationSurface(flow)
            for flow in (169.0, 1352.0)
        ]
        # One prefill of every node the queries touch, one more pair, and
        # the other surfaces' nodes in the same march.
        assert warm_surfaces([
            (batched, self.TEMPS_K + (325.2,)),
            *((other, self.TEMPS_K) for other in others),
        ]) == 32
        marches = count_marches(monkeypatch)
        for voltage in (0.8, 1.0, 1.2):
            if array_query:
                assert np.array_equal(
                    alone.currents_at(self.TEMPS_K, voltage),
                    batched.currents_at(self.TEMPS_K, voltage),
                )
                continue
            for t in self.TEMPS_K:
                assert alone.current_at(t, voltage) == batched.current_at(
                    t, voltage
                )
        assert np.array_equal(alone.ocvs_at(self.TEMPS_K),
                              batched.ocvs_at(self.TEMPS_K))
        # An array query warms all its brackets in one march; scalar
        # queries march once per temperature.
        assert len(marches) == (1 if array_query else len(self.TEMPS_K))
        assert alone.nodes_built == 10
        self._assert_same_nodes(alone, batched)

    def test_cross_surface_warm_is_batch_independent(self, monkeypatch):
        """Surfaces at three flows warmed by one call hold the node curves
        each would build alone, and the call makes exactly one march."""
        def surfaces():
            return [
                PolarizationSurface(flow) for flow in (169.0, 676.0, 1352.0)
            ]

        temps = [(300.2 + 7.0 * k, 341.0 - 3.5 * k) for k in range(3)]
        together, alone = surfaces(), surfaces()
        marches = count_marches(monkeypatch)
        built = warm_surfaces(zip(together, temps))
        assert marches == [(12, N_CURVE_POINTS)]
        assert built == 12
        for surface, surface_temps in zip(alone, temps):
            assert surface.warm_nodes(surface_temps) == 4
        for surface, twin in zip(alone, together):
            self._assert_same_nodes(surface, twin)
            assert surface.nodes_built == twin.nodes_built

    def test_runtime_fleet_chip_and_transient_share_one_surface(
        self, monkeypatch
    ):
        """One curve construction and one sampling, so one surface per
        flow: the runtime engine, a fleet chip and the transient stepper
        all query the same object."""
        from repro.cosim import TransientCosim
        from repro.fleet.chip import batch_chip_states
        from repro.sweep.evaluators import cosim_config
        from repro.runtime import (
            BatchedRuntimeEngine,
            FixedFlow,
            RuntimeConfig,
            TraceSegment,
            WorkloadTrace,
        )
        from repro.sweep.spec import ScenarioSpec

        queried = {}
        real_currents_at = PolarizationSurface.currents_at

        def recording(surface, temperatures_k, voltage_v):
            queried.setdefault(caller, set()).add(id(surface))
            return real_currents_at(surface, temperatures_k, voltage_v)

        monkeypatch.setattr(PolarizationSurface, "currents_at", recording)
        spec = ScenarioSpec(evaluator="fleet_chip", nx=22, ny=11,
                            total_flow_ml_min=676.0, utilization=0.7)
        PolarizationSurface.clear_shared()
        try:
            caller = "fleet chip"
            batch_chip_states([spec])
            caller = "runtime"
            BatchedRuntimeEngine(
                [FixedFlow(spec.total_flow_ml_min)],
                config=RuntimeConfig(nx=22, ny=11),
            ).run(WorkloadTrace("hold", [
                TraceSegment(0.1, spec.utilization, spec.workload)
            ]))
            caller = "transient"
            TransientCosim(cosim_config(spec)).run_step_response(
                spec.utilization, spec.utilization, 0.1, 0.05
            )
            assert len(PolarizationSurface._SHARED) == 1
        finally:
            PolarizationSurface.clear_shared()
        assert set(queried) == {"fleet chip", "runtime", "transient"}
        assert len(set().union(*queried.values())) == 1

    def test_one_surface_per_flow_builds_each_node_once(self):
        """A fleet chip, a one-lane runtime run and a step response at one
        flow share one surface, and no node of it is marched twice."""
        from repro import obs
        from repro.cosim import TransientCosim
        from repro.fleet.chip import batch_chip_states
        from repro.runtime import (
            BatchedRuntimeEngine,
            FixedFlow,
            RuntimeConfig,
            TraceSegment,
            WorkloadTrace,
        )
        from repro.sweep.evaluators import cosim_config
        from repro.sweep.spec import ScenarioSpec

        spec = ScenarioSpec(evaluator="fleet_chip", nx=22, ny=11,
                            total_flow_ml_min=676.0, utilization=0.7)
        PolarizationSurface.clear_shared()
        obs.start()
        try:
            batch_chip_states([spec])
            BatchedRuntimeEngine(
                [FixedFlow(spec.total_flow_ml_min)],
                config=RuntimeConfig(nx=22, ny=11),
            ).run(WorkloadTrace("hold", [
                TraceSegment(0.1, spec.utilization, spec.workload)
            ]))
            TransientCosim(cosim_config(spec)).run_step_response(
                0.4, spec.utilization, 0.1, 0.05
            )
            warmed = obs.snapshot()["warm"]["counters"]["surface.nodes_warmed"]
            assert len(PolarizationSurface._SHARED) == 1
            (surface,) = PolarizationSurface._SHARED.values()
            assert warmed == surface.nodes_built > 0
        finally:
            obs.stop()
            PolarizationSurface.clear_shared()

    def test_fleet_chip_ignores_earlier_batched_runs(self):
        """Runtime runs and batched step responses warm surfaces at the
        fleet chips' coolant points; the chip metrics must not notice."""
        from repro.cosim.batch import StepResponseCase, batched_step_responses
        from repro.fleet.chip import batch_chip_states
        from repro.sweep.evaluators import cosim_config
        from repro.runtime import (
            BatchedRuntimeEngine,
            FixedFlow,
            RuntimeConfig,
            TraceSegment,
            WorkloadTrace,
        )
        from repro.sweep.spec import ScenarioSpec

        specs = [
            ScenarioSpec(evaluator="fleet_chip", nx=22, ny=11,
                         total_flow_ml_min=flow, utilization=utilization)
            for flow in (338.0, 676.0) for utilization in (0.4, 0.7, 1.0)
        ]

        def chip_table():
            return repr([batch_chip_states([spec]) for spec in specs])

        def batched_runs():
            # Each run holds one chip operating point, so it visits the
            # very nodes that chip's steady state brackets.
            for spec in specs:
                BatchedRuntimeEngine(
                    [FixedFlow(spec.total_flow_ml_min)],
                    config=RuntimeConfig(nx=22, ny=11),
                ).run(WorkloadTrace("hold", [
                    TraceSegment(0.1, spec.utilization, spec.workload)
                ]))
            batched_step_responses([
                StepResponseCase(cosim_config(spec), spec.utilization,
                                 spec.utilization, 0.1, 0.05)
                for spec in specs
            ])

        PolarizationSurface.clear_shared()
        try:
            cold = chip_table()
            PolarizationSurface.clear_shared()
            batched_runs()
            after_batched = chip_table()
        finally:
            PolarizationSurface.clear_shared()
        assert after_batched == cold


class TestArrayOracle:
    """The array queries against the per-element formula they replaced,
    kept here as the oracle: bit-for-bit, node caches included."""

    @staticmethod
    def _oracle_bracket(surface, temperature_k):
        t_min = surface.temperature_range_k[0]
        position = (temperature_k - t_min) / surface.resolution_k
        node = int(np.clip(
            np.floor(position), 0, len(surface.node_temperatures_k) - 2
        ))
        return node, float(position - node)

    def _oracle_ocv(self, surface, temperature_k):
        node, frac = self._oracle_bracket(surface, temperature_k)
        return (
            (1.0 - frac) * surface._node_ocv(node)
            + frac * surface._node_ocv(node + 1)
        )

    def _oracle_current(self, surface, temperature_k, voltage_v):
        node, frac = self._oracle_bracket(surface, temperature_k)
        current = (
            (1.0 - frac) * surface._node_current(node, voltage_v)
            + frac * surface._node_current(node + 1, voltage_v)
        )
        if current == 0.0:
            return 0.0
        ocv = self._oracle_ocv(surface, temperature_k)
        return 0.0 if voltage_v >= ocv else current

    def _assert_oracle(self, surface, temps, voltage_v):
        temps = np.asarray(temps, dtype=float)
        currents = surface.currents_at(temps, voltage_v)
        ocvs = surface.ocvs_at(temps)
        flat = np.atleast_1d(temps).ravel()
        assert currents.shape == ocvs.shape == np.atleast_1d(temps).shape
        assert np.array_equal(currents.ravel(), [
            self._oracle_current(surface, float(t), voltage_v) for t in flat
        ])
        assert np.array_equal(ocvs.ravel(), [
            self._oracle_ocv(surface, float(t)) for t in flat
        ])
        return currents

    @pytest.mark.parametrize("voltage", [0.8, 1.0, 1.2])
    def test_scalar_and_lane_group_queries(self, surface, voltage):
        rng = np.random.default_rng(17)
        self._assert_oracle(surface, 311.37, voltage)
        self._assert_oracle(surface, float(surface.node_temperatures_k[110]),
                            voltage)
        for k in (1, 3, 8):
            self._assert_oracle(
                surface, 300.0 + 40.0 * rng.random((k, 11)), voltage
            )

    def test_zero_current_nodes_and_the_cutoff_bracket(self, surface):
        """A terminal voltage between two neighbouring nodes' OCVs: one
        node contributes zero, the other a sliver, and the interpolated
        OCV decides the cutoff inside the bracket."""
        node = 100
        lower = float(surface.node_temperatures_k[node])
        surface.warm_nodes([lower])
        ocv_lo, ocv_hi = surface._node_ocv(node), surface._node_ocv(node + 1)
        assert ocv_lo != ocv_hi
        voltage = 0.5 * (ocv_lo + ocv_hi)
        temps = lower + surface.resolution_k * np.linspace(0.0, 1.0, 22)
        currents = self._assert_oracle(surface, temps.reshape(2, 11), voltage)
        assert np.any(currents == 0.0) and np.any(currents > 0.0)
        assert 0.0 in (
            surface._node_current(node, voltage),
            surface._node_current(node + 1, voltage),
        )
        self._assert_oracle(surface, temps, 2.0)  # every node open
