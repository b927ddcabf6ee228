"""Shared polarization surface over a temperature grid.

The electro-thermal co-simulations need one quantity over and over: the
current (and open-circuit voltage) of a channel group as a function of its
coolant temperature. Rebuilding a full electrochemical model and sampling a
polarization curve for every query made that the hot path of the whole
repository — every fixed-point iteration paid 11 curve constructions, and
the transient stepper kept its own private cache the steady solver could
not see.

A :class:`PolarizationSurface` replaces all of that: group polarization
curves are computed on a uniform temperature grid, each grid node at most
once, and queries interpolate linearly between the two bracketing nodes.
Every curve is sampled at :data:`N_CURVE_POINTS`, so a flow has one
surface, shared process-wide via :meth:`PolarizationSurface.shared`: the
steady coupling loop, the transient stepper, the runtime engine, the
fleet chips and the sweep evaluators all draw from the same curve store —
a sweep revisiting the same flow rate never rebuilds a curve.

Nodes are only ever built by a batched march. :func:`warm_surfaces` takes
the query temperatures of many surfaces at once (the runtime engine's flow
groups, a step-response batch's columns, a fleet table's chips) and
marches every missing bracketing node of all of them in one
:func:`~repro.flowcell.batch.batched_polarization_curves` call;
:meth:`PolarizationSurface.warm_nodes` is its one-surface call,
and every query warms its own brackets the same way before it reads them.

Accuracy has two parts. Across temperature, the group current varies by
a fraction of a percent per kelvin over the operating envelope, so linear
interpolation at the default 0.5 K resolution adds well under the 0.5 %
acceptance band (``tests/cosim/test_surface.py`` asserts this against
direct construction at the same sampling). Along each curve, the
:data:`N_CURVE_POINTS` samples bound how well a node's current at the
terminal voltage is resolved: against 400-point curves at 676 ml/min and
1 V, 50 points are off by up to 1.8 % over 300-340 K (1.7-1.8 % at
315-320 K), while at 48 ml/min the error stays under 0.1 %. A finer
sampling would move the calibrated group currents, so it is a model
change, not a knob.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro import obs
from repro.casestudy.tables import TABLE2
from repro.electrochem.polarization import PolarizationCurve
from repro.errors import ConfigurationError

#: Thermally distinct channel groups: the paper's 88 channels in 11 groups
#: of 8, each with its own electrochemistry at its own temperature.
N_CHANNEL_GROUPS = 11

#: Parallel channels per group; every node curve is scaled by it.
CHANNELS_PER_GROUP = TABLE2["channel_count"] // N_CHANNEL_GROUPS

#: Samples of each node's polarization curve: every surface uses this
#: one sampling, so a flow has exactly one surface.
N_CURVE_POINTS = 50

#: Largest overpotential each node's polarization curve is sampled to [V].
MAX_OVERPOTENTIAL_V = 1.4

#: Default temperature window [K]: generously wider than any co-sim
#: operating envelope (the 48 ml/min stress case peaks near 365 K). A node
#: is built only once a query brackets it, so a wide default costs nothing
#: until visited.
DEFAULT_TEMPERATURE_RANGE_K = (250.0, 450.0)

#: Default grid spacing [K].
DEFAULT_RESOLUTION_K = 0.5


class PolarizationSurface:
    """Group polarization curves on a temperature grid, interpolated.

    Parameters
    ----------
    total_flow_ml_min:
        Total array flow; fixes the per-channel flow of every curve. Each
        node curve has :data:`N_CURVE_POINTS` samples (up to
        :data:`MAX_OVERPOTENTIAL_V`, scaled to :data:`CHANNELS_PER_GROUP`).
    temperature_range_k / resolution_k:
        Grid window and spacing. Queries outside the window raise (widen
        the range rather than extrapolate). A node's curve is constructed
        at most once, when a query or a warm call first brackets it, so
        the cost of a surface is proportional to the temperature span
        actually visited, not to the configured window. Every node comes
        from the one curve construction
        (:func:`repro.flowcell.batch.batched_polarization_curves`, via
        :func:`warm_surfaces`), and that march is elementwise across
        cells, so no curve depends on which caller reached a node first or
        which other nodes shared its batch.
    """

    def __init__(
        self,
        total_flow_ml_min: float,
        *,
        temperature_range_k: "tuple[float, float]" = DEFAULT_TEMPERATURE_RANGE_K,
        resolution_k: float = DEFAULT_RESOLUTION_K,
    ) -> None:
        # Written as ``not 0 < x < inf`` so NaN and inf fail the checks too.
        if not 0.0 < total_flow_ml_min < math.inf:
            raise ConfigurationError(
                f"total flow must be finite and > 0 ml/min, got {total_flow_ml_min}"
            )
        if not 0.0 < resolution_k < math.inf:
            raise ConfigurationError(
                f"grid resolution must be finite and > 0 K, got {resolution_k}"
            )
        t_min, t_max = (float(t) for t in temperature_range_k)
        if not t_min < t_max < math.inf:
            raise ConfigurationError(
                f"temperature range must satisfy min < max < inf, got "
                f"({t_min:g}, {t_max:g})"
            )
        if t_min <= 0.0:
            raise ConfigurationError("temperature range must be > 0 K")
        self.total_flow_ml_min = float(total_flow_ml_min)
        self.resolution_k = float(resolution_k)
        n_nodes = int(math.ceil((t_max - t_min) / resolution_k)) + 1
        self.node_temperatures_k = t_min + resolution_k * np.arange(n_nodes)
        self._curves: "dict[int, PolarizationCurve]" = {}
        self._node_ocvs: "dict[int, float]" = {}
        #: per terminal voltage: {node index: group current [A]}
        self._node_currents: "dict[float, dict[int, float]]" = {}

    # -- grid ------------------------------------------------------------------

    @property
    def temperature_range_k(self) -> "tuple[float, float]":
        """The covered window [K] (last node may overshoot the requested max)."""
        return (
            float(self.node_temperatures_k[0]),
            float(self.node_temperatures_k[-1]),
        )

    @property
    def nodes_built(self) -> int:
        """How many grid nodes have had their curve constructed."""
        return len(self._curves)

    def _bracket(
        self, temperatures_k: np.ndarray
    ) -> "tuple[list[int], np.ndarray, np.ndarray]":
        """Bracketing grid nodes of the queries; validates the range.

        Returns ``(nodes, where, frac)``: the sorted distinct bracketing
        nodes, the ``(2, *shape)`` positions in ``nodes`` of each query's
        lower and upper node, and each query's fraction between them.
        """
        t_min, t_max = self.temperature_range_k
        if np.any(temperatures_k < t_min) or np.any(temperatures_k > t_max):
            bad_lo = float(temperatures_k.min())
            bad_hi = float(temperatures_k.max())
            raise ConfigurationError(
                f"coolant temperature [{bad_lo:.2f}, {bad_hi:.2f}] K outside "
                f"the polarization surface's window [{t_min:.2f}, "
                f"{t_max:.2f}] K"
            )
        position = (temperatures_k - t_min) / self.resolution_k
        index = np.clip(
            np.floor(position).astype(int), 0, len(self.node_temperatures_k) - 2
        )
        flat = index.ravel()
        nodes, where = np.unique(
            np.concatenate([flat, flat + 1]), return_inverse=True
        )
        return (
            [int(node) for node in nodes],
            where.reshape(2, *temperatures_k.shape),
            position - index,
        )

    def _missing_nodes(self, nodes: "list[int]") -> "list[int]":
        """The unbuilt ones among the given grid nodes."""
        return [node for node in nodes if node not in self._curves]

    def warm_nodes(self, temperatures_k) -> int:
        """Build every node curve the given temperatures bracket.

        The one-surface call of :func:`warm_surfaces`: all missing nodes
        in one array march. Returns how many nodes were built.
        """
        return warm_surfaces([(self, temperatures_k)])

    def _node_current(self, node: int, voltage_v: float) -> float:
        """Group current of one grid node at a terminal voltage [A].

        Mirrors :meth:`FlowCellArray.combine_at_voltage`: a node whose OCV
        sits below the terminal voltage contributes zero (open circuit),
        and voltages below the sampled range clamp to the last sample.
        """
        per_voltage = self._node_currents.setdefault(voltage_v, {})
        current = per_voltage.get(node)
        if current is None:
            curve = self._curves[node]
            v_max = float(curve.voltage_v[0])
            v_min = float(curve.voltage_v[-1])
            if voltage_v >= v_max:
                current = 0.0
            else:
                current = curve.current_at_voltage(max(voltage_v, v_min))
            per_voltage[node] = current
        return current

    def _node_ocv(self, node: int) -> float:
        ocv = self._node_ocvs.get(node)
        if ocv is None:
            ocv = self._curves[node].open_circuit_voltage_v
            self._node_ocvs[node] = ocv
        return ocv

    # -- queries ---------------------------------------------------------------

    def _warm_brackets(
        self, temperatures_k
    ) -> "tuple[list[int], np.ndarray, np.ndarray]":
        """:meth:`_bracket` of the queries, missing nodes marched first.

        All missing nodes go in one batch; per-node values are then read
        once per distinct node, not once per query.
        """
        temps = np.atleast_1d(np.asarray(temperatures_k, dtype=float))
        obs.inc("surface.interpolations", temps.size)
        nodes, where, frac = self._bracket(temps)
        missing = self._missing_nodes(nodes)
        if missing:
            _march_nodes({self: missing})
        return nodes, where, frac

    @staticmethod
    def _blend(node_values: "list[float]", where: np.ndarray, frac: np.ndarray):
        """Linear blend ``(1 - f) * lower + f * upper`` of per-node values."""
        lower, upper = np.array(node_values)[where]
        return (1.0 - frac) * lower + frac * upper

    def currents_at(self, temperatures_k, voltage_v: float) -> np.ndarray:
        """Group currents [A] at the given temperatures and terminal voltage.

        Accepts any array-like of temperatures [K]; returns an array of the
        same shape. Linear interpolation between the two bracketing grid
        nodes' currents at ``voltage_v``; a temperature whose (interpolated)
        OCV is at or below ``voltage_v`` contributes zero, mirroring
        :meth:`FlowCellArray.combine_at_voltage`.
        """
        nodes, where, frac = self._warm_brackets(temperatures_k)
        currents = self._blend(
            [self._node_current(node, voltage_v) for node in nodes], where, frac
        )
        # Open-circuit cutoff: when the terminal voltage sits between the
        # two nodes' OCVs (one contributes zero, one a sliver), blending
        # would fake a small current where the group is in fact open. Gate
        # on the *interpolated* OCV — the surface's estimate of the true
        # OCV at this temperature — so the cutoff lands where direct
        # construction puts it, to within interpolation error.
        ocvs = self._blend([self._node_ocv(node) for node in nodes], where, frac)
        return np.where((currents == 0.0) | (voltage_v >= ocvs), 0.0, currents)

    def current_at(self, temperature_k: float, voltage_v: float) -> float:
        """Scalar convenience for :meth:`currents_at`."""
        return float(self.currents_at([temperature_k], voltage_v)[0])

    def ocvs_at(self, temperatures_k) -> np.ndarray:
        """Open-circuit voltages [V] at the given temperatures."""
        nodes, where, frac = self._warm_brackets(temperatures_k)
        return self._blend([self._node_ocv(node) for node in nodes], where, frac)

    # -- process-wide sharing --------------------------------------------------

    #: Shared surfaces keyed on flow. Bounded: a long-running sweep over
    #: many flows evicts the oldest surface rather than growing without
    #: limit.
    _SHARED: "dict[float, PolarizationSurface]" = {}
    _SHARED_MAX = 32

    @classmethod
    def shared(cls, total_flow_ml_min: float) -> "PolarizationSurface":
        """The process-wide default-window surface of a flow (built on
        first use).

        The single curve source behind
        :class:`~repro.cosim.coupling.ElectroThermalCosim`,
        :class:`~repro.cosim.transient.TransientCosim` and the ``cosim`` /
        ``transient`` sweep evaluators, the runtime engine and the fleet
        chips: co-simulations at the same flow share every node curve.
        """
        key = float(total_flow_ml_min)
        surface = cls._SHARED.get(key)
        if surface is None:
            surface = cls(total_flow_ml_min)
            while len(cls._SHARED) >= cls._SHARED_MAX:
                cls._SHARED.pop(next(iter(cls._SHARED)))
            cls._SHARED[key] = surface
        return surface

    @classmethod
    def clear_shared(cls) -> None:
        """Drop all shared surfaces (tests, memory pressure)."""
        cls._SHARED.clear()


def warm_surfaces(
    queries: "Iterable[tuple[PolarizationSurface, object]]",
) -> int:
    """Build every missing node the queries bracket, across surfaces.

    ``queries`` holds ``(surface, temperatures_k)`` pairs; a surface may
    appear more than once. The missing bracketing nodes of all of them
    are marched together in one
    :func:`~repro.flowcell.batch.batched_polarization_curves` call,
    whatever the surfaces' flows. The march is elementwise across cells,
    so a node's curve is bit-identical whichever batch builds it. Returns
    how many nodes were built.
    """
    missing: "dict[PolarizationSurface, set[int]]" = {}
    for surface, temperatures_k in queries:
        temps = np.atleast_1d(np.asarray(temperatures_k, dtype=float))
        nodes = surface._missing_nodes(surface._bracket(temps)[0])
        if nodes:
            missing.setdefault(surface, set()).update(nodes)
    return _march_nodes(missing)


def _march_nodes(missing: "dict[PolarizationSurface, Iterable[int]]") -> int:
    """Build the given nodes of each surface in one march."""
    from repro.casestudy.power7plus import build_array_cell
    from repro.flowcell.batch import batched_polarization_curves

    targets = [
        (surface, node)
        for surface, nodes in missing.items()
        for node in sorted(nodes)
    ]
    if not targets:
        return 0
    # Warm counters: whether a node is already built depends on what
    # earlier runs left in the shared surfaces.
    obs.inc("surface.nodes_warmed", len(targets), warm=True)
    obs.observe("surface.warm_nodes.size", len(targets), warm=True)
    cells = [
        build_array_cell(
            total_flow_ml_min=surface.total_flow_ml_min,
            temperature_k=float(surface.node_temperatures_k[node]),
            temperature_dependent=True,
        )
        for surface, node in targets
    ]
    curves = batched_polarization_curves(
        cells, n_points=N_CURVE_POINTS, max_overpotential_v=MAX_OVERPOTENTIAL_V
    )
    for (surface, node), curve in zip(targets, curves):
        surface._curves[node] = curve.scaled(CHANNELS_PER_GROUP)
    return len(targets)
