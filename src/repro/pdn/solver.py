"""Sparse nodal solution of power grids.

Solves G*v = b assembled by :class:`repro.pdn.grid.PowerGrid` and wraps the
result with the analyses the benches report: voltage map, IR-drop
statistics, per-feed currents, total dissipation and a KCL residual check
used by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import spsolve

from repro.errors import ConfigurationError
from repro.pdn.grid import PowerGrid


@dataclass(frozen=True)
class GridSolution:
    """Result of a power-grid solve.

    Attributes
    ----------
    voltage_map_v:
        (ny, nx) node voltages [V]; NaN at masked-out nodes.
    feed_current_a:
        (ny, nx) current injected by each feed [A] (0 where no feed).
    total_load_a:
        Sum of all sink currents [A].
    grid_dissipation_w:
        Ohmic power dissipated in grid branches and feed resistances [W].
    kcl_residual_a:
        Max absolute nodal current residual [A] — a solver health check.
    """

    voltage_map_v: np.ndarray
    feed_current_a: np.ndarray
    total_load_a: float
    grid_dissipation_w: float
    kcl_residual_a: float

    @property
    def min_voltage_v(self) -> float:
        """Lowest powered-node voltage [V]."""
        return float(np.nanmin(self.voltage_map_v))

    @property
    def max_voltage_v(self) -> float:
        """Highest powered-node voltage [V]."""
        return float(np.nanmax(self.voltage_map_v))


def solve_grid(grid: PowerGrid) -> GridSolution:
    """Solve the nodal equations of a power grid.

    Every connected component of the active-node graph must contain at
    least one feed (otherwise its potential is undefined);
    :class:`ConfigurationError` is raised if not.
    """
    g_matrix, b, index_map = grid.assemble()
    _check_feeds_per_component(grid, g_matrix, index_map)

    voltages = spsolve(g_matrix.tocsc(), b)
    if not np.all(np.isfinite(voltages)):
        raise ConfigurationError("grid solve produced non-finite voltages")

    ny, nx = grid.ny, grid.nx
    voltage_map = np.full((ny, nx), np.nan)
    active = grid.mask
    voltage_map[active] = voltages[index_map[active]]

    feed_current = np.zeros((ny, nx))
    has_feed = (grid.feed_conductance_s > 0.0) & active
    feed_current[has_feed] = grid.feed_conductance_s[has_feed] * (
        grid.feed_voltage_v[has_feed] - voltage_map[has_feed]
    )

    # Dissipation: total injected power minus power delivered to loads.
    injected = float(np.sum(feed_current[has_feed] * grid.feed_voltage_v[has_feed]))
    delivered = float(np.sum(grid.loads_a[active] * voltage_map[active]))
    dissipation = injected - delivered

    residual = g_matrix @ voltages - b
    return GridSolution(
        voltage_map_v=voltage_map,
        feed_current_a=feed_current,
        total_load_a=float(grid.loads_a[active].sum()),
        grid_dissipation_w=dissipation,
        kcl_residual_a=float(np.max(np.abs(residual))),
    )


def _check_feeds_per_component(
    grid: PowerGrid, g_matrix: sparse.csr_matrix, index_map: np.ndarray
) -> None:
    """Raise if any connected island of nodes lacks a feed."""
    adjacency = g_matrix.copy()
    adjacency.setdiag(0.0)
    adjacency.eliminate_zeros()
    n_components, labels = csgraph.connected_components(
        np.abs(adjacency), directed=False
    )
    active = grid.mask
    feed_flags = np.zeros(g_matrix.shape[0], dtype=bool)
    has_feed = (grid.feed_conductance_s > 0.0) & active
    feed_flags[index_map[has_feed]] = True
    for component in range(n_components):
        members = labels == component
        if not feed_flags[members].any():
            # Islands with loads are fatal; load-free floating islands are
            # harmless but still ill-posed — reject both for clarity.
            raise ConfigurationError(
                f"grid component {component} ({int(members.sum())} nodes) "
                "has no feed; its potential is undefined"
            )
