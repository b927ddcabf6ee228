"""Thermal grid assembly and the ThermalModel facade.

The die is discretised laterally into an (ny, nx) raster shared by all
layers. Every solid layer contributes one temperature DOF per cell; every
microchannel layer contributes two (wall and fluid). The sparse steady-state
system ``A*T = q`` contains:

- conduction between lateral neighbours within solid layers and along the
  flow axis within channel walls,
- conduction across layer interfaces (series half-cell resistances),
- convection between fluid cells and the channel floor (layer below),
  ceiling (layer above) and finned side walls (wall DOF of the same cell),
- upwind advection along each channel column (rho*cp*Q per cell), with the
  inlet enthalpy entering the right-hand side.

All outer boundaries are adiabatic: in the modelled package the only heat
sink is the coolant stream, exactly as in the paper's setup. The matrix is
non-symmetric because of advection; scipy's sparse LU handles the sizes
used here (tens of thousands of DOFs) in well under a second.

Only advection and the inlet enthalpy depend on flow, so the matrix is
``conduction + advection(q)``. Each model caches its own system and
factorizations; only models used through :meth:`ThermalModel.at_flow` also
keep the conduction matrix, shared by reference across a flow family (the
steady sweep evaluators' :func:`repro.sweep.vectorized.steady_families`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import sparse

from repro.errors import ConfigurationError
from repro.microfluidics.heat_transfer import (
    fin_efficiency,
    heat_transfer_coefficient,
)
from repro.thermal.solver import (
    ThermalSolution,
    check_step,
    factorize_steady,
    factorize_transient,
    solve_steady,
    solve_transient,
)
from repro.thermal.stack import LayerStack, MicrochannelLayer, SolidLayer


@dataclass(frozen=True)
class _Field:
    """One scalar temperature field (a layer's solid, wall or fluid DOFs)."""

    layer_index: int
    kind: str  # "solid" | "wall" | "fluid"
    offset: int


class ThermalModel:
    """Compact thermal model of a layer stack over a die raster.

    Parameters
    ----------
    stack:
        Bottom-to-top layer stack.
    die_length_m / die_width_m:
        Lateral die dimensions along x and y.
    nx / ny:
        Raster resolution. For channel layers the model distributes
        ``array.count / n_across`` channels into every cell across the flow
        axis, so the raster need not align with the channel pitch.
    """

    def __init__(
        self,
        stack: LayerStack,
        die_length_m: float,
        die_width_m: float,
        nx: int,
        ny: int,
    ) -> None:
        for field, value in (
            ("die_length_m", die_length_m), ("die_width_m", die_width_m)
        ):
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"{field} must be finite and > 0, got {value}"
                )
        if nx < 2 or ny < 2:
            raise ConfigurationError(f"raster must be at least 2x2, got {nx}x{ny}")
        for below, above in zip(stack.layers[:-1], stack.layers[1:]):
            if below.is_channel and above.is_channel:
                raise ConfigurationError(
                    "adjacent microchannel layers are not supported; there is "
                    "always a wafer between tiers — insert a SolidLayer"
                )
        self.stack = stack
        self.nx = nx
        self.ny = ny
        self.dx = die_length_m / nx
        self.dy = die_width_m / ny
        self.die_length_m = die_length_m
        self.die_width_m = die_width_m

        self._fields: "list[_Field]" = []
        offset = 0
        for k, layer in enumerate(stack):
            if layer.is_channel:
                self._fields.append(_Field(k, "wall", offset))
                offset += nx * ny
                self._fields.append(_Field(k, "fluid", offset))
                offset += nx * ny
            else:
                self._fields.append(_Field(k, "solid", offset))
                offset += nx * ny
        self.n_dof = offset
        self._sources: "dict[int, np.ndarray]" = {}
        # The system matrix and the source-free right-hand side depend only
        # on the (frozen) stack and raster, never on the power maps — so
        # they, the steady LU factorization and the per-step-size transient
        # factorizations are assembled once per model and reused across
        # solves. This is what makes repeated solves of the same model
        # (the co-simulation's fixed-point loop, transient stepping) cheap:
        # iterations after the first cost one sparse triangular solve.
        self._structure: "tuple[sparse.csr_matrix, np.ndarray] | None" = None
        # Conduction stamps, kept only by models used through ``at_flow``.
        self._conduction: "sparse.csr_matrix | None" = None
        self._steady_lu = None
        self._transient_lus: "dict[float, object]" = {}
        self._capacitance: "np.ndarray | None" = None

    # -- field lookup ----------------------------------------------------------

    def _field(self, layer_name: str, kind: "str | None" = None) -> _Field:
        layer_index = self.stack.index_of(layer_name)
        layer = self.stack.layers[layer_index]
        if kind is None:
            kind = "fluid" if layer.is_channel else "solid"
        for field in self._fields:
            if field.layer_index == layer_index and field.kind == kind:
                return field
        raise ConfigurationError(f"layer {layer_name!r} has no {kind!r} field")

    def _cell_ids(self, field: _Field) -> np.ndarray:
        return field.offset + np.arange(self.nx * self.ny).reshape(self.ny, self.nx)

    # -- power sources ------------------------------------------------------------

    def set_power_map(self, layer_name: str, power_w: np.ndarray,
                      kind: "str | None" = None) -> None:
        """Assign a (ny, nx) per-cell power map [W] to a layer's field.

        Typical use: the rasterised floorplan power on the active-silicon
        layer; the co-simulation additionally deposits flow-cell loss heat
        on a channel layer's fluid field.
        """
        power = np.asarray(power_w, dtype=float)
        if power.shape != (self.ny, self.nx):
            raise ConfigurationError(
                f"power map shape {power.shape} != raster ({self.ny}, {self.nx})"
            )
        field = self._field(layer_name, kind)
        self._sources[field.offset] = power.copy()

    def total_power_w(self) -> float:
        """Sum of all injected power [W]."""
        return float(sum(p.sum() for p in self._sources.values()))

    # -- assembly -------------------------------------------------------------------

    def _assemble(self) -> sparse.csr_matrix:
        """Conduction, side-wall and interface convection (flow-free)."""
        rows: "list[np.ndarray]" = []
        cols: "list[np.ndarray]" = []
        vals: "list[np.ndarray]" = []

        def stamp(ia: np.ndarray, ib: np.ndarray, g) -> None:
            """Symmetric conductance stamp between node arrays ia, ib."""
            g_arr = np.broadcast_to(np.asarray(g, dtype=float), ia.shape).ravel()
            ia = ia.ravel()
            ib = ib.ravel()
            rows.extend((ia, ib, ia, ib))
            cols.extend((ia, ib, ib, ia))
            vals.extend((g_arr, g_arr, -g_arr, -g_arr))

        dx, dy = self.dx, self.dy
        cell_area = dx * dy

        for field in self._fields:
            layer = self.stack.layers[field.layer_index]
            ids = self._cell_ids(field)
            if field.kind == "solid":
                k = layer.material.thermal_conductivity
                t = layer.thickness_m
                stamp(ids[:, :-1], ids[:, 1:], k * t * dy / dx)
                stamp(ids[:-1, :], ids[1:, :], k * t * dx / dy)
            elif field.kind == "wall":
                self._stamp_channel_layer(layer, field, stamp)
            # fluid: side-wall convection with the wall field, advection in
            # _advection()

        # Vertical interfaces.
        for k in range(len(self.stack) - 1):
            below = self.stack.layers[k]
            above = self.stack.layers[k + 1]
            if not below.is_channel and not above.is_channel:
                ids_b = self._cell_ids(self._field(below.name, "solid"))
                ids_a = self._cell_ids(self._field(above.name, "solid"))
                resistance = (
                    below.thickness_m / (2.0 * below.material.thermal_conductivity)
                    + above.thickness_m / (2.0 * above.material.thermal_conductivity)
                )
                stamp(ids_b, ids_a, cell_area / resistance)
            elif above.is_channel:
                self._stamp_channel_interface(below, above, stamp, channel_above=True)
            else:
                self._stamp_channel_interface(above, below, stamp, channel_above=False)

        return sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_dof, self.n_dof),
        ).tocsr()

    def _advection(self) -> "tuple[sparse.csr_matrix, np.ndarray]":
        """Upwind advection ``+mcp*(T_i - T_up)`` along each channel column
        (inlet at index 0) and the inlet enthalpy on the right-hand side."""
        rows: "list[np.ndarray]" = []
        cols: "list[np.ndarray]" = []
        vals: "list[np.ndarray]" = []
        rhs = np.zeros(self.n_dof)
        for field in self._fields:
            if field.kind != "fluid":
                continue
            layer = self.stack.layers[field.layer_index]
            ids = self._cell_ids(field)
            if layer.array.flow_axis == "x":
                ids = ids.T  # the flow runs along axis 0 from here on
            mcp = np.broadcast_to(self._channel_geometry(layer)["mcp"], ids.shape)
            downstream, upstream, inlet = ids[1:].ravel(), ids[:-1].ravel(), ids[0]
            rows.extend((downstream, downstream, inlet))
            cols.extend((downstream, upstream, inlet))
            vals.extend((mcp[1:].ravel(), -mcp[1:].ravel(), mcp[0]))
            rhs[inlet] += mcp[0] * layer.inlet_temperature_k
        if not rows:
            return sparse.csr_matrix((self.n_dof, self.n_dof)), rhs
        return sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_dof, self.n_dof),
        ).tocsr(), rhs

    # -- channel-layer pieces ----------------------------------------------------------

    def _channel_geometry(self, layer: MicrochannelLayer) -> "dict[str, object]":
        """Per-cell channel quantities for the current raster.

        ``mcp`` is a per-across-column array [W/K]: with the default even
        split every column carries total/n_across; a layer with
        ``flow_weights`` redistributes the same total (laminar Nu keeps the
        film coefficient flow-independent, so only advection shifts).
        """
        flow_axis = layer.array.flow_axis
        n_across = self.nx if flow_axis == "y" else self.ny
        step_along = self.dy if flow_axis == "y" else self.dx
        channels_per_cell = layer.array.count / n_across
        h = layer.heat_transfer_enhancement * heat_transfer_coefficient(
            layer.array.channel, layer.fluid, layer.inlet_temperature_k
        )
        eta = fin_efficiency(
            layer.array.channel.height_m,
            layer.array.wall_width_m,
            h,
            layer.wall_material,
        )
        channel = layer.array.channel
        shares = np.asarray(layer.normalized_flow_weights(n_across))
        mcp_per_column = (
            layer.fluid.volumetric_heat_capacity(layer.inlet_temperature_k)
            * layer.total_flow_m3_s
            * shares
        )
        return {
            "channels_per_cell": channels_per_cell,
            "step_along": step_along,
            "h": h,
            "g_floor": h * channel.width_m * step_along * channels_per_cell,
            "g_ceiling": h * channel.width_m * step_along * channels_per_cell,
            "g_side": h * 2.0 * channel.height_m * eta * step_along * channels_per_cell,
            "mcp": mcp_per_column,
        }

    def _stamp_channel_layer(self, layer: MicrochannelLayer, wall_field: _Field,
                             stamp) -> None:
        """Wall conduction and side-wall convection of a channel layer."""
        geometry = self._channel_geometry(layer)
        ids_wall = self._cell_ids(wall_field)
        ids_fluid = self._cell_ids(self._field(layer.name, "fluid"))
        solid_fraction = 1.0 - layer.fluid_fraction
        k_wall = layer.wall_material.thermal_conductivity
        t = layer.thickness_m

        # Wall conduction along the flow axis only (fins are separated
        # across it by the channels).
        if layer.array.flow_axis == "y":
            stamp(
                ids_wall[:-1, :], ids_wall[1:, :],
                k_wall * solid_fraction * t * self.dx / self.dy,
            )
        else:
            stamp(
                ids_wall[:, :-1], ids_wall[:, 1:],
                k_wall * solid_fraction * t * self.dy / self.dx,
            )

        # Side-wall convection: fluid <-> wall in the same cell.
        stamp(ids_fluid, ids_wall, geometry["g_side"])

    def _stamp_channel_interface(self, solid_layer: SolidLayer,
                                 channel_layer: MicrochannelLayer,
                                 stamp, channel_above: bool) -> None:
        """Couple a channel layer to the solid layer below/above it."""
        geometry = self._channel_geometry(channel_layer)
        ids_solid = self._cell_ids(self._field(solid_layer.name, "solid"))
        ids_wall = self._cell_ids(self._field(channel_layer.name, "wall"))
        ids_fluid = self._cell_ids(self._field(channel_layer.name, "fluid"))
        cell_area = self.dx * self.dy
        solid_fraction = 1.0 - channel_layer.fluid_fraction

        # Wall path: conduction through half of each layer.
        resistance_wall = (
            solid_layer.thickness_m / (2.0 * solid_layer.material.thermal_conductivity)
            + channel_layer.thickness_m
            / (2.0 * channel_layer.wall_material.thermal_conductivity)
        )
        stamp(ids_solid, ids_wall, solid_fraction * cell_area / resistance_wall)

        # Fluid path: half the solid layer in series with the convective
        # film on the channel floor/ceiling.
        g_face = geometry["g_floor"] if channel_above else geometry["g_ceiling"]
        if g_face > 0.0:
            area_face = (
                channel_layer.array.channel.width_m
                * geometry["step_along"]
                * geometry["channels_per_cell"]
            )
            r_solid = solid_layer.thickness_m / (
                2.0 * solid_layer.material.thermal_conductivity
            ) / area_face
            r_film = 1.0 / g_face
            stamp(ids_solid, ids_fluid, 1.0 / (r_solid + r_film))

    # -- solves ---------------------------------------------------------------------------

    def _build_system(self) -> "tuple[sparse.csr_matrix, np.ndarray]":
        matrix, base_rhs = self._system_structure()
        rhs = base_rhs.copy()
        for offset, power in self._sources.items():
            rhs[offset: offset + self.nx * self.ny] += power.ravel()
        return matrix, rhs

    def _system_structure(self) -> "tuple[sparse.csr_matrix, np.ndarray]":
        """The system matrix and the source-free right-hand side (cached)."""
        if self._structure is None:
            conduction = self._assemble() if self._conduction is None else self._conduction
            advection, rhs = self._advection()
            self._structure = (conduction + advection, rhs)
        return self._structure

    def at_flow(self, total_flow_m3_s: float) -> "ThermalModel":
        """This stack and raster, without power maps, at another total flow.

        The new model shares this model's conduction matrix (stamped on
        the first call) and assembles only its advection; its system is
        bit-identical to a freshly built model's. One channel layer only.
        """
        channels = sum(layer.is_channel for layer in self.stack)
        if channels != 1:
            raise ConfigurationError(
                f"at_flow moves the flow of a single channel layer; this stack has {channels}"
            )
        stack = LayerStack(
            replace(layer, total_flow_m3_s=total_flow_m3_s)
            if layer.is_channel else layer
            for layer in self.stack
        )
        model = ThermalModel(stack, self.die_length_m, self.die_width_m, self.nx, self.ny)
        if self._conduction is None:
            self._conduction = self._assemble()
        model._conduction = self._conduction
        return model

    def rhs_columns(
        self,
        layer_name: str,
        power_maps: "Sequence[np.ndarray]",
    ) -> np.ndarray:
        """Stacked right-hand sides, one ``(n_dof,)`` column per power map.

        Each column is the source-free right-hand side (the inlet enthalpy
        only) plus one (ny, nx) power map [W] on a layer's field — the
        multi-RHS form the batched steady and transient solvers take. The
        maps set through :meth:`set_power_map` are *not* included, so the
        caller owns every column's sources.
        """
        _, base_rhs = self._system_structure()
        field = self._field(layer_name)
        span = slice(field.offset, field.offset + self.nx * self.ny)
        columns = np.repeat(base_rhs[:, None], len(power_maps), axis=1)
        for k, power in enumerate(power_maps):
            power = np.asarray(power, dtype=float)
            if power.shape != (self.ny, self.nx):
                raise ConfigurationError(
                    f"power map shape {power.shape} != raster "
                    f"({self.ny}, {self.nx})"
                )
            columns[span, k] += power.ravel()
        return columns

    def warm(self, dt_s: "float | None" = None) -> "ThermalModel":
        """Assemble and factorize ahead of the first solve; returns self.

        Pre-pays the model's one-time costs — sparse assembly, the steady
        LU and (with ``dt_s``) the backward-Euler step factorization — so
        a caller that builds models ahead of time can move that work out
        of its solve loop. No sweep backend calls it: the steady evaluators
        factorize one anchor per family instead. Idempotent: warm parts
        are not recomputed.
        """
        if dt_s is not None:
            self.transient_lu(dt_s)
        self.steady_lu()
        return self

    def steady_lu(self):
        """The steady-state LU, factorized on first use and then cached."""
        if self._steady_lu is None:
            matrix, _ = self._system_structure()
            self._steady_lu = factorize_steady(matrix)
        return self._steady_lu

    def transient_lu(self, dt_s: float):
        """The backward-Euler factorization of ``A + C/dt`` for one step size.

        Cached per ``dt_s``, shared with :meth:`solve_transient`. Only the
        step matrix is factorized: a model that only ever steps (the
        runtime engine's flows after the first) never pays for the steady
        LU.
        """
        if not 0.0 < dt_s < math.inf:
            raise ConfigurationError(f"dt_s must be finite and > 0, got {dt_s}")
        lu = self._transient_lus.get(dt_s)
        if lu is None:
            matrix, _ = self._system_structure()
            if self._capacitance is None:
                self._capacitance = self.capacitance_vector()
            lu = factorize_transient(matrix, self._capacitance, dt_s)
            self._transient_lus[dt_s] = lu
        return lu

    def solve_steady(self) -> ThermalSolution:
        """Solve the steady-state temperature field (the Fig. 9 quantity)."""
        matrix, rhs = self._build_system()
        return solve_steady(self, matrix, rhs, lu=self.steady_lu())

    def solve_transient(
        self,
        duration_s: float,
        dt_s: float,
        initial: "ThermalSolution | float | None" = None,
    ) -> ThermalSolution:
        """Backward-Euler transient from an initial state.

        ``initial`` may be a previous solution, a uniform temperature [K],
        or ``None`` (start from the coolant inlet temperature).
        """
        check_step(duration_s, dt_s)
        matrix, rhs = self._build_system()
        lu = self.transient_lu(min(dt_s, duration_s))
        return solve_transient(
            self, matrix, rhs, duration_s, dt_s, initial,
            lu=lu, capacitance=self._capacitance,
        )

    # -- capacitances (transient) -----------------------------------------------------------

    def capacitance_vector(self) -> np.ndarray:
        """Per-DOF heat capacitance [J/K] for the transient solver."""
        c = np.zeros(self.n_dof)
        cell_area = self.dx * self.dy
        for field in self._fields:
            layer = self.stack.layers[field.layer_index]
            sl = slice(field.offset, field.offset + self.nx * self.ny)
            if field.kind == "solid":
                c[sl] = (
                    layer.material.volumetric_heat_capacity
                    * cell_area * layer.thickness_m
                )
            elif field.kind == "wall":
                c[sl] = (
                    layer.wall_material.volumetric_heat_capacity
                    * cell_area * layer.thickness_m * (1.0 - layer.fluid_fraction)
                )
            else:  # fluid
                c[sl] = (
                    layer.fluid.volumetric_heat_capacity(layer.inlet_temperature_k)
                    * cell_area * layer.thickness_m * layer.fluid_fraction
                )
        return c

    # -- coolant ---------------------------------------------------------------------------

    @property
    def coolant_flow_m3_s(self) -> float:
        """Total coolant flow through the stack's channel layers [m^3/s]."""
        return sum(
            layer.total_flow_m3_s for layer in self.stack if layer.is_channel
        )

    @property
    def inlet_temperature_k(self) -> float:
        """Coolant inlet temperature of the first channel layer [K]."""
        for layer in self.stack:
            if layer.is_channel:
                return layer.inlet_temperature_k
        raise ConfigurationError("stack has no microchannel layer")
