"""Sparse solvers and solution container for the thermal model.

Separated from the assembly code so the solution object can be unit-tested
and so alternative solvers (e.g. iterative, for very large rasters) can be
swapped in without touching the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.errors import ConfigurationError, ConvergenceError
from repro.units import celsius_from_kelvin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.thermal.model import ThermalModel


@dataclass(frozen=True)
class ThermalSolution:
    """Temperature fields of one thermal solve.

    Attributes
    ----------
    temperatures_k:
        Flat DOF vector [K].
    model:
        The model that produced this solution (for field lookups).
    """

    temperatures_k: np.ndarray
    model: "ThermalModel"

    def field(self, layer_name: str, kind: "str | None" = None) -> np.ndarray:
        """(ny, nx) temperature map [K] of a layer field.

        ``kind`` defaults to "solid" for solid layers and "fluid" for
        channel layers; pass "wall" for a channel layer's wall field.
        """
        f = self.model._field(layer_name, kind)
        nx, ny = self.model.nx, self.model.ny
        return self.temperatures_k[f.offset: f.offset + nx * ny].reshape(ny, nx)

    def field_celsius(self, layer_name: str, kind: "str | None" = None) -> np.ndarray:
        """(ny, nx) temperature map [degC] of a layer field."""
        return self.field(layer_name, kind) - 273.15

    @property
    def peak_k(self) -> float:
        """Hottest DOF in the whole stack [K]."""
        return float(self.temperatures_k.max())

    @property
    def peak_celsius(self) -> float:
        """Hottest DOF in the whole stack [degC]."""
        return celsius_from_kelvin(self.peak_k)

    @property
    def min_k(self) -> float:
        """Coldest DOF [K] (bounded below by the coolant inlet)."""
        return float(self.temperatures_k.min())

    def coolant_heat_removal_w(self) -> float:
        """Heat advected out by all channel layers [W].

        At steady state this equals the injected power (energy balance);
        the difference is the conservation error reported by
        :meth:`energy_balance_error_w`.
        """
        total = 0.0
        for layer in self.model.stack:
            if not layer.is_channel:
                continue
            geometry = self.model._channel_geometry(layer)
            fluid = self.field(layer.name, "fluid")
            outlet = fluid[-1, :] if layer.array.flow_axis == "y" else fluid[:, -1]
            mcp = np.asarray(geometry["mcp"], dtype=float)
            total += float(
                np.sum(mcp * (outlet - layer.inlet_temperature_k))
            )
        return total

    def energy_balance_error_w(self) -> float:
        """Injected power minus coolant heat removal [W] (steady only)."""
        return self.model.total_power_w() - self.coolant_heat_removal_w()


def factorize_steady(matrix: sparse.csr_matrix):
    """Sparse LU factorization of the steady system matrix.

    Factored out of :func:`solve_steady` so callers whose matrix is fixed
    across solves (only the power map / right-hand side changes, as in the
    co-simulation's fixed-point loop) can factor once and re-solve cheaply.
    """
    try:
        return splu(matrix.tocsc())
    except RuntimeError as error:  # singular matrix
        raise ConfigurationError(
            "steady thermal system is singular — does the stack contain a "
            f"microchannel layer to carry heat away? ({error})"
        ) from error


def solve_steady(
    model: "ThermalModel",
    matrix: sparse.csr_matrix,
    rhs: np.ndarray,
    lu=None,
) -> ThermalSolution:
    """Direct sparse LU solve of the steady system.

    ``lu`` may carry a factorization of ``matrix`` from
    :func:`factorize_steady`; without it one is computed here.
    """
    if lu is None:
        lu = factorize_steady(matrix)
    temperatures = lu.solve(rhs)
    if not np.all(np.isfinite(temperatures)):
        raise ConvergenceError("thermal solve produced non-finite temperatures")
    # A singular system (no heat-removal path: conduction-only adiabatic
    # stack) can pass LU with pivot perturbation and return garbage; the
    # residual catches it.
    residual = np.abs(matrix @ temperatures - rhs).max()
    scale = max(np.abs(rhs).max(), 1e-30)
    if residual > 1e-6 * scale:
        raise ConfigurationError(
            "steady thermal system is ill-posed (relative residual "
            f"{residual / scale:.2e}) — does the stack contain a microchannel "
            "layer to carry heat away?"
        )
    return ThermalSolution(temperatures_k=temperatures, model=model)


def check_step(duration_s: float, dt_s: float) -> None:
    """Reject a non-finite or non-positive transient horizon or step."""
    # Written as ``not 0 < x < inf`` so NaN and inf fail the checks too.
    for field, value in (("duration_s", duration_s), ("dt_s", dt_s)):
        if not 0.0 < value < math.inf:
            raise ConfigurationError(
                f"{field} must be finite and > 0, got {value}"
            )


def factorize_transient(
    matrix: sparse.csr_matrix, capacitance: np.ndarray, dt_s: float
):
    """LU factorization of the backward-Euler step matrix A + C/dt.

    The step matrix depends only on the structure and the step size, so a
    caller integrating many steps (or many trajectories) at the same dt
    can factor once per dt.
    """
    c_over_dt = sparse.diags(capacitance / dt_s)
    return splu((matrix + c_over_dt).tocsc())


def solve_transient(
    model: "ThermalModel",
    matrix: sparse.csr_matrix,
    rhs: np.ndarray,
    duration_s: float,
    dt_s: float,
    initial: "ThermalSolution | float | None" = None,
    lu=None,
    capacitance: "np.ndarray | None" = None,
) -> ThermalSolution:
    """Backward-Euler integration of C*dT/dt = -A*T + q.

    Unconditionally stable; the step size only controls accuracy. Returns
    the state at ``duration_s``. ``lu``/``capacitance`` may carry a cached
    :func:`factorize_transient` result for the *effective* step size
    (``min(dt_s, duration_s)``); without them both are computed here.
    """
    check_step(duration_s, dt_s)
    if dt_s > duration_s:
        dt_s = duration_s
    if capacitance is None:
        capacitance = model.capacitance_vector()
    if np.any(capacitance <= 0.0):
        raise ConfigurationError("all DOFs need positive heat capacitance")

    if initial is None:
        state = np.full(model.n_dof, model.inlet_temperature_k)
    elif isinstance(initial, ThermalSolution):
        state = initial.temperatures_k.copy()
    else:
        state = np.full(model.n_dof, float(initial))

    if lu is None:
        lu = factorize_transient(matrix, capacitance, dt_s)
    steps = int(round(duration_s / dt_s))
    for _ in range(max(1, steps)):
        state = lu.solve(rhs + (capacitance / dt_s) * state)
    if not np.all(np.isfinite(state)):
        raise ConvergenceError("transient solve produced non-finite temperatures")
    return ThermalSolution(temperatures_k=state, model=model)
