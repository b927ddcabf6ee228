"""Batched steady-state solves across a family of thermal models.

A design sweep evaluates many operating points whose thermal systems are
*nearly* the same: the mesh and the conduction structure are fixed, only
the coolant flow and the right-hand side (power maps) move. Two
properties of the assembled system make such a family cheap:

1. **The matrix is affine in flow.** Advection is the only term that
   depends on flow (film coefficient, fin efficiency and conduction
   stamps do not), so ``A(q) = A(q0) + (q - q0) D`` with ``D`` nonzero
   only on the fluid rows.
2. **The inlet temperature is a flow-independent start.** With
   ``x0 = T_inlet`` everywhere, ``b(q) - A(q) x0`` is just the power
   sources: conduction rows sum to zero on adiabatic walls, and the
   upwind inlet rows carry the inlet enthalpy.

:class:`AnchoredSteadySolver` factorizes one anchor ``M = A(q0)`` and
uses it as a right preconditioner, ``A(q) M^-1 = I + (q - q0) D M^-1``.
The Krylov space of ``D M^-1`` grown from the source vectors is thus the
same for every flow of the family: a column at a new flow costs a small
least-squares solve in that space plus one triangular solve, and the
space grows (one triangular solve per Krylov step) only where it cannot
yet meet the tolerance. Utilization or workload variants of one flow are
stacked right-hand-side columns of one call.

The solver is built from its family, the flow-free model whose
:meth:`~repro.thermal.model.ThermalModel.at_flow` derives every flow's
model, and takes ``D`` once from the family's advection stamp at unit
flow. Property 1 therefore holds by construction: the only check left is
at the boundary, where a model that does not share the family's
conduction matrix (a fresh build, a flow-dependent channel allocation,
another inlet, raster or stack) raises
:class:`~repro.errors.ConfigurationError`. Every solution is
residual-checked against the same bound as
:func:`repro.thermal.solver.solve_steady` and falls back to a direct
factorization when the fast path misses it, so callers get direct-solver
accuracy unconditionally — the backend-equivalence tests pin batched peak
temperatures to the scalar path within 1e-6 K. The Krylov space belongs
to one solver instance (one family of one batch), so a result depends
only on its batch.

:class:`AnchoredTransientSolver` is the transient counterpart, with a
stricter anchor: the *exact* per-``(matrix, dt)`` backward-Euler
factorizations the scalar stepper caches on the model. Transient
trajectories feed discontinuous control decisions downstream (flow
quantization, governor hysteresis trips, settling-band exits), where a
sub-ulp perturbation would flip a branch and diverge far beyond any
linear tolerance — so the batched path trades the anchored Krylov space
for bit-identical stepping and wins by marching many scenarios' state
columns through each factorization as one multi-RHS solve.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.linalg import lstsq
from scipy.sparse.linalg import splu

from repro import obs
from repro.errors import ConfigurationError, ConvergenceError
from repro.thermal.solver import ThermalSolution, factorize_steady

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.thermal.model import ThermalModel

#: Relative-residual acceptance bound, tighter than the 1e-6 ill-posedness
#: guard of :func:`solve_steady` so batched peaks match direct solves well
#: inside the documented equivalence tolerance.
_RESIDUAL_RTOL = 1e-8

#: Krylov stop test: a column is answered once its residual estimate is
#: at most ``_GMRES_RTOL * ||b||``.
_GMRES_RTOL = 1e-12

#: Most vectors one solver's Krylov space holds. The space lives on the
#: fluid and source rows only (40 % of the DOFs of the case-study stack),
#: so 64 vectors cost ~4 MB at 88x44. 28 flows at 88x44 settle at 18
#: vectors; the workloads preset (4 power maps at 48 and 1352 ml/min)
#: reaches 60. A column that cannot converge within the cap re-anchors
#: on its own matrix.
_SPACE_CAP = 64

#: DGKS criterion: orthogonalize a second time when one Gram-Schmidt pass
#: removed more than this share of a vector's norm.
_REORTHOGONALIZE = 0.7071


def _fast_splu(matrix: sparse.spmatrix):
    """SuperLU factorization tuned for these diagonally dominant systems.

    Symmetric-mode ordering with diagonal pivoting roughly halves the
    factorization time on the conduction+advection matrices assembled by
    :class:`~repro.thermal.model.ThermalModel`. The caller's residual
    check guards the no-pivoting choice: a matrix that defeats it falls
    back to the default, fully pivoted factorization.
    """
    try:
        return splu(
            matrix.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError:
        return factorize_steady(matrix)


class AnchoredSteadySolver:
    """Steady solves over one thermal family, sharing one anchor and one
    Krylov space.

    Built from its family, the flow-free model whose
    :meth:`~repro.thermal.model.ThermalModel.at_flow` derives every flow's
    model; ``D`` is the family's advection stamp at unit flow. Feed it
    those models (with their power maps already applied) in any order and
    read back :class:`~repro.thermal.solver.ThermalSolution` objects
    identical — to solver accuracy — to ``model.solve_steady()``. Any
    other model raises :class:`~repro.errors.ConfigurationError`. Feeding
    the flows middle-out keeps every flow close to the anchor, which keeps
    the Krylov space small; the solver re-anchors on its own when the
    space would outgrow its cap.

    The space is an orthonormal basis ``V`` plus the Arnoldi relation
    ``D M^-1 (V R) = V H``: ``R`` holds the coefficients of the directions
    ``D M^-1`` was applied to, ``H`` those of their images. With
    ``r0 = b - A x0`` and ``c = V^T r0``, a column at shift
    ``s = q - q0`` takes ``z = argmin ||c - (R + s H) z||`` and
    ``x = x0 + M^-1 V R z``. A column whose residual estimate misses the
    tolerance applies ``D M^-1`` once along its current residual, which
    extends ``V``, ``R`` and ``H`` by one column, and solves again. The
    anchor's own columns are ``x0 + M^-1 r0``; that solve doubles as a
    free Krylov step whose image joins ``V`` at once.
    """

    def __init__(self, family: "ThermalModel") -> None:
        #: ``D`` and its rows.
        self._drift = family.at_flow(1.0)._advection()[0]
        self._drift_rows = np.flatnonzero(np.diff(self._drift.indptr))
        #: The conduction matrix every model of the family shares by
        #: reference (the boundary check of :meth:`_system`).
        self._conduction = family._conduction
        self._anchor_lu = None
        self._anchor_flow = 0.0
        #: Fresh factorizations performed (anchors + fallbacks) — exposed
        #: for benches and tests asserting the sharing actually happens.
        self.factorizations = 0
        #: Solves answered without a fresh LU, by the Krylov space.
        self.anchored_solves = 0
        #: The subset of ``anchored_solves`` the family's existing space
        #: answered: no Krylov step was taken along the column.
        self.projected_solves = 0
        #: Krylov steps taken along a column's residual (one triangular
        #: solve each; the anchor's own solves join the space for free).
        self.krylov_steps = 0

    # -- the Krylov space -------------------------------------------------------

    def _forget(self) -> None:
        """Start an empty space: it belongs to one anchor."""
        #: Rows the space may be nonzero on (the source rows, and ``D``'s
        #: rows once it holds an image); ``V`` is stored on those rows only.
        self._inside = np.zeros(self._drift.shape[0], dtype=bool)
        self._rows = np.empty(0, dtype=np.intp)
        #: ``V^T``: one orthonormal vector per row, ``_width`` in use.
        self._basis = np.zeros((_SPACE_CAP, 0))
        self._width = 0
        #: ``R`` and ``H``: one column per Krylov step, ``_steps`` in use.
        self._dirs = np.zeros((_SPACE_CAP, _SPACE_CAP))
        self._images = np.zeros((_SPACE_CAP, _SPACE_CAP))
        self._steps = 0

    def _room(self) -> bool:
        return self._width < _SPACE_CAP and self._steps < _SPACE_CAP

    def _widen(self, rows: np.ndarray) -> None:
        """Let the space be nonzero on ``rows`` too."""
        inside = self._inside.copy()
        inside[rows] = True
        widened = np.flatnonzero(inside)
        basis = np.zeros((_SPACE_CAP, widened.size))
        columns = np.searchsorted(widened, self._rows)
        basis[:self._width, columns] = self._basis[:self._width]
        self._inside, self._rows, self._basis = inside, widened, basis

    def _sources(
        self, residuals: np.ndarray, tols: np.ndarray
    ) -> "tuple[list[int], np.ndarray, np.ndarray]":
        """Fit the columns ``r0`` into the space.

        Widens the support to every row where a residual is more than
        rounding (what stays outside is at most half of each column's
        tolerance in norm) and appends each new source direction. Returns
        the columns that brought one, ``c = V^T r0``, and the norm of
        what ``V`` leaves out of each ``r0``.
        """
        floor = 0.5 * tols / np.sqrt(residuals.shape[0])
        rows = np.flatnonzero(
            (np.abs(residuals) > floor).any(axis=1) & ~self._inside
        )
        if rows.size:
            self._widen(rows)
        inside = residuals[self._rows]
        outside = np.linalg.norm(residuals[~self._inside], axis=0)
        new: "list[int]" = []
        while True:
            basis = self._basis[:self._width]
            coefficients = basis @ inside
            left_out = outside + np.linalg.norm(
                inside - basis.T @ coefficients, axis=0
            )
            grown = [
                k for k in np.flatnonzero(left_out > 0.5 * tols)
                if self._add_source(inside[:, k], tols[k])
            ]
            if not grown:
                return new, coefficients, left_out
            new += grown

    def _orthogonalize(
        self, vector: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(h, w)`` with ``vector = V h + w`` and ``w`` orthogonal to V:
        one Gram-Schmidt pass, a second one when DGKS asks for it."""
        basis = self._basis[:self._width]
        h = basis @ vector
        w = vector - h @ basis
        if np.linalg.norm(w) < _REORTHOGONALIZE * np.linalg.norm(vector):
            again = basis @ w
            w -= again @ basis
            h += again
        return h, w

    def _append(self, w: np.ndarray, norm: float) -> None:
        self._basis[self._width] = w / norm
        self._width += 1

    def _add_source(self, vector: np.ndarray, tol: float) -> bool:
        """Append ``vector``'s part outside ``V`` unless it is below half
        of ``tol`` (a new source direction, not rounding)."""
        if self._width == _SPACE_CAP:
            return False
        _, w = self._orthogonalize(vector)
        norm = np.linalg.norm(w)
        if not norm > 0.5 * tol:
            return False
        self._append(w, norm)
        return True

    def _record(self, direction: np.ndarray, image: np.ndarray) -> None:
        """One Arnoldi column: ``D M^-1 (V direction) = image``, a
        full-length vector on ``D``'s rows."""
        if not self._inside[self._drift_rows].all():
            self._widen(self._drift_rows)
        h, w = self._orthogonalize(image[self._rows])
        k, m = self._steps, self._width
        self._dirs[:direction.size, k] = direction
        self._images[:m, k] = h
        norm = np.linalg.norm(w)
        if norm > 0.0:
            self._images[m, k] = norm
            self._append(w, norm)
        self._steps += 1

    # -- the family -------------------------------------------------------------

    def _anchor(
        self, matrix: sparse.csr_matrix, flow: float, lu=None
    ) -> None:
        """Make ``matrix`` the anchor; its Krylov space starts empty."""
        # Release the old factors before building the new ones.
        self._anchor_lu = None
        self._anchor_lu = _fast_splu(matrix) if lu is None else lu
        self._anchor_flow = flow
        self._forget()
        self.factorizations += 1
        obs.inc("thermal.steady.factorizations")

    def _system(
        self, model: "ThermalModel"
    ) -> "tuple[sparse.csr_matrix, np.ndarray]":
        """``model``'s matrix and right-hand side, if it is one of the
        family's: only ``family.at_flow(q)`` shares its conduction."""
        if model._conduction is not self._conduction:
            raise ConfigurationError(
                "AnchoredSteadySolver solves only models of its family, "
                "derived with family.at_flow(total_flow_m3_s)"
            )
        return model._build_system()

    # -- solves -----------------------------------------------------------------

    def _direct(
        self, residuals: np.ndarray, tols: np.ndarray
    ) -> np.ndarray:
        """Anchor columns: ``M^-1 r0``. Each new source direction joins the
        space with that solve as a free Krylov step."""
        new, coefficients, _ = self._sources(residuals, tols)
        corrections = self._anchor_lu.solve(residuals)
        for k in new:
            if self._room():
                self._record(
                    coefficients[:, k],
                    self._drift @ corrections[:, k],
                )
        return corrections

    def _least_squares(
        self, shift: float, coefficients: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``z = argmin ||c - (R + s H) z||`` per column, and the small
        residuals ``c - (R + s H) z``."""
        m, k = self._width, self._steps
        if not k:
            return np.zeros((0, coefficients.shape[1])), coefficients
        system = self._dirs[:m, :k] + shift * self._images[:m, :k]
        z = lstsq(system, coefficients, lapack_driver="gelsy")[0]
        return z, coefficients - system @ z

    def _lift(self, coefficients: np.ndarray) -> np.ndarray:
        """Full-length columns ``V coefficients``."""
        full = np.zeros((self._inside.size, coefficients.shape[1]))
        basis = self._basis[:coefficients.shape[0]]
        full[self._rows] = basis.T @ coefficients
        return full

    def _krylov(
        self,
        matrix: sparse.csr_matrix,
        flow: float,
        shift: float,
        residuals: np.ndarray,
        tols: np.ndarray,
    ) -> np.ndarray:
        """Corrections ``x - x0`` of a matrix on the family's line."""
        _, fitted, left_out = self._sources(residuals, tols)
        # Zero-padded: r0 is V c plus what the space leaves out, and later
        # vectors do not move c. By the triangle inequality the residual
        # estimate adds the left-out norm to the small residual's.
        coefficients = np.zeros((_SPACE_CAP, residuals.shape[1]))
        coefficients[:len(fitted)] = fitted

        corrections = np.empty_like(residuals)
        todo = np.arange(residuals.shape[1])
        stepped: "set[int]" = set()
        while todo.size:
            z, small = self._least_squares(
                shift, coefficients[:self._width, todo]
            )
            misses = (
                np.linalg.norm(small, axis=0) + left_out[todo]
            ) / tols[todo]
            done = misses <= 1.0
            if done.any():
                directions = self._dirs[:self._width, :self._steps]
                corrections[:, todo[done]] = self._anchor_lu.solve(
                    self._lift(directions @ z[:, done])
                )
                answered = int(done.sum())
                projected = answered - len(stepped.intersection(todo[done]))
                self.anchored_solves += answered
                self.projected_solves += projected
                obs.inc("thermal.steady.anchored_solves", answered)
                obs.inc("thermal.steady.projected_solves", projected)
            todo, small, misses = todo[~done], small[:, ~done], misses[~done]
            if not todo.size:
                break
            if not self._room():
                # The space is full: this matrix becomes the anchor and
                # answers its remaining columns directly.
                obs.inc("thermal.steady.reanchors")
                self._anchor(matrix, flow)
                corrections[:, todo] = self._direct(
                    residuals[:, todo], tols[todo]
                )
                break
            # Step along the column furthest from its tolerance.
            worst = int(np.argmax(misses))
            stepped.add(int(todo[worst]))
            direction = small[:, worst]
            self.krylov_steps += 1
            obs.inc("thermal.gmres.iterations")
            image = self._drift @ self._anchor_lu.solve(
                self._lift(direction[:, None])[:, 0]
            )
            self._record(direction, image)
        return corrections

    def _solve_columns(
        self,
        model: "ThermalModel",
        matrix: sparse.csr_matrix,
        rhs_columns: np.ndarray,
    ) -> np.ndarray:
        """Solve ``matrix @ x = rhs`` for each column from ``x0 = T_inlet``,
        residual-checked."""
        flow = model.coolant_flow_m3_s
        fresh = self._anchor_lu is None
        if fresh:
            self._anchor(matrix, flow)
        inlet = model.inlet_temperature_k
        residuals = rhs_columns - (
            matrix @ np.full(matrix.shape[0], inlet)
        )[:, None]
        tols = _GMRES_RTOL * np.linalg.norm(rhs_columns, axis=0)
        if fresh:
            corrections = self._direct(residuals, tols)
        else:
            corrections = self._krylov(
                matrix, flow, flow - self._anchor_flow, residuals, tols
            )
        return self._checked(model, matrix, inlet + corrections, rhs_columns)

    # -- public API -------------------------------------------------------------

    def solve(self, model: "ThermalModel") -> ThermalSolution:
        """Drop-in for ``model.solve_steady()`` using the shared anchor."""
        matrix, rhs = self._system(model)
        temperatures = self._solve_columns(model, matrix, rhs[:, None])[:, 0]
        return ThermalSolution(temperatures_k=temperatures, model=model)

    def solve_columns(
        self, model: "ThermalModel", rhs_columns: np.ndarray
    ) -> np.ndarray:
        """Temperature columns for many right-hand sides of one model.

        ``rhs_columns`` is ``(n_dof, k)`` — typically the model's base
        right-hand side plus ``k`` different power maps. Returns the
        ``(n_dof, k)`` temperature fields [K]. The model's own matrix is
        used; its ``_sources`` are ignored (the caller owns the RHS).
        """
        matrix, _ = self._system(model)
        return self._solve_columns(model, matrix, rhs_columns)

    def _checked(
        self,
        model: "ThermalModel",
        matrix: sparse.spmatrix,
        solution: np.ndarray,
        rhs_columns: np.ndarray,
    ) -> np.ndarray:
        """Residual-check every column; re-solve misses with a direct LU."""
        direct_lu = None
        for k in range(solution.shape[1]):
            x, rhs = solution[:, k], rhs_columns[:, k]
            if np.all(np.isfinite(x)) and _residual_ok(matrix, x, rhs):
                continue
            if direct_lu is None:
                # One fully pivoted factorization serves every failing
                # column, and becomes the new anchor with an empty space:
                # if the fast path was inaccurate here, it would stay
                # inaccurate for the rest of the family too.
                obs.inc("thermal.steady.fallbacks")
                self._anchor_lu = None
                direct_lu = factorize_steady(matrix)
                self._anchor(matrix, model.coolant_flow_m3_s, direct_lu)
            direct = direct_lu.solve(rhs)
            if not np.all(np.isfinite(direct)):
                raise ConvergenceError(
                    "steady thermal solve produced non-finite temperatures"
                )
            solution[:, k] = direct
        return solution


def _residual_ok(
    matrix: sparse.spmatrix, x: np.ndarray, rhs: np.ndarray
) -> bool:
    residual = np.abs(matrix @ x - rhs).max()
    return residual <= _RESIDUAL_RTOL * max(np.abs(rhs).max(), 1e-30)


class AnchoredTransientSolver:
    """Lockstep transient marching of stacked scenario columns on one model.

    Wraps a single :class:`~repro.thermal.model.ThermalModel` and advances
    ``k`` scenario state columns per backward-Euler step as one multi-RHS
    triangular solve against the model's own cached factorizations
    (:meth:`ThermalModel.transient_lu`, :meth:`ThermalModel.steady_lu`).
    SuperLU solves a 2-D right-hand side column by column, so each
    column is bit-identical to the scalar
    ``model.solve_transient`` step at the same ``dt`` — which is the whole
    point: the anchor here is the exact per-``(matrix, dt)`` LU, not a
    preconditioner, because downstream consumers (controllers, settling
    detection) branch on the trajectory and must see the very same floats
    the scalar path produces.

    The solver shares the model's LU caches rather than keeping its own,
    so scalar solves touching the same model (warm cache replays, the
    runtime store) reuse every factorization paid for here and vice
    versa.
    """

    def __init__(self, model: "ThermalModel") -> None:
        self.model = model
        #: Multi-column backward-Euler solves performed (one per step per
        #: ``dt`` sub-batch, regardless of how many columns ride along).
        self.column_steps = 0

    def solve_steady_columns(self, rhs_columns: np.ndarray) -> np.ndarray:
        """Steady temperature columns for many right-hand sides.

        Mirrors :func:`repro.thermal.solver.solve_steady` per column —
        same LU, same finite and residual checks — for stacked initial
        conditions of a transient family.
        """
        model = self.model
        matrix, _ = model._system_structure()
        solution = model.steady_lu().solve(rhs_columns)
        if not np.all(np.isfinite(solution)):
            raise ConvergenceError(
                "thermal solve produced non-finite temperatures"
            )
        for k in range(solution.shape[1]):
            rhs = rhs_columns[:, k]
            residual = np.abs(matrix @ solution[:, k] - rhs).max()
            scale = max(np.abs(rhs).max(), 1e-30)
            if residual > 1e-6 * scale:
                raise ConfigurationError(
                    "steady thermal system is ill-posed (relative residual "
                    f"{residual / scale:.2e}) — does the stack contain a "
                    "microchannel layer to carry heat away?"
                )
        return solution

    def step_columns(
        self, states: np.ndarray, rhs_columns: np.ndarray, dt_s: float
    ) -> np.ndarray:
        """One backward-Euler step of every column: ``A + C/dt`` solve.

        ``states`` and ``rhs_columns`` are ``(n_dof, k)``; returns the
        advanced ``(n_dof, k)`` states. The step formula is the scalar
        stepper's, column-vectorized:
        ``lu.solve(rhs + (capacitance / dt) * state)``. Only the step
        matrix is factorized (:meth:`ThermalModel.transient_lu`, which
        rejects a non-finite or non-positive ``dt_s``); the steady LU is
        left to the solves that need it.
        """
        model = self.model
        lu = model.transient_lu(dt_s)
        advanced = lu.solve(
            rhs_columns + (model._capacitance / dt_s)[:, None] * states
        )
        if not np.all(np.isfinite(advanced)):
            raise ConvergenceError(
                "transient solve produced non-finite temperatures"
            )
        self.column_steps += 1
        obs.inc("thermal.transient.column_steps")
        return advanced
