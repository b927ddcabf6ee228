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
least-squares solve in that space plus one triangular solve.

The solver grows that space once, when it is built, from a fixed
training set of the family's models: it anchors on the set's lowest
flow and takes Krylov steps (one triangular solve each) until every
training flow meets the tolerance. After that the space is read-only,
the family's *canonical* space. Each requested column is solved alone,
on a view of it: a column the canonical space cannot answer grows its
view, a view that fills up re-anchors on the column's own matrix, and
those steps and that factorization die with the column. A column's
answer is therefore a function of its family and its right-hand side
alone: the same bits in any batch, in any order, after any other solve.

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
accuracy unconditionally — the steady oracle tests pin every steady
evaluator to a direct solve within 1e-9 relative.

:class:`AnchoredTransientSolver` is the transient counterpart, with a
stricter anchor: the *exact* per-``(matrix, dt)`` backward-Euler
factorizations the scalar stepper caches on the model. Transient
trajectories feed discontinuous control decisions downstream (flow
quantization, governor hysteresis trips, settling-band exits), where a
sub-ulp perturbation would flip a branch and diverge far beyond any
linear tolerance — so the batched path trades the anchored Krylov space
for bit-identical stepping: many scenarios' state columns share each
factorization, and each column takes its own triangular solve, because
a multi-column SuperLU solve rounds differently at different widths.
"""

from __future__ import annotations

import copy
import threading
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import lstsq
from scipy.sparse.linalg import splu

from repro import obs
from repro.errors import ConfigurationError, ConvergenceError
from repro.thermal.solver import (
    ThermalSolution,
    checked_steady_solve,
    factorize_steady,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.thermal.model import ThermalModel

#: Relative-residual acceptance bound, tighter than the 1e-6 ill-posedness
#: guard of :func:`solve_steady` so batched peaks match direct solves well
#: inside the documented equivalence tolerance.
_RESIDUAL_RTOL = 1e-8

#: Krylov stop test: a column is answered once its residual estimate is
#: at most ``_GMRES_RTOL * ||b||``.
_GMRES_RTOL = 1e-12

#: Most vectors a Krylov space holds: the canonical space and one
#: column's own steps together. The space lives on the fluid and source
#: rows only (40 % of the DOFs of the case-study stack), so 64 vectors
#: cost ~4 MB at 88x44. The sweep families' canonical space (8 training
#: flows over 48-1352 ml/min) holds 21 vectors at 88x44; a workload map
#: that is not a multiple of the full-load map takes ~10 more on its
#: column's view. A column that cannot converge within the cap
#: re-anchors on its own matrix.
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


class _KrylovSpace:
    """An anchor ``M = A(q0)`` and the Krylov space of ``D M^-1`` on it.

    The space is an orthonormal basis ``V`` plus the Arnoldi relation
    ``D M^-1 (V R) = V H``: ``R`` holds the coefficients of the directions
    ``D M^-1`` was applied to, ``H`` those of their images. With
    ``r0 = b - A x0`` and ``c = V^T r0``, a column at shift
    ``s = q - q0`` takes ``z = argmin ||c - (R + s H) z||`` and
    ``x = x0 + M^-1 V R z``.

    A shallow copy is a *view*: it shares the arrays, every append writes
    past the original's width and step count, and widening makes new
    arrays, so nothing done through a view shows through the original.
    """

    def __init__(self, lu, flow: float, drift_rows: np.ndarray) -> None:
        self.lu = lu
        self.flow = flow
        self.drift_rows = drift_rows
        #: Rows the space may be nonzero on (the source rows, and ``D``'s
        #: rows once it holds an image); ``V`` is stored on those rows only.
        self.inside = np.zeros(lu.shape[0], dtype=bool)
        self.rows = np.empty(0, dtype=np.intp)
        #: ``V^T``: one orthonormal vector per row, ``width`` in use.
        self.basis = np.zeros((_SPACE_CAP, 0))
        self.width = 0
        #: ``R`` and ``H``: one column per Krylov step, ``steps`` in use.
        self.dirs = np.zeros((_SPACE_CAP, _SPACE_CAP))
        self.images = np.zeros((_SPACE_CAP, _SPACE_CAP))
        self.steps = 0

    def room(self) -> bool:
        return self.width < _SPACE_CAP and self.steps < _SPACE_CAP

    def widen(self, rows: np.ndarray) -> None:
        """Let the space be nonzero on ``rows`` too."""
        inside = self.inside.copy()
        inside[rows] = True
        widened = np.flatnonzero(inside)
        basis = np.zeros((_SPACE_CAP, widened.size))
        columns = np.searchsorted(widened, self.rows)
        basis[:self.width, columns] = self.basis[:self.width]
        self.inside, self.rows, self.basis = inside, widened, basis

    def fit(
        self, residual: np.ndarray, tol: float
    ) -> "tuple[bool, np.ndarray, float]":
        """Fit a column ``r0`` into the space.

        Widens the support to every row where ``r0`` is more than rounding
        (what stays outside is at most half the tolerance in norm) and
        appends each new source direction. Returns whether one was
        appended, ``c = V^T r0``, and the norm of what ``V`` leaves out
        of ``r0``.
        """
        floor = 0.5 * tol / np.sqrt(residual.size)
        rows = np.flatnonzero((np.abs(residual) > floor) & ~self.inside)
        if rows.size:
            self.widen(rows)
        inside = residual[self.rows]
        outside = np.linalg.norm(residual[~self.inside])
        grown = False
        while True:
            basis = self.basis[:self.width]
            coefficients = basis @ inside
            left_out = outside + np.linalg.norm(inside - coefficients @ basis)
            if not (left_out > 0.5 * tol and self.add_source(inside, tol)):
                return grown, coefficients, left_out
            grown = True

    def orthogonalize(
        self, vector: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(h, w)`` with ``vector = V h + w`` and ``w`` orthogonal to V:
        one Gram-Schmidt pass, a second one when DGKS asks for it."""
        basis = self.basis[:self.width]
        h = basis @ vector
        w = vector - h @ basis
        if np.linalg.norm(w) < _REORTHOGONALIZE * np.linalg.norm(vector):
            again = basis @ w
            w -= again @ basis
            h += again
        return h, w

    def append(self, w: np.ndarray, norm: float) -> None:
        self.basis[self.width] = w / norm
        self.width += 1

    def add_source(self, vector: np.ndarray, tol: float) -> bool:
        """Append ``vector``'s part outside ``V`` unless it is below half
        of ``tol`` (a new source direction, not rounding)."""
        if self.width == _SPACE_CAP:
            return False
        _, w = self.orthogonalize(vector)
        norm = np.linalg.norm(w)
        if not norm > 0.5 * tol:
            return False
        self.append(w, norm)
        return True

    def record(self, direction: np.ndarray, image: np.ndarray) -> None:
        """One Arnoldi column: ``D M^-1 (V direction) = image``, a
        full-length vector on ``D``'s rows."""
        if not self.inside[self.drift_rows].all():
            self.widen(self.drift_rows)
        h, w = self.orthogonalize(image[self.rows])
        k, m = self.steps, self.width
        # Whole columns: an earlier view may have written this one.
        self.dirs[:, k] = 0.0
        self.dirs[:direction.size, k] = direction
        self.images[:, k] = 0.0
        self.images[:m, k] = h
        norm = np.linalg.norm(w)
        if norm > 0.0:
            self.images[m, k] = norm
            self.append(w, norm)
        self.steps += 1

    def least_squares(
        self, shift: float, coefficients: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``z = argmin ||c - (R + s H) z||`` and the small residual
        ``c - (R + s H) z``."""
        m, k = self.width, self.steps
        if not k:
            return np.zeros(0), coefficients
        system = self.dirs[:m, :k] + shift * self.images[:m, :k]
        z = lstsq(system, coefficients, lapack_driver="gelsy")[0]
        return z, coefficients - system @ z

    def lift(self, coefficients: np.ndarray) -> np.ndarray:
        """The full-length vector ``V coefficients``."""
        full = np.zeros(self.inside.size)
        full[self.rows] = coefficients @ self.basis[:coefficients.size]
        return full


class AnchoredSteadySolver:
    """Steady solves over one thermal family, on one canonical anchor
    and Krylov space.

    Built from its family, the flow-free model whose
    :meth:`~repro.thermal.model.ThermalModel.at_flow` derives every flow's
    model (``D`` is the family's advection stamp at unit flow), and from
    a training set of such models with their power maps applied. It
    anchors on the training set's lowest flow and grows its space along
    the other training flows in flow order; see the module docstring.

    Feed it the family's models (with their power maps already applied)
    in any order and read back
    :class:`~repro.thermal.solver.ThermalSolution` objects identical — to
    solver accuracy — to ``model.solve_steady()``, and bit-identical
    whatever else the solver has solved. Any other model raises
    :class:`~repro.errors.ConfigurationError`. One solver may serve many
    threads: a lock lets one solve at a time use the space's views.
    """

    def __init__(
        self, family: "ThermalModel", training: "Sequence[ThermalModel]"
    ) -> None:
        #: ``D`` and its rows.
        self._drift = family.at_flow(1.0)._advection()[0]
        self._drift_rows = np.flatnonzero(np.diff(self._drift.indptr))
        #: The conduction matrix every model of the family shares by
        #: reference (the boundary check of :meth:`_system`).
        self._conduction = family._conduction
        #: Fresh factorizations performed (the anchor, its fallback, and
        #: the re-anchors and fallbacks of single columns) — exposed for
        #: benches and tests asserting the sharing actually happens.
        self.factorizations = 0
        #: Solves answered without a fresh LU, by the Krylov space.
        self.anchored_solves = 0
        #: The subset of ``anchored_solves`` the canonical space answered:
        #: no Krylov step was taken along the column.
        self.projected_solves = 0
        #: Krylov steps taken, in training and along single columns (one
        #: triangular solve each; the anchor's own solve joins the space
        #: for free).
        self.krylov_steps = 0
        self._lock = threading.Lock()
        self._canonical = self._train(training)

    # -- the family -------------------------------------------------------------

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

    def _factorize(self, matrix: sparse.csr_matrix, factorize=None):
        """``factorize(matrix)``, by default :func:`_fast_splu`, counted."""
        self.factorizations += 1
        obs.inc("thermal.steady.factorizations")
        return (factorize or _fast_splu)(matrix)

    def _train(self, training: "Sequence[ThermalModel]") -> _KrylovSpace:
        """The canonical space: anchored on the lowest training flow,
        grown along the others in flow order until each meets the
        tolerance or the space is full.

        The lowest flow's system is the closest to singular (no flow, no
        heat sink): anchored there, the space that reaches the top of the
        range also answers flows below it, and it takes fewer steps than
        one anchored mid-range.
        """
        models = sorted(training, key=lambda model: model.coolant_flow_m3_s)
        if not models:
            raise ConfigurationError(
                "AnchoredSteadySolver needs at least one training model"
            )
        anchor = models[0]
        matrix, rhs = self._system(anchor)
        flow = anchor.coolant_flow_m3_s
        residual, tol = _start(anchor, matrix, rhs)
        lu = self._factorize(matrix)
        correction = lu.solve(residual)
        if not _residual_ok(
            matrix, anchor.inlet_temperature_k + correction, rhs
        ):
            # A fast LU the family defeats would fail every column: the
            # fully pivoted factorization anchors the family instead.
            obs.inc("thermal.steady.fallbacks")
            lu = self._factorize(matrix, factorize_steady)
            correction = lu.solve(residual)
        space = _KrylovSpace(lu, flow, self._drift_rows)
        grown, coefficients, _ = space.fit(residual, tol)
        if grown:
            # The anchor's own solve is a free Krylov step.
            space.record(coefficients, self._drift @ correction)
        for model in models[1:]:
            matrix, rhs = self._system(model)
            residual, tol = _start(model, matrix, rhs)
            if self._project(
                space, model.coolant_flow_m3_s - flow, residual, tol
            ) is None:
                break
        return space

    # -- solves -----------------------------------------------------------------

    def _project(
        self,
        space: _KrylovSpace,
        shift: float,
        residual: np.ndarray,
        tol: float,
    ) -> "tuple[np.ndarray, bool] | None":
        """``(z, stepped)`` for a column of the family's line: grows
        ``space`` along the column's residual until the estimate meets
        ``tol``, and says whether it had to. None when the space fills
        up first."""
        _, fitted, left_out = space.fit(residual, tol)
        # Zero-padded: r0 is V c plus what the space leaves out, and later
        # vectors do not move c. By the triangle inequality the residual
        # estimate adds the left-out norm to the small residual's.
        coefficients = np.zeros(_SPACE_CAP)
        coefficients[:fitted.size] = fitted
        stepped = False
        while True:
            z, small = space.least_squares(
                shift, coefficients[:space.width]
            )
            if np.linalg.norm(small) + left_out <= tol:
                return z, stepped
            if not space.room():
                return None
            stepped = True
            self.krylov_steps += 1
            obs.inc("thermal.gmres.iterations")
            space.record(
                small, self._drift @ space.lu.solve(space.lift(small))
            )

    def _column(
        self,
        matrix: sparse.csr_matrix,
        flow: float,
        inlet: float,
        start: np.ndarray,
        rhs: np.ndarray,
    ) -> np.ndarray:
        """One column of ``matrix @ x = rhs``, on a view of the canonical
        space and residual-checked; ``start = matrix @ full(inlet)``."""
        residual = rhs - start
        tol = _GMRES_RTOL * np.linalg.norm(rhs)
        space = copy.copy(self._canonical)
        projected = self._project(space, flow - space.flow, residual, tol)
        if projected is None:
            # The view is full: the column's own matrix answers it.
            obs.inc("thermal.steady.reanchors")
            correction = self._factorize(matrix).solve(residual)
        else:
            z, stepped = projected
            self.anchored_solves += 1
            obs.inc("thermal.steady.anchored_solves")
            if not stepped:
                self.projected_solves += 1
                obs.inc("thermal.steady.projected_solves")
            directions = space.dirs[:space.width, :space.steps]
            correction = space.lu.solve(space.lift(directions @ z))
        solution = inlet + correction
        if np.all(np.isfinite(solution)) and _residual_ok(
            matrix, solution, rhs
        ):
            return solution
        obs.inc("thermal.steady.fallbacks")
        solution = self._factorize(matrix, factorize_steady).solve(rhs)
        if not np.all(np.isfinite(solution)):
            raise ConvergenceError(
                "steady thermal solve produced non-finite temperatures"
            )
        return solution

    def _solve_columns(
        self,
        model: "ThermalModel",
        matrix: sparse.csr_matrix,
        rhs_columns: np.ndarray,
    ) -> np.ndarray:
        """Solve ``matrix @ x = rhs`` for each column from ``x0 = T_inlet``,
        one column at a time."""
        inlet = model.inlet_temperature_k
        start = matrix @ np.full(matrix.shape[0], inlet)
        # Column-major: every column is one contiguous vector, whatever
        # the batch width, so its arithmetic is too.
        columns = np.asfortranarray(rhs_columns)
        solution = np.empty_like(columns, order="F")
        with self._lock:
            for k in range(columns.shape[1]):
                solution[:, k] = self._column(
                    matrix, model.coolant_flow_m3_s, inlet, start,
                    columns[:, k],
                )
        return solution

    # -- public API -------------------------------------------------------------

    def solve(self, model: "ThermalModel") -> ThermalSolution:
        """Drop-in for ``model.solve_steady()`` on the canonical space."""
        matrix, rhs = self._system(model)
        temperatures = self._solve_columns(model, matrix, rhs[:, None])[:, 0]
        return ThermalSolution(temperatures_k=temperatures, model=model)

    def solve_columns(
        self, model: "ThermalModel", rhs_columns: np.ndarray
    ) -> np.ndarray:
        """Temperature columns for many right-hand sides of one model.

        ``rhs_columns`` is ``(n_dof, k)`` — typically the model's base
        right-hand side plus ``k`` different power maps. Returns the
        ``(n_dof, k)`` temperature fields [K], column-major. The model's
        own matrix is used; its ``_sources`` are ignored (the caller owns
        the RHS).
        """
        matrix, _ = self._system(model)
        return self._solve_columns(model, matrix, rhs_columns)


def _start(
    model: "ThermalModel", matrix: sparse.spmatrix, rhs: np.ndarray
) -> "tuple[np.ndarray, float]":
    """A training column's ``r0 = b - A x0`` and its Krylov tolerance."""
    start = matrix @ np.full(matrix.shape[0], model.inlet_temperature_k)
    return rhs - start, _GMRES_RTOL * np.linalg.norm(rhs)


def _residual_ok(
    matrix: sparse.spmatrix, x: np.ndarray, rhs: np.ndarray
) -> bool:
    residual = np.abs(matrix @ x - rhs).max()
    return residual <= _RESIDUAL_RTOL * max(np.abs(rhs).max(), 1e-30)


class AnchoredTransientSolver:
    """Lockstep transient marching of stacked scenario columns on one model.

    Wraps a single :class:`~repro.thermal.model.ThermalModel` and advances
    ``k`` scenario state columns per backward-Euler step against the
    model's own cached factorizations (:meth:`ThermalModel.transient_lu`,
    :meth:`ThermalModel.steady_lu`). Each column is solved with its own
    triangular solve: SuperLU's solve of a 2-D right-hand side uses
    blocked kernels whose rounding depends on the batch width, so only
    one solve per column makes every column bit-identical to the scalar
    ``model.solve_transient`` step at the same ``dt``, in a batch of any
    width. That is the whole point: the anchor here is the exact
    per-``(matrix, dt)`` LU, not a preconditioner, because downstream
    consumers (controllers, settling detection) branch on the trajectory
    and must see the very same floats the scalar path produces.

    The solver shares the model's LU caches rather than keeping its own,
    so scalar solves touching the same model (warm cache replays, the
    runtime's kept models) reuse every factorization paid for here and
    vice versa.
    """

    def __init__(self, model: "ThermalModel") -> None:
        self.model = model

    def solve_steady_columns(self, rhs_columns: np.ndarray) -> np.ndarray:
        """Steady temperature columns for many right-hand sides.

        Each column is :func:`repro.thermal.solver.solve_steady`'s checked
        solve on the model's steady LU, one column at a time, for stacked
        initial conditions of a transient family.
        """
        model = self.model
        matrix, _ = model._system_structure()
        lu = model.steady_lu()
        solution = np.empty_like(rhs_columns, order="F")
        for k in range(rhs_columns.shape[1]):
            solution[:, k] = checked_steady_solve(
                matrix, lu, rhs_columns[:, k]
            )
        return solution

    def step_columns(
        self, states: np.ndarray, rhs_columns: np.ndarray, dt_s: float
    ) -> np.ndarray:
        """One backward-Euler step of every column: ``A + C/dt`` solve.

        ``states`` and ``rhs_columns`` are ``(n_dof, k)``; returns the
        advanced ``(n_dof, k)`` states. The step formula is the scalar
        stepper's, column-vectorized:
        ``lu.solve(rhs + (capacitance / dt) * state)``, one solve per
        column. Only the step matrix is factorized
        (:meth:`ThermalModel.transient_lu`, which rejects a non-finite or
        non-positive ``dt_s``); the steady LU is left to the solves that
        need it.
        """
        model = self.model
        lu = model.transient_lu(dt_s)
        # Column-major: every column is one contiguous vector.
        columns = np.asfortranarray(
            rhs_columns + (model._capacitance / dt_s)[:, None] * states
        )
        advanced = np.empty_like(columns)
        for k in range(columns.shape[1]):
            advanced[:, k] = lu.solve(columns[:, k])
        if not np.all(np.isfinite(advanced)):
            raise ConvergenceError(
                "transient solve produced non-finite temperatures"
            )
        obs.inc("thermal.transient.column_steps")
        return advanced
