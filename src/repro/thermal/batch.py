"""Batched steady-state solves across a family of thermal models.

A design sweep evaluates many operating points whose thermal systems are
*nearly* the same: the mesh and the conduction structure are fixed, only
the advection strength (flow rate) and the right-hand side (power maps,
inlet enthalpy) move. Factorizing every matrix from scratch — what the
scalar path does — therefore repeats almost identical work.

:class:`AnchoredSteadySolver` shares that work two ways:

1. **Stacked right-hand sides.** Scenarios that share a matrix (same flow
   and inlet; different utilizations or workloads) are solved as one
   multi-column triangular solve against a single cached LU
   factorization.
2. **Anchored iterative solves.** Scenarios that differ only in advection
   strength reuse the most recent factorization as a *preconditioner*:
   GMRES preconditioned with a neighbouring flow's LU converges in a
   handful of iterations, several times cheaper than a fresh
   factorization. When the flows drift too far apart for the anchor to
   precondition well, the solver transparently re-anchors (factorizes the
   current matrix and continues from there), so accuracy never depends on
   the batch's spread.

Every solution is residual-checked against the same bound as
:func:`repro.thermal.solver.solve_steady` and falls back to a direct
factorization when the fast path misses it, so callers get direct-solver
accuracy unconditionally — the backend-equivalence tests pin batched peak
temperatures to the scalar path within 1e-6 K.

:class:`AnchoredTransientSolver` is the transient counterpart, with a
stricter anchor: the *exact* per-``(matrix, dt)`` backward-Euler
factorizations the scalar stepper caches on the model. Transient
trajectories feed discontinuous control decisions downstream (flow
quantization, governor hysteresis trips, settling-band exits), where a
sub-ulp perturbation would flip a branch and diverge far beyond any
linear tolerance — so the batched path trades the preconditioned-GMRES
trick for bit-identical stepping and wins by marching many scenarios'
state columns through each factorization as one multi-RHS solve.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, gmres, splu

from repro import obs
from repro.errors import ConfigurationError, ConvergenceError
from repro.thermal.solver import ThermalSolution, factorize_steady

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.thermal.model import ThermalModel

#: Relative-residual acceptance bound, tighter than the 1e-6 ill-posedness
#: guard of :func:`solve_steady` so batched peaks match direct solves well
#: inside the documented equivalence tolerance.
_RESIDUAL_RTOL = 1e-8

#: GMRES restart length and outer-iteration budget per solve. The budget
#: is deliberately small: a preconditioner that needs more than
#: ``restart * max_outer`` Krylov vectors is a bad anchor, and
#: re-factorizing is both faster and exact.
_GMRES_RTOL = 1e-12
_GMRES_RESTART = 30
_GMRES_MAX_OUTER = 2


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
    """Steady solves over a model family, sharing one anchor factorization.

    Stateless from the caller's perspective: feed it models (with their
    power maps already applied) in any order and read back
    :class:`~repro.thermal.solver.ThermalSolution` objects identical — to
    solver accuracy — to ``model.solve_steady()``. Feeding models sorted
    by flow rate keeps consecutive matrices similar, which is what makes
    the anchor effective; the solver re-anchors on its own when they are
    not.
    """

    def __init__(self) -> None:
        self._anchor_lu = None
        self._anchor_matrix: "sparse.spmatrix | None" = None
        #: Fresh factorizations performed (anchors + fallbacks) — exposed
        #: for benches and tests asserting the sharing actually happens.
        self.factorizations = 0
        #: Solves answered by preconditioned GMRES instead of a fresh LU.
        self.anchored_solves = 0

    # -- internals -------------------------------------------------------------

    def _anchor(self, matrix: sparse.spmatrix) -> None:
        self._anchor_lu = _fast_splu(matrix)
        self._anchor_matrix = matrix
        self.factorizations += 1
        obs.inc("thermal.steady.factorizations")

    def _solve_columns(
        self, matrix: sparse.spmatrix, rhs_columns: np.ndarray
    ) -> np.ndarray:
        """Solve ``matrix @ x = rhs`` for each column, anchor-assisted."""
        if self._anchor_lu is None or matrix is self._anchor_matrix:
            if self._anchor_lu is None:
                self._anchor(matrix)
            return self._anchor_lu.solve(rhs_columns)

        preconditioner = LinearOperator(matrix.shape, self._anchor_lu.solve)
        solution = np.empty_like(rhs_columns)
        iterations = 0

        def _count(_pr_norm: float) -> None:
            nonlocal iterations
            iterations += 1

        # The counting callback is attached only while observability is
        # on, and always with callback_type="pr_norm": the default
        # ("legacy") silently switches maxiter to count *inner*
        # iterations, which would change convergence behaviour. With
        # pr_norm the iterates are identical with or without the
        # callback (pinned by tests/obs/test_solver_equivalence.py).
        gmres_callback = (
            dict(callback=_count, callback_type="pr_norm")
            if obs.enabled()
            else {}
        )
        for k in range(rhs_columns.shape[1]):
            rhs = rhs_columns[:, k]
            x, info = gmres(
                matrix,
                rhs,
                # The anchor's own solution of this RHS is a strong first
                # iterate: for neighbouring flows it already carries the
                # temperature field's large-scale structure.
                x0=self._anchor_lu.solve(rhs),
                M=preconditioner,
                rtol=_GMRES_RTOL,
                atol=0.0,
                restart=_GMRES_RESTART,
                maxiter=_GMRES_MAX_OUTER,
                **gmres_callback,
            )
            if info != 0 or not _residual_ok(matrix, x, rhs):
                # The anchor stopped preconditioning this far from its
                # own flow: make the current matrix the new anchor and
                # solve the remaining columns directly.
                obs.inc("thermal.gmres.iterations", iterations)
                obs.inc("thermal.steady.reanchors")
                self._anchor(matrix)
                solution[:, k:] = self._anchor_lu.solve(rhs_columns[:, k:])
                return solution
            self.anchored_solves += 1
            obs.inc("thermal.steady.anchored_solves")
            solution[:, k] = x
        obs.inc("thermal.gmres.iterations", iterations)
        return solution

    # -- public API -------------------------------------------------------------

    def solve(self, model: "ThermalModel") -> ThermalSolution:
        """Drop-in for ``model.solve_steady()`` using the shared anchor."""
        matrix, rhs = model._build_system()
        temperatures = self._checked(
            model, matrix, self._solve_columns(matrix, rhs[:, None])
        )[:, 0]
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
        matrix, _ = model._build_system()
        return self._checked(
            model, matrix, self._solve_columns(matrix, rhs_columns),
            rhs_columns,
        )

    def _checked(
        self,
        model: "ThermalModel",
        matrix: sparse.spmatrix,
        solution: np.ndarray,
        rhs_columns: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Residual-check every column; re-solve misses with a direct LU."""
        if rhs_columns is None:
            _, rhs = model._build_system()
            rhs_columns = rhs[:, None]
        direct_lu = None
        for k in range(solution.shape[1]):
            x, rhs = solution[:, k], rhs_columns[:, k]
            if np.all(np.isfinite(x)) and _residual_ok(matrix, x, rhs):
                continue
            if direct_lu is None:
                # One fully pivoted factorization serves every failing
                # column, and becomes the new anchor: if the fast LU was
                # inaccurate here, it would stay inaccurate for the rest
                # of the family too.
                direct_lu = factorize_steady(matrix)
                self.factorizations += 1
                obs.inc("thermal.steady.factorizations")
                obs.inc("thermal.steady.fallbacks")
                self._anchor_lu = direct_lu
                self._anchor_matrix = matrix
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
    (:meth:`ThermalModel.warm`). SuperLU solves a 2-D right-hand side
    column by column, so each column is bit-identical to the scalar
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
        model = self.model.warm()
        matrix, _ = model._build_system()
        solution = model._steady_lu.solve(rhs_columns)
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
        ``lu.solve(rhs + (capacitance / dt) * state)``.
        """
        if dt_s <= 0.0:
            raise ConfigurationError("dt must be > 0")
        model = self.model.warm(dt_s=dt_s)
        lu = model._transient_lus[dt_s]
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
