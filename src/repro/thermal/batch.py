"""Batched steady-state solves across a family of thermal models.

A design sweep evaluates many operating points whose thermal systems are
*nearly* the same: the mesh and the conduction structure are fixed, only
the advection strength (flow rate) and the right-hand side (power maps,
inlet enthalpy) move. Factorizing every matrix from scratch — what the
scalar path does — therefore repeats almost identical work.

:class:`AnchoredSteadySolver` shares that work three ways:

1. **Snapshot-basis starts.** The solver keeps an orthonormal basis of its
   own earlier solutions and starts every column from the least-squares
   projection of its system onto that basis. Neighbouring flows and
   utilization variants (affine in utilization) mostly lie in the span
   already: a start whose residual meets the GMRES tolerance is the
   answer, with no triangular solve at all.
2. **Anchored iterative polish.** A start that misses is corrected by
   GMRES on the right-preconditioned system, with the most recent
   factorization (a neighbouring flow's LU) as the preconditioner — a
   handful of iterations, several times cheaper than a fresh
   factorization — and the polished solution joins the basis. When the
   flows drift too far apart for the anchor to precondition well, the
   solver transparently re-anchors (factorizes the current matrix and
   continues from there), so accuracy never depends on the batch's
   spread.
3. **Stacked right-hand sides.** Scenarios that share a matrix (same flow
   and inlet; different utilizations or workloads) are one multi-column
   call: after the first one or two columns join the basis, the rest
   project.

Every solution is residual-checked against the same bound as
:func:`repro.thermal.solver.solve_steady` and falls back to a direct
factorization when the fast path misses it, so callers get direct-solver
accuracy unconditionally — the backend-equivalence tests pin batched peak
temperatures to the scalar path within 1e-6 K. The basis belongs to one
solver instance (one family of one batch), so a result depends only on
its batch.

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
from scipy.linalg import (
    LinAlgError,
    cho_factor,
    cho_solve,
    qr_multiply,
    solve_triangular,
)
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

#: Relative norm below which a solution's component outside the snapshot
#: basis is rounding noise, not a new direction (10 of the 75 misses of a
#: 256-flow 44x22 family land here: projections at the residual floor).
#: The basis width itself is unbounded on purpose: only projection misses
#: grow it, and it saturates — 67 columns over that family, 34 over a
#: 64-flow 88x44 one (both geomspaced 20-1500 ml/min). Dropping the oldest
#: snapshot at a cap of 16 or 24 made them 1.8-2.2x slower (2-vCPU box,
#: single-threaded BLAS): no start projected any more.
_BASIS_DEFLATION = 1e-13


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
    the anchor and the snapshot basis effective; the solver re-anchors on
    its own when they are not.

    Each instance keeps an orthonormal basis ``V`` of its own earlier
    solutions. A column starts from ``x0 = V c`` with
    ``c = argmin ||A V c - b||``; a start already within the GMRES
    tolerance is the answer. Otherwise the column is solved — by the
    anchor LU for the anchor's own matrix, else by right-preconditioned
    GMRES on the correction ``(A M^-1) y = b - A x0`` — and the solution
    joins ``V`` before the matrix's remaining columns are re-projected.
    The basis lives and dies with the instance (one family of one batch),
    so a result depends only on its batch.
    """

    def __init__(self) -> None:
        self._anchor_lu = None
        self._anchor_matrix: "sparse.spmatrix | None" = None
        #: Snapshot basis ``V``: ``(n_dof, m)`` orthonormal columns.
        self._basis: "np.ndarray | None" = None
        #: Fresh factorizations performed (anchors + fallbacks) — exposed
        #: for benches and tests asserting the sharing actually happens.
        self.factorizations = 0
        #: Solves answered without a fresh LU: by anchor-preconditioned
        #: GMRES or by the snapshot projection alone.
        self.anchored_solves = 0
        #: The subset of ``anchored_solves`` the projection answered alone.
        self.projected_solves = 0

    # -- internals -------------------------------------------------------------

    def _anchor(self, matrix: sparse.spmatrix) -> None:
        self._anchor_lu = _fast_splu(matrix)
        self._anchor_matrix = matrix
        self.factorizations += 1
        obs.inc("thermal.steady.factorizations")

    def _project(
        self, matrix: sparse.spmatrix, rhs_columns: np.ndarray
    ) -> np.ndarray:
        """Least-squares starts ``V c``, ``c = argmin ||A V c - b||``.

        A thin QR of ``A V`` whose ``Q`` is never formed: ``R`` is the
        Cholesky factor of the Gram matrix ``(A V)^T A V`` (one BLAS-3
        product, ~7x cheaper than Householder at these shapes), so
        ``c = R^-1 R^-T (A V)^T b``. ``A V`` has a condition number of
        1e2-1e3 on these families (measured), far inside CholeskyQR's
        ~1e8 range; a Gram matrix Cholesky rejects falls back to
        Householder QR applied to ``b`` in place. Either way an inaccurate
        start only costs a GMRES polish: the caller checks its residual.
        """
        basis = self._basis
        if basis is None:
            return np.zeros_like(rhs_columns)
        image = matrix @ basis
        try:
            factor = cho_factor(image.T @ image)
        except LinAlgError:
            qtb, r = qr_multiply(
                image, rhs_columns.T, mode="right", overwrite_a=True
            )
            return basis @ solve_triangular(r, qtb.T)
        return basis @ cho_solve(factor, image.T @ rhs_columns)

    def _extend(self, x: np.ndarray) -> None:
        """Append ``x``'s component outside the basis, normalized."""
        basis = self._basis
        w = x.copy()
        for _ in range(0 if basis is None else 2):
            w -= basis @ (basis.T @ w)  # Gram-Schmidt, twice is enough
        norm = np.linalg.norm(w)
        if not norm > _BASIS_DEFLATION * np.linalg.norm(x):
            return
        w /= norm
        # Exact width, C order: the sparse product A V wants contiguous
        # rows, and appends (one per projection miss) are rare.
        self._basis = (
            w[:, None] if basis is None else np.column_stack((basis, w))
        )

    def _polish(
        self,
        matrix: sparse.spmatrix,
        x0: np.ndarray,
        residual: np.ndarray,
        atol: float,
        gmres_callback: dict,
    ) -> "tuple[np.ndarray, int]":
        """GMRES on the right-preconditioned correction system.

        Solves ``(A M^-1) y = r0`` with ``M`` the anchor LU and returns
        ``x0 + M^-1 y``. Right preconditioning leaves the residual GMRES
        minimizes equal to the true residual ``b - A x``, so the absolute
        stop test is the same one a start is accepted by.
        """
        lu = self._anchor_lu
        operator = LinearOperator(
            matrix.shape, lambda y: matrix @ lu.solve(y)
        )
        correction, info = gmres(
            operator,
            residual,
            rtol=0.0,
            atol=atol,
            restart=_GMRES_RESTART,
            maxiter=_GMRES_MAX_OUTER,
            **gmres_callback,
        )
        return x0 + lu.solve(correction), info

    def _solve_columns(
        self, matrix: sparse.spmatrix, rhs_columns: np.ndarray
    ) -> np.ndarray:
        """Solve ``matrix @ x = rhs`` for each column, basis-started."""
        if self._anchor_lu is None:
            self._anchor(matrix)
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
        starts = None
        for k in range(rhs_columns.shape[1]):
            rhs = rhs_columns[:, k]
            if starts is None:
                # (Re-)project every column not yet solved onto the
                # current basis: one factorization serves them all.
                starts = self._project(matrix, rhs_columns[:, k:])
            x = starts[:, 0]
            starts = starts[:, 1:]
            residual = rhs - matrix @ x
            atol = _GMRES_RTOL * np.linalg.norm(rhs)
            if np.linalg.norm(residual) <= atol:
                self.anchored_solves += 1
                self.projected_solves += 1
                obs.inc("thermal.steady.anchored_solves")
                obs.inc("thermal.steady.projected_solves")
                solution[:, k] = x
                continue
            if matrix is self._anchor_matrix:
                x = self._anchor_lu.solve(rhs)
            else:
                x, info = self._polish(
                    matrix, x, residual, atol, gmres_callback
                )
                if info != 0 or not _residual_ok(matrix, x, rhs):
                    # The anchor stopped preconditioning this far from
                    # its own flow: make the current matrix the new
                    # anchor and solve this column directly.
                    obs.inc("thermal.steady.reanchors")
                    self._anchor(matrix)
                    x = self._anchor_lu.solve(rhs)
                else:
                    self.anchored_solves += 1
                    obs.inc("thermal.steady.anchored_solves")
            solution[:, k] = x
            # Greedy growth: only a column the projection missed joins the
            # basis, and the matrix's remaining columns re-project onto it.
            self._extend(x)
            starts = None
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
        ``lu.solve(rhs + (capacitance / dt) * state)``. ``warm`` rejects
        a non-finite or non-positive ``dt_s``.
        """
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
