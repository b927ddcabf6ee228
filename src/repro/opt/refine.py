"""Adaptive grid-refinement search over the scenario design space.

The engine answers the paper's actual design question — *which* operating
point maximizes net power under the thermal and delivery limits — without
abandoning the sweep engine's guarantees. Each round is an ordinary
:class:`~repro.sweep.runner.SweepRunner` batch:

1. lay a coarse grid over the current bounds of every continuous axis
   (Cartesian with any categorical axes),
2. evaluate it through the runner — deduplicated, memoized in the shared
   :class:`~repro.store.ResultStore`, batched per evaluator,
3. extract the feasible Pareto front over *everything evaluated so far*,
4. zoom every continuous axis to the front's bracketing grid neighbours,
5. repeat until the bounds stop shrinking or reach the span tolerance.

Because the refinement path is a pure function of the problem (no
randomness, no timestamps), re-running an optimization against the same
cache directory replays the exact grid sequence and performs **zero new
evaluations** — the property bench A15 asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, check_count
from repro.opt.objective import Constraint, Objective
from repro.opt.pareto import pareto_front
from repro.sweep.runner import SweepResult, SweepResults, SweepRunner
from repro.sweep.spec import ScenarioSpec, SweepGrid

#: Axis value scales.
SCALES = ("linear", "log")


@dataclass(frozen=True)
class ContinuousAxis:
    """A refinable numeric spec field with search bounds.

    ``points`` values are laid across the current bounds each round —
    evenly on a linear or logarithmic scale — and the bounds contract
    toward the Pareto front between rounds.
    """

    field: str
    lo: float
    hi: float
    points: int = 7
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.field not in ScenarioSpec.field_names():
            raise ConfigurationError(
                f"unknown axis field {self.field!r}; spec fields are "
                f"{sorted(ScenarioSpec.field_names())}"
            )
        if not self.lo < self.hi:
            raise ConfigurationError(
                f"axis {self.field!r} needs lo < hi, got [{self.lo}, {self.hi}]"
            )
        if self.points < 3:
            raise ConfigurationError(
                f"axis {self.field!r} needs >= 3 points per round to "
                "bracket an optimum"
            )
        if self.scale not in SCALES:
            raise ConfigurationError(
                f"axis scale must be one of {SCALES}, got {self.scale!r}"
            )
        if self.scale == "log" and self.lo <= 0.0:
            raise ConfigurationError(
                f"log-scale axis {self.field!r} needs lo > 0"
            )

    def values(self, lo: float, hi: float) -> "list[float]":
        """The round's sample values across ``[lo, hi]``."""
        if lo == hi:
            return [float(lo)]
        space = np.geomspace if self.scale == "log" else np.linspace
        return [float(v) for v in space(lo, hi, self.points)]

    def span_fraction(self, lo: float, hi: float) -> float:
        """Current span relative to the original bounds (1.0 at start)."""
        if self.scale == "log":
            return float(np.log(hi / lo) / np.log(self.hi / self.lo))
        return (hi - lo) / (self.hi - self.lo)


@dataclass(frozen=True)
class CategoricalAxis:
    """A discrete spec field enumerated exhaustively every round."""

    field: str
    values: "tuple[object, ...]"

    def __post_init__(self) -> None:
        if self.field not in ScenarioSpec.field_names():
            raise ConfigurationError(
                f"unknown axis field {self.field!r}; spec fields are "
                f"{sorted(ScenarioSpec.field_names())}"
            )
        if not self.values:
            raise ConfigurationError(
                f"categorical axis {self.field!r} needs at least one value"
            )


@dataclass(frozen=True)
class OptimizationProblem:
    """A design-space search: axes + objectives + constraints over a base
    scenario.

    ``base`` supplies every spec field the axes do not touch (evaluator,
    raster resolution, ...). Objectives and constraints name metrics of
    that evaluator; see :mod:`repro.sweep.evaluators` for what each one
    produces.
    """

    base: ScenarioSpec
    axes: "tuple[ContinuousAxis | CategoricalAxis, ...]"
    objectives: "tuple[Objective, ...]"
    constraints: "tuple[Constraint, ...]" = ()

    def __post_init__(self) -> None:
        if not self.axes:
            raise ConfigurationError("problem needs at least one axis")
        if not self.objectives:
            raise ConfigurationError("problem needs at least one objective")
        fields = [axis.field for axis in self.axes]
        if len(fields) != len(set(fields)):
            raise ConfigurationError(f"duplicate axis fields in {fields}")

    @property
    def continuous_axes(self) -> "tuple[ContinuousAxis, ...]":
        return tuple(
            a for a in self.axes if isinstance(a, ContinuousAxis)
        )


@dataclass(frozen=True)
class RefinementRound:
    """What one refinement round did (for reporting and tests)."""

    index: int
    spans: "tuple[tuple[str, float, float], ...]"
    n_scenarios: int
    n_evaluated: int
    n_cached: int
    front_size: int


#: Why a search ended: ``converged`` (span tolerance reached),
#: ``front_spans_region`` (zooming stopped shrinking — the normal end of
#: a broad multi-objective front), ``budget`` (max_rounds exhausted while
#: still shrinking), ``infeasible`` (no scenario satisfied the
#: constraints).
STOP_REASONS = (
    "converged", "front_spans_region", "budget", "infeasible",
)


class OptimizationResult:
    """Outcome of :meth:`Optimizer.run`.

    ``frontier`` is the feasible non-dominated set over *every* point
    evaluated across all rounds (best-first by the first objective);
    ``evaluated`` is the full deduplicated evaluation history, exportable
    like any sweep. ``n_evaluated`` counts fresh evaluator calls — zero
    when a warm cache replayed the whole search. ``stop_reason`` (one of
    :data:`STOP_REASONS`) records *why* the loop ended; in particular
    ``budget`` means the bounds were still shrinking when ``max_rounds``
    ran out, so a larger budget would refine further.
    """

    def __init__(
        self,
        problem: OptimizationProblem,
        rounds: "Sequence[RefinementRound]",
        evaluated: "Sequence[SweepResult]",
        frontier: "Sequence[SweepResult]",
        converged: bool,
        final_spans: "dict[str, tuple[float, float]] | None" = None,
        stop_reason: str = "budget",
    ) -> None:
        self.problem = problem
        self.rounds = tuple(rounds)
        self.evaluated = SweepResults(evaluated)
        self.frontier = SweepResults(frontier)
        self.converged = converged
        self.stop_reason = stop_reason
        self._final_spans = dict(final_spans or {})

    @property
    def best(self) -> "SweepResult | None":
        """The incumbent: first frontier point (None if infeasible)."""
        return self.frontier[0] if len(self.frontier) else None

    @property
    def n_evaluated(self) -> int:
        """Fresh evaluator calls performed across all rounds."""
        return sum(r.n_evaluated for r in self.rounds)

    @property
    def n_cached(self) -> int:
        """Evaluations answered by the cache across all rounds."""
        return sum(r.n_cached for r in self.rounds)

    @property
    def final_spans(self) -> "dict[str, tuple[float, float]]":
        """Post-zoom bounds of each continuous axis when the search
        stopped — the interval the optimum was bracketed into."""
        return dict(self._final_spans)


class Optimizer:
    """Runs the coarse-grid -> zoom -> converge loop for one problem.

    Parameters
    ----------
    problem:
        What to search, improve and respect.
    runner:
        The sweep runner every round goes through. Pass one built on a
        directory-backed :class:`~repro.store.ResultStore` to make
        the whole search resumable and replayable; defaults to a fresh
        in-memory runner.
    max_rounds:
        Refinement-round budget (the coarse pass is round 1).
    tolerance:
        Relative span (per continuous axis, against its original bounds)
        below which the search declares convergence.
    """

    def __init__(
        self,
        problem: OptimizationProblem,
        runner: "SweepRunner | None" = None,
        max_rounds: int = 5,
        tolerance: float = 0.05,
    ) -> None:
        check_count("max_rounds", max_rounds)
        if not 0.0 < tolerance < 1.0:
            raise ConfigurationError("tolerance must be in (0, 1)")
        self.problem = problem
        self.runner = runner if runner is not None else SweepRunner()
        self.max_rounds = max_rounds
        self.tolerance = tolerance

    # -- internals -------------------------------------------------------------

    def _grid(
        self, spans: "dict[str, tuple[float, float]]"
    ) -> SweepGrid:
        axes = []
        for axis in self.problem.axes:
            if isinstance(axis, ContinuousAxis):
                lo, hi = spans[axis.field]
                axes.append((axis.field, tuple(axis.values(lo, hi))))
            else:
                axes.append((axis.field, tuple(axis.values)))
        return SweepGrid(tuple(axes))

    @staticmethod
    def _zoom(
        axis: ContinuousAxis,
        span: "tuple[float, float]",
        front: "Sequence[SweepResult]",
        seen_values: "Sequence[float]",
    ) -> "tuple[float, float]":
        """Contract one axis to the grid neighbours bracketing the front."""
        front_values = [getattr(r.spec, axis.field) for r in front]
        v_min, v_max = min(front_values), max(front_values)
        below = [v for v in seen_values if v < v_min]
        above = [v for v in seen_values if v > v_max]
        lo = max(below) if below else v_min
        hi = min(above) if above else v_max
        # Never expand beyond the current span or the original bounds.
        lo = max(lo, span[0], axis.lo)
        hi = min(hi, span[1], axis.hi)
        if not lo < hi:  # front collapsed onto a single sampled value
            return span
        return lo, hi

    # -- public API -------------------------------------------------------------

    def run(self) -> OptimizationResult:
        """Execute the refinement loop; see the module docstring."""
        problem = self.problem
        spans = {
            axis.field: (axis.lo, axis.hi)
            for axis in problem.continuous_axes
        }
        evaluated: "dict[str, SweepResult]" = {}
        rounds: "list[RefinementRound]" = []
        frontier: "list[SweepResult]" = []
        converged = False
        stop_reason = "budget"

        for index in range(1, self.max_rounds + 1):
            grid = self._grid(spans)
            specs = grid.expand(problem.base)
            misses_before = self.runner.cache.misses
            hits_before = self.runner.cache.hits
            with obs.span("opt.round", index=index, scenarios=len(specs)):
                results = self.runner.run(specs)
            obs.inc("opt.rounds")
            obs.inc(
                "opt.evaluations", self.runner.cache.misses - misses_before
            )
            obs.inc("opt.cache_hits", self.runner.cache.hits - hits_before)
            for result in results:
                evaluated.setdefault(result.spec.cache_key(), result)

            history = list(evaluated.values())
            frontier = pareto_front(
                history, problem.objectives, problem.constraints
            )
            rounds.append(RefinementRound(
                index=index,
                spans=tuple(
                    (field, lo, hi) for field, (lo, hi) in spans.items()
                ),
                n_scenarios=len(specs),
                n_evaluated=self.runner.cache.misses - misses_before,
                n_cached=self.runner.cache.hits - hits_before,
                front_size=len(frontier),
            ))
            if not frontier:
                stop_reason = "infeasible"
                break  # fully infeasible: refining blind helps nobody

            new_spans: "dict[str, tuple[float, float]]" = {}
            for axis in problem.continuous_axes:
                seen = sorted({
                    float(getattr(r.spec, axis.field)) for r in history
                })
                new_spans[axis.field] = self._zoom(
                    axis, spans[axis.field], frontier, seen
                )
            shrank = any(
                new_spans[f] != spans[f] for f in new_spans
            )
            spans = new_spans
            if all(
                axis.span_fraction(*spans[axis.field]) <= self.tolerance
                for axis in problem.continuous_axes
            ):
                converged = True
                stop_reason = "converged"
                break
            if not shrank:
                # The front spans the whole region; the grid is as tight
                # as bracketing can make it.
                stop_reason = "front_spans_region"
                break

        return OptimizationResult(
            problem=problem,
            rounds=rounds,
            evaluated=list(evaluated.values()),
            frontier=frontier,
            converged=converged,
            final_spans=spans,
            stop_reason=stop_reason,
        )
