"""Adaptive refinement loop: convergence, accounting, cache replay.

A synthetic quadratic evaluator stands in for the physics, so the loop's
behaviour — bracketing, zooming, stopping — is pinned exactly and the
tests stay fast.
"""

import pytest

from repro.errors import ConfigurationError
from repro.opt import (
    CategoricalAxis,
    Constraint,
    ContinuousAxis,
    Objective,
    OptimizationProblem,
    Optimizer,
)
from repro.store import ResultStore
from repro.sweep import ScenarioSpec, SweepRunner
from repro.sweep.evaluators import register_evaluator

#: Where the synthetic objective peaks (utilization axis).
OPTIMUM_U = 0.3


def _quadratic(spec: ScenarioSpec) -> "dict[str, float]":
    """score peaks at utilization OPTIMUM_U; vrm shifts it by a constant."""
    offset = {"ideal": 0.0, "sc": -1.0, "buck": -2.0}[spec.vrm]
    return {
        "score": -((spec.utilization - OPTIMUM_U) ** 2) + offset,
        "flat": 1.0,
        "u": spec.utilization,
    }


def _quadratic_batch(specs) -> "list[dict[str, float]]":
    return [_quadratic(spec) for spec in specs]


try:
    register_evaluator("opt_test_quadratic")(_quadratic_batch)
except ConfigurationError:  # already registered by a prior import
    pass


def quadratic_problem(**overrides) -> OptimizationProblem:
    settings = dict(
        base=ScenarioSpec(evaluator="opt_test_quadratic"),
        axes=(ContinuousAxis("utilization", 0.0, 1.0, points=5),),
        objectives=(Objective("score", "max"),),
        constraints=(),
    )
    settings.update(overrides)
    return OptimizationProblem(**settings)


class TestAxisValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            ContinuousAxis("bogus_field", 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            CategoricalAxis("bogus_field", ("a",))

    def test_bounds_and_points(self):
        with pytest.raises(ConfigurationError):
            ContinuousAxis("utilization", 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            ContinuousAxis("utilization", 0.0, 1.0, points=2)

    def test_log_scale_needs_positive_lo(self):
        with pytest.raises(ConfigurationError):
            ContinuousAxis("utilization", 0.0, 1.0, scale="log")
        with pytest.raises(ConfigurationError):
            ContinuousAxis("utilization", 0.1, 1.0, scale="quadratic")

    def test_categorical_needs_values(self):
        with pytest.raises(ConfigurationError):
            CategoricalAxis("vrm", ())

    def test_axis_values_scales(self):
        linear = ContinuousAxis("utilization", 0.0, 1.0, points=5)
        assert linear.values(0.0, 1.0) == [0.0, 0.25, 0.5, 0.75, 1.0]
        log = ContinuousAxis(
            "total_flow_ml_min", 10.0, 1000.0, points=3, scale="log"
        )
        assert log.values(10.0, 1000.0) == pytest.approx(
            [10.0, 100.0, 1000.0]
        )

    def test_span_fraction(self):
        linear = ContinuousAxis("utilization", 0.0, 1.0)
        assert linear.span_fraction(0.25, 0.5) == pytest.approx(0.25)
        log = ContinuousAxis(
            "total_flow_ml_min", 10.0, 1000.0, scale="log"
        )
        assert log.span_fraction(10.0, 100.0) == pytest.approx(0.5)


class TestProblemValidation:
    def test_needs_axes_and_objectives(self):
        with pytest.raises(ConfigurationError):
            quadratic_problem(axes=())
        with pytest.raises(ConfigurationError):
            quadratic_problem(objectives=())

    def test_duplicate_axis_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            quadratic_problem(axes=(
                ContinuousAxis("utilization", 0.0, 0.5),
                ContinuousAxis("utilization", 0.5, 1.0),
            ))

    def test_optimizer_validation(self):
        problem = quadratic_problem()
        with pytest.raises(ConfigurationError):
            Optimizer(problem, max_rounds=0)
        with pytest.raises(ConfigurationError):
            Optimizer(problem, tolerance=0.0)

    @pytest.mark.parametrize(
        "max_rounds", [float("nan"), float("inf"), 1.5, 2.0, "3", True]
    )
    def test_malformed_round_budget_named(self, max_rounds):
        with pytest.raises(ConfigurationError, match="max_rounds"):
            Optimizer(quadratic_problem(), max_rounds=max_rounds)


class TestRefinement:
    def test_converges_to_the_quadratic_optimum(self):
        result = Optimizer(
            quadratic_problem(), max_rounds=8, tolerance=0.02
        ).run()
        assert result.converged
        assert result.stop_reason == "converged"
        assert result.best.spec.utilization == pytest.approx(
            OPTIMUM_U, abs=0.02
        )
        lo, hi = result.final_spans["utilization"]
        assert hi - lo <= 0.02
        # Rounds shrink monotonically toward the optimum.
        spans = [dict((f, (a, b)) for f, a, b in r.spans)["utilization"]
                 for r in result.rounds]
        widths = [hi - lo for lo, hi in spans]
        assert widths == sorted(widths, reverse=True)

    def test_single_round_budget_reports_coarse_best(self):
        result = Optimizer(quadratic_problem(), max_rounds=1).run()
        assert len(result.rounds) == 1
        assert not result.converged
        assert result.stop_reason == "budget"
        # Best grid point of round 1 (0.25 on the 5-point grid).
        assert result.best.spec.utilization == pytest.approx(0.25)

    def test_infeasible_problem_stops_with_empty_frontier(self):
        problem = quadratic_problem(
            constraints=(Constraint("score", 10.0, ">="),)
        )
        result = Optimizer(problem, max_rounds=5).run()
        assert len(result.rounds) == 1  # refining blind is pointless
        assert len(result.frontier) == 0
        assert result.best is None
        assert not result.converged
        assert result.stop_reason == "infeasible"

    def test_flat_objective_stops_on_no_shrink(self):
        problem = quadratic_problem(objectives=(Objective("flat", "max"),))
        result = Optimizer(problem, max_rounds=5).run()
        assert len(result.rounds) == 1
        assert not result.converged
        assert result.stop_reason == "front_spans_region"
        # Every point ties: the whole grid is the front.
        assert len(result.frontier) == 5

    def test_categorical_axis_enumerated_every_round(self):
        problem = quadratic_problem(axes=(
            CategoricalAxis("vrm", ("ideal", "sc")),
            ContinuousAxis("utilization", 0.0, 1.0, points=5),
        ))
        result = Optimizer(problem, max_rounds=4, tolerance=0.05).run()
        # The ideal offset dominates; the optimum is the same utilization.
        assert result.best.spec.vrm == "ideal"
        assert result.best.spec.utilization == pytest.approx(
            OPTIMUM_U, abs=0.05
        )
        assert all(r.n_scenarios == 10 for r in result.rounds)

    def test_evaluation_accounting_matches_cache_counters(self):
        cache = ResultStore()
        runner = SweepRunner(cache=cache)
        result = Optimizer(
            quadratic_problem(), runner=runner, max_rounds=3
        ).run()
        assert result.n_evaluated == cache.misses
        assert result.n_cached == cache.hits
        assert len(result.evaluated) == result.n_evaluated

    def test_warm_cache_replays_with_zero_evaluations(self):
        cache = ResultStore()
        problem = quadratic_problem()
        first = Optimizer(
            problem, runner=SweepRunner(cache=cache), max_rounds=6
        ).run()
        second = Optimizer(
            problem, runner=SweepRunner(cache=cache), max_rounds=6
        ).run()
        assert first.n_evaluated > 0
        assert second.n_evaluated == 0
        assert second.n_cached > 0
        assert second.best.spec.cache_key() == first.best.spec.cache_key()
        assert [r.spans for r in second.rounds] == [
            r.spans for r in first.rounds
        ]

    def test_directory_cache_replays_across_runners(self, tmp_path):
        problem = quadratic_problem()
        first = Optimizer(
            problem,
            runner=SweepRunner(cache=ResultStore(directory=tmp_path)),
            max_rounds=4,
        ).run()
        second = Optimizer(
            problem,
            runner=SweepRunner(cache=ResultStore(directory=tmp_path)),
            max_rounds=4,
        ).run()
        assert first.n_evaluated > 0
        assert second.n_evaluated == 0

    def test_frontier_exports_like_a_sweep(self, tmp_path):
        result = Optimizer(quadratic_problem(), max_rounds=2).run()
        path = result.frontier.save_csv(tmp_path / "front.csv")
        from repro.io import load_csv

        records = load_csv(path)
        assert len(records) == len(result.frontier)
        assert "score" in records[0]
