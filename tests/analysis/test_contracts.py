"""RPL3xx contract rules against a synthetic package with seeded drift
on every surface (dead field, unknown-field refs, typo'd attribute read,
evaluator registry drift, stale CLI help, stale docs)."""

from pathlib import Path

import pytest

from repro.analysis.contracts import contract_findings, find_package_root

SPEC = '''\
from dataclasses import dataclass


@dataclass(frozen=True)
class ScenarioSpec:
    evaluator: str = "good"
    flow_ml_min: float = 50.0
    dead_field: float = 0.0
    label: str = ""

    def cache_key(self) -> str:
        return self.label
'''

EVALUATORS = '''\
from pkg.sweep.spec import ScenarioSpec


def register_evaluator(name):
    def wrap(function):
        return function
    return wrap


@register_evaluator("good")
def evaluate_good(spec: ScenarioSpec) -> float:
    return spec.flow_ml_min + spec.missing_attr


@register_evaluator("orphan")
def evaluate_orphan(spec: ScenarioSpec) -> float:
    return spec.flow_ml_min
'''

SWEEP_PRESETS = '''\
from pkg.sweep.spec import ScenarioSpec


def SweepPreset(**kwargs):
    return kwargs


ALPHA = SweepPreset(
    name="alpha",
    base=ScenarioSpec(flow_ml_min=25.0, bogus_field=1.0, evaluator="ghost"),
)
'''

OPT_PRESETS = '''\
def OptimizationPreset(**kwargs):
    return kwargs


def ContinuousAxis(field, lo, hi):
    return (field, lo, hi)


BETA = OptimizationPreset(
    name="beta",
    axes=[ContinuousAxis("flow_ml_min", 10.0, 90.0),
          ContinuousAxis("nope", 0.0, 1.0)],
)
'''

CLI = '''\
def build(commands):
    sweep = commands.add_parser("sweep")
    sweep.add_argument("preset", help="alpha (see --list)")
    optimize = commands.add_parser("optimize")
    optimize.add_argument("preset", help="pick a study")
    return sweep, optimize
'''


@pytest.fixture
def synthetic_repo(tmp_path: Path) -> "tuple[Path, Path]":
    package = tmp_path / "src" / "pkg"
    for relative, content in {
        "sweep/spec.py": SPEC,
        "sweep/evaluators.py": EVALUATORS,
        "sweep/presets.py": SWEEP_PRESETS,
        "opt/presets.py": OPT_PRESETS,
        "cli.py": CLI,
    }.items():
        target = package / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "cli.md").write_text(
        "# CLI\n\nSweep presets: alpha.\n"
    )
    return package, tmp_path


def test_find_package_root(synthetic_repo):
    package, root = synthetic_repo
    assert find_package_root([str(package)]) == package
    assert find_package_root([str(package / "cli.py")]) == package
    assert find_package_root([str(root / "docs")]) is None


def test_every_contract_rule_fires(synthetic_repo):
    package, root = synthetic_repo
    findings = contract_findings(package, root)
    by_code = {}
    for finding in findings:
        by_code.setdefault(finding.code, []).append(finding)

    [dead] = by_code["RPL301"]
    assert "dead_field" in dead.message
    assert dead.path == "src/pkg/sweep/spec.py"

    unknown = {f.message for f in by_code["RPL302"]}
    assert any("bogus_field" in m for m in unknown)
    assert any("nope" in m for m in unknown)

    [typo] = by_code["RPL303"]
    assert "missing_attr" in typo.message
    assert typo.path == "src/pkg/sweep/evaluators.py"

    drift = {f.message for f in by_code["RPL304"]}
    assert any("ghost" in m and "never registered" in m for m in drift)
    assert any("orphan" in m and "registered but nothing" in m for m in drift)

    stale = [f for f in by_code["RPL305"]]
    optimize_help = [f for f in stale if "optimize" in f.message]
    docs = [f for f in stale if f.path == "docs/cli.md"]
    assert optimize_help and "beta" in optimize_help[0].message
    assert docs and "beta" in docs[0].message
    # The sweep help mentions alpha: no finding against it.
    assert not any(
        "'sweep'" in f.message for f in stale if f.path.endswith("cli.py")
    )


def test_clean_package_has_no_contract_findings(synthetic_repo):
    package, root = synthetic_repo
    # Repair every seeded drift, then expect silence.
    (package / "sweep" / "spec.py").write_text(SPEC.replace(
        "    dead_field: float = 0.0\n", ""
    ))
    (package / "sweep" / "evaluators.py").write_text(
        EVALUATORS
        .replace(" + spec.missing_attr", "")
        .replace('@register_evaluator("orphan")', "")
        .replace("def evaluate_orphan", "def _helper")
    )
    (package / "sweep" / "presets.py").write_text(
        SWEEP_PRESETS.replace(" bogus_field=1.0,", "").replace(
            '"ghost"', '"good"'
        )
    )
    (package / "opt" / "presets.py").write_text(OPT_PRESETS.replace(
        ',\n          ContinuousAxis("nope", 0.0, 1.0)', ""
    ))
    (package / "cli.py").write_text(CLI.replace(
        'help="pick a study"', 'help="beta (see --list)"'
    ))
    (package.parent.parent / "docs" / "cli.md").write_text(
        "# CLI\n\nSweep presets: alpha. Optimize presets: beta.\n"
    )
    assert contract_findings(package, package.parent.parent) == []


BATCH_EVALUATOR = '''

@register_evaluator("batch")
def evaluate_batch(specs: "Sequence[ScenarioSpec]") -> list:
    values = [spec.dead_field for spec in specs]
    for item in specs:
        values.append(item.typo_attr)
    return values
'''


def test_loop_variables_over_a_spec_sequence_are_specs(synthetic_repo):
    """A batch evaluator's reads through ``for spec in specs`` count."""
    package, root = synthetic_repo
    (package / "sweep" / "evaluators.py").write_text(
        EVALUATORS + BATCH_EVALUATOR
    )
    findings = contract_findings(package, root)
    assert not any(f.code == "RPL301" for f in findings)
    typos = {
        f.message for f in findings
        if f.code == "RPL303" and f.path == "src/pkg/sweep/evaluators.py"
    }
    assert any("typo_attr" in message for message in typos)


OBS_INIT = '''\
COUNTER_NAMES = (
    "engine.stale_counter",
    "engine.steps",
)
'''

OBS_USER = '''\
from pkg import obs


def run():
    with obs.span("engine.run", lanes=1):
        obs.inc("engine.steps")
    obs.inc("engine.undocumented")
    obs.inc("engine.builds", warm=True)
    obs.observe("engine.batch.size", 4)
    obs.gauge("engine.lanes", 2.0)
'''

OBS_DOCS = '''\
# Observability

## Signal catalog

### Counters

| name | meaning |
| --- | --- |
| `engine.steps` | steps executed |
| `engine.ghost` | tabled but never emitted |

### Warm counters

| name | meaning |
| --- | --- |
| `engine.builds` | warm-path builds |

### Histograms

| name | sample |
| --- | --- |
| `engine.batch.size` | batch width |

### Gauges

| name | meaning |
| --- | --- |
| `engine.lanes` | lane count |

### Spans

| name | around |
| --- | --- |
| `engine.run` | one run |

## Appendix

Tables outside the catalog region are ignored:

| name | meaning |
| --- | --- |
| `engine.outside` | not a catalog entry |
'''


@pytest.fixture
def obs_repo(synthetic_repo) -> "tuple[Path, Path]":
    package, root = synthetic_repo
    (package / "obs").mkdir()
    (package / "obs" / "__init__.py").write_text(OBS_INIT)
    (package / "engine.py").write_text(OBS_USER)
    (root / "docs" / "observability.md").write_text(OBS_DOCS)
    return package, root


class TestObsCatalogRule:
    def _findings(self, package, root):
        return [
            f for f in contract_findings(package, root)
            if f.code == "RPL306"
        ]

    def test_skipped_without_catalog_docs(self, synthetic_repo):
        package, root = synthetic_repo
        assert self._findings(package, root) == []

    def test_every_drift_direction_fires(self, obs_repo):
        package, root = obs_repo
        messages = [f.message for f in self._findings(package, root)]
        # Code -> docs: a signal the catalog does not table.
        assert any(
            "engine.undocumented" in m and "missing from" in m
            and "catalog" in m for m in messages
        )
        # Docs -> code: a catalog row nothing emits.
        assert any(
            "engine.ghost" in m and "no obs" in m for m in messages
        )
        # Counter preload drift, both directions.
        assert any(
            "engine.undocumented" in m and "COUNTER_NAMES" in m
            for m in messages
        )
        assert any(
            "engine.stale_counter" in m and "no non-warm" in m
            for m in messages
        )
        # Warm counters are exempt from the COUNTER_NAMES preload.
        assert not any(
            "engine.builds" in m and "COUNTER_NAMES" in m for m in messages
        )
        # Tables outside the catalog heading do not count as entries.
        assert not any("engine.outside" in m for m in messages)

    def test_consistent_surfaces_are_silent(self, obs_repo):
        package, root = obs_repo
        (package / "engine.py").write_text(
            OBS_USER.replace('    obs.inc("engine.undocumented")\n', "")
        )
        (package / "obs" / "__init__.py").write_text(
            OBS_INIT.replace('    "engine.stale_counter",\n', "")
        )
        (root / "docs" / "observability.md").write_text(
            OBS_DOCS.replace(
                "| `engine.ghost` | tabled but never emitted |\n", ""
            )
        )
        assert self._findings(package, root) == []

    def test_docs_finding_points_at_the_catalog_row(self, obs_repo):
        package, root = obs_repo
        [docs_finding] = [
            f for f in self._findings(package, root)
            if f.path == "docs/observability.md"
        ]
        lines = OBS_DOCS.splitlines()
        assert "engine.ghost" in lines[docs_finding.line - 1]


def test_referenced_evaluator_via_spec_default(synthetic_repo):
    package, root = synthetic_repo
    findings = contract_findings(package, root)
    # "good" is referenced by the spec's own evaluator default: it must
    # not appear in any RPL304 message about missing references.
    assert not any(
        f.code == "RPL304" and "'good'" in f.message for f in findings
    )
