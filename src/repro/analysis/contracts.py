"""Spec/evaluator/preset/CLI/docs contract rules (RPL3xx).

:class:`~repro.sweep.spec.ScenarioSpec` is the repo's central contract:
evaluators read its fields, presets set them, the CLI names them and the
docs table them. Nothing enforces that those five surfaces agree — a
renamed field leaves dead presets, a new preset leaves stale CLI help.
These checks parse the surfaces (pure AST + text, nothing is imported)
and flag drift:

- **RPL301** — a spec field no evaluator ever reads (dead weight in
  every cache key).
- **RPL302** — a preset/axis/constructor referencing a field the spec
  does not have.
- **RPL303** — an evaluator reading an attribute the spec does not
  define (typo guard: ``spec.total_flow_ml_min`` vs ``total_flow_ml``).
- **RPL304** — ``evaluator=`` names nobody registered, and registered
  evaluators nothing references.
- **RPL305** — preset names missing from the CLI's own help text or
  from ``docs/cli.md``.
- **RPL306** — observability signal names (``obs.inc``/``obs.span``/
  ``obs.observe``/``obs.gauge`` literals) drifting from the signal
  catalog in ``docs/observability.md`` or from ``obs.COUNTER_NAMES``.

Everything degrades gracefully: a check whose anchor file is missing
(e.g. linting a single module) is skipped, not failed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.core import Finding, Suppressions, register_rule

RPL301 = register_rule("RPL301", "ScenarioSpec field no evaluator reads")
RPL302 = register_rule(
    "RPL302", "preset/axis/constructor references an unknown spec field"
)
RPL303 = register_rule(
    "RPL303", "evaluator reads an attribute ScenarioSpec does not define"
)
RPL304 = register_rule(
    "RPL304", "evaluator name drift between registry and references"
)
RPL305 = register_rule(
    "RPL305", "preset name missing from CLI help or docs tables"
)
RPL306 = register_rule(
    "RPL306", "observability signal name drift between code and docs catalog"
)

#: The facade methods whose first literal argument is a signal name.
_OBS_METHODS = frozenset({"inc", "observe", "gauge", "span"})

#: A dotted lowercase signal name (``thermal.steady.reanchors``) — what
#: distinguishes catalog entries from other backticked code in the docs.
_OBS_NAME = re.compile(r"^[a-z0-9_]+(?:\.[a-z0-9_]+)+$")

#: Fields that are structurally special: ``label`` is cosmetic metadata,
#: ``evaluator`` is the dispatch key itself.
_STRUCTURAL_FIELDS = frozenset({"label", "evaluator"})


def find_package_root(paths: "Sequence[str | Path]") -> "Path | None":
    """The ``repro`` package directory covered by the linted paths, i.e.
    the directory that contains ``sweep/spec.py``."""
    for raw in paths:
        path = Path(raw)
        candidates = [path] if path.is_dir() else [path.parent]
        candidates += [p for p in path.resolve().parents]
        for candidate in candidates:
            if (candidate / "sweep" / "spec.py").is_file():
                return candidate
    return None


def _parse(path: Path) -> "ast.Module | None":
    try:
        return ast.parse(path.read_text(), filename=str(path))
    except (OSError, SyntaxError):
        return None


def _constant_str(node: ast.AST) -> "str | None":
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _call_name(node: ast.Call) -> "str | None":
    """Trailing identifier of the called function: ``a.b.C(...)`` -> C."""
    function = node.func
    if isinstance(function, ast.Attribute):
        return function.attr
    if isinstance(function, ast.Name):
        return function.id
    return None


@dataclass
class _Surfaces:
    """Everything the contract rules compare, collected in one pass."""

    spec_fields: "set[str]" = field(default_factory=set)
    spec_methods: "set[str]" = field(default_factory=set)
    registered_evaluators: "dict[str, tuple[str, int]]" = field(
        default_factory=dict
    )
    #: evaluator name -> first reference site (evaluator= kwarg or the
    #: spec's own default).
    referenced_evaluators: "dict[str, tuple[str, int]]" = field(
        default_factory=dict
    )
    #: field name -> read sites on ScenarioSpec-annotated parameters.
    field_reads: "set[str]" = field(default_factory=set)
    #: (field name, path, line) for every field reference a preset or
    #: constructor makes.
    field_references: "list[tuple[str, str, int]]" = field(
        default_factory=list
    )
    #: (attribute, path, line) reads on ScenarioSpec-annotated params.
    attribute_reads: "list[tuple[str, str, int]]" = field(
        default_factory=list
    )
    #: (method, signal name, warm?, path, line) for every literal-named
    #: ``obs.<method>(...)`` call site.
    obs_calls: "list[tuple[str, str, bool, str, int]]" = field(
        default_factory=list
    )


def _spec_param_names(node: "ast.FunctionDef | ast.AsyncFunctionDef") -> "set[str]":
    """Names in ``node`` that hold one ScenarioSpec: parameters annotated
    as one (by name or ``"quoted"`` forward reference), and the loop
    variables of ``for``s and comprehensions over a parameter annotated
    as a sequence of them (``specs: "Sequence[ScenarioSpec]"``)."""
    names: "set[str]" = set()
    sequences: "set[str]" = set()
    arguments = node.args
    for argument in (
        arguments.posonlyargs + arguments.args + arguments.kwonlyargs
    ):
        annotation = argument.annotation
        text = None
        if isinstance(annotation, ast.Name):
            text = annotation.id
        elif isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            text = annotation.value
        elif annotation is not None:
            text = ast.unparse(annotation)
        if text is None:
            continue
        if _is_spec_annotation(text):
            names.add(argument.arg)
        elif _is_spec_sequence_annotation(text):
            sequences.add(argument.arg)
    for child in ast.walk(node):
        if (
            isinstance(child, (ast.For, ast.AsyncFor, ast.comprehension))
            and isinstance(child.iter, ast.Name)
            and child.iter.id in sequences
            and isinstance(child.target, ast.Name)
        ):
            names.add(child.target.id)
    return names


def _is_spec_sequence_annotation(text: str) -> bool:
    """True when the annotation is a ``Sequence``/``list``/``tuple`` of
    ScenarioSpec and nothing else (a ``... | SweepGrid`` union is not)."""
    text = text.strip().strip("'\"").replace(" ", "")
    return text in (
        "Sequence[ScenarioSpec]", "list[ScenarioSpec]", "List[ScenarioSpec]",
        "tuple[ScenarioSpec,...]", "Iterable[ScenarioSpec]",
    )


def _is_spec_annotation(text: str) -> bool:
    """True only when the annotation *is* a ScenarioSpec — plain, dotted,
    or optional — not when ScenarioSpec merely appears inside a generic
    (``Sequence[ScenarioSpec] | SweepGrid`` is a sequence, and reading
    ``.expand()`` on it is legal)."""
    parts = [
        part.strip().strip("'\"")
        for part in text.strip().strip("'\"").split("|")
    ]
    parts = [part for part in parts if part and part != "None"]
    return bool(parts) and all(
        part == "ScenarioSpec" or part.endswith(".ScenarioSpec")
        or part in ("Optional[ScenarioSpec]",)
        for part in parts
    )


class _FileCollector(ast.NodeVisitor):
    """One pass over one module, feeding the shared surfaces."""

    def __init__(self, surfaces: _Surfaces, shown_path: str) -> None:
        self.surfaces = surfaces
        self.path = shown_path
        self._spec_params: "list[set[str]]" = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name == "ScenarioSpec":
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    if not statement.target.id.startswith("_"):
                        self.surfaces.spec_fields.add(statement.target.id)
                elif isinstance(
                    statement, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    self.surfaces.spec_methods.add(statement.name)
        self.generic_visit(node)

    def _visit_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        for decorator in node.decorator_list:
            if (
                isinstance(decorator, ast.Call)
                and _call_name(decorator) == "register_evaluator"
                and decorator.args
            ):
                name = _constant_str(decorator.args[0])
                if name is not None:
                    self.surfaces.registered_evaluators.setdefault(
                        name, (self.path, decorator.lineno)
                    )
        self._spec_params.append(_spec_param_names(node))
        self.generic_visit(node)
        self._spec_params.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and any(
            node.value.id in params for params in self._spec_params
        ):
            self.surfaces.field_reads.add(node.attr)
            self.surfaces.attribute_reads.append(
                (node.attr, self.path, node.lineno)
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in ("ScenarioSpec", "replace") or name == "from_dict":
            self._collect_field_keywords(node, name)
        if name in ("ContinuousAxis", "CategoricalAxis") and node.args:
            axis_field = _constant_str(node.args[0])
            if axis_field is not None:
                self.surfaces.field_references.append(
                    (axis_field, self.path, node.args[0].lineno)
                )
        for keyword in node.keywords:
            if keyword.arg == "evaluator":
                value = _constant_str(keyword.value)
                if value is not None:
                    self.surfaces.referenced_evaluators.setdefault(
                        value, (self.path, keyword.value.lineno)
                    )
        self._collect_obs_call(node)
        self.generic_visit(node)

    def _collect_obs_call(self, node: ast.Call) -> None:
        """``obs.inc("name", ...)`` and friends: the literal first
        argument is a signal name under the RPL306 catalog contract."""
        function = node.func
        if not (
            isinstance(function, ast.Attribute)
            and function.attr in _OBS_METHODS
            and isinstance(function.value, ast.Name)
            and function.value.id == "obs"
            and node.args
        ):
            return
        signal = _constant_str(node.args[0])
        if signal is None:
            return
        warm = any(
            keyword.arg == "warm"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in node.keywords
        )
        self.surfaces.obs_calls.append(
            (function.attr, signal, warm, self.path, node.lineno)
        )

    def _collect_field_keywords(self, node: ast.Call, name: str) -> None:
        if name == "from_dict":
            # SweepGrid.from_dict({...}): literal dict keys are fields.
            if node.args and isinstance(node.args[0], ast.Dict):
                for key in node.args[0].keys:
                    text = _constant_str(key) if key is not None else None
                    if text is not None:
                        self.surfaces.field_references.append(
                            (text, self.path, key.lineno)
                        )
            return
        if name == "replace" and not self._looks_like_spec_replace(node):
            return
        for keyword in node.keywords:
            if keyword.arg is not None:
                self.surfaces.field_references.append(
                    (keyword.arg, self.path, node.lineno)
                )

    def _looks_like_spec_replace(self, node: ast.Call) -> bool:
        """Only ``<spec-ish>.replace(...)`` counts: the receiver is a
        ScenarioSpec-annotated parameter, a ``base``/``spec`` name, or a
        ``.base``/``.spec`` attribute (dataclasses.replace is ignored)."""
        function = node.func
        if not isinstance(function, ast.Attribute):
            return False
        receiver = function.value
        if isinstance(receiver, ast.Name):
            return receiver.id in ("base", "spec") or any(
                receiver.id in params for params in self._spec_params
            )
        if isinstance(receiver, ast.Attribute):
            return receiver.attr in ("base", "spec")
        return False


def _cli_preset_help_findings(
    package: Path, shown: "dict[Path, str]",
    sweep_presets: "set[str]", opt_presets: "set[str]",
) -> "Iterable[Finding]":
    """RPL305: the ``preset`` positional's help text in ``cli.py`` must
    mention every preset of the matching family."""
    cli_path = package / "cli.py"
    tree = _parse(cli_path)
    if tree is None:
        return
    families = {"sweep": sweep_presets, "optimize": opt_presets}
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and node.args
            and _constant_str(node.args[0]) == "preset"
            and isinstance(node.func.value, ast.Name)
        ):
            continue
        presets = families.get(node.func.value.id)
        if not presets:
            continue
        help_text = ""
        for keyword in node.keywords:
            if keyword.arg == "help":
                help_text = _joined_str_text(keyword.value)
        missing = sorted(name for name in presets if name not in help_text)
        if missing:
            yield Finding(
                shown[cli_path], node.lineno, node.col_offset + 1, RPL305,
                f"{node.func.value.id!r} preset help text does not mention "
                f"preset(s) {', '.join(missing)}",
            )


def _joined_str_text(node: ast.AST) -> str:
    """Concatenated text of a string constant or implicit concatenation
    (the AST folds adjacent literals into one Constant already)."""
    text = _constant_str(node)
    if text is not None:
        return text
    if isinstance(node, ast.JoinedStr):
        return "".join(
            _constant_str(value) or "" for value in node.values
        )
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _joined_str_text(node.left) + _joined_str_text(node.right)
    return ""


def _obs_catalog(docs_path: Path) -> "dict[str, int] | None":
    """Signal names tabled in the docs catalog: the first backticked
    dotted name of every table row under a heading containing
    "catalog", until the next heading at that level or higher. Returns
    ``None`` when the docs file is absent (skip, not fail)."""
    if not docs_path.is_file():
        return None
    names: "dict[str, int]" = {}
    in_catalog = False
    catalog_level = 0
    for lineno, line in enumerate(docs_path.read_text().splitlines(), 1):
        heading = re.match(r"^(#{1,6})\s+(.*)", line)
        if heading is not None:
            level = len(heading.group(1))
            if "catalog" in heading.group(2).lower():
                in_catalog, catalog_level = True, level
            elif in_catalog and level <= catalog_level:
                in_catalog = False
            continue
        if not in_catalog or not line.lstrip().startswith("|"):
            continue
        cells = line.split("|")
        if len(cells) < 2:
            continue
        backticked = re.match(r"^`([^`]+)`$", cells[1].strip())
        if backticked is not None and _OBS_NAME.match(backticked.group(1)):
            names.setdefault(backticked.group(1), lineno)
    return names


def _counter_names_declaration(package: Path) -> "tuple[set[str], int]":
    """The literal contents (and line) of ``obs.COUNTER_NAMES``."""
    tree = _parse(package / "obs" / "__init__.py")
    if tree is None:
        return set(), 1
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name)
                and target.id == "COUNTER_NAMES"
                for target in node.targets
            )
            and isinstance(node.value, ast.Tuple)
        ):
            names = set()
            for element in node.value.elts:
                value = _constant_str(element)
                if value is not None:
                    names.add(value)
            return names, node.lineno
    return set(), 1


def _obs_signal_findings(
    package: Path, root: Path, surfaces: _Surfaces,
    shown: "dict[Path, str]",
) -> "Iterable[Finding]":
    """RPL306: code signal names vs the docs catalog (both directions),
    plus ``obs.COUNTER_NAMES`` vs the non-warm ``obs.inc`` sites."""
    catalog = _obs_catalog(root / "docs" / "observability.md")
    if catalog is None or not surfaces.obs_calls:
        return
    first_site: "dict[str, tuple[str, int]]" = {}
    for _, signal, _, path, line in surfaces.obs_calls:
        first_site.setdefault(signal, (path, line))
    for signal, (path, line) in sorted(first_site.items()):
        if signal not in catalog:
            yield Finding(
                path, line, 1, RPL306,
                f"observability signal {signal!r} is missing from the "
                "docs/observability.md catalog",
            )
    for signal, line in sorted(catalog.items()):
        if signal not in first_site:
            yield Finding(
                "docs/observability.md", line, 1, RPL306,
                f"catalog signal {signal!r} has no obs.inc/observe/"
                "gauge/span call site in the code",
            )
    declared, declaration_line = _counter_names_declaration(package)
    obs_init = package / "obs" / "__init__.py"
    obs_init_shown = shown.get(obs_init, obs_init.as_posix())
    incremented = {
        signal
        for method, signal, warm, _, _ in surfaces.obs_calls
        if method == "inc" and not warm
    }
    for signal in sorted(incremented - declared):
        yield Finding(
            obs_init_shown, declaration_line, 1, RPL306,
            f"counter {signal!r} is incremented but missing from "
            "obs.COUNTER_NAMES (its zero-preload)",
        )
    for signal in sorted(declared - incremented):
        yield Finding(
            obs_init_shown, declaration_line, 1, RPL306,
            f"obs.COUNTER_NAMES lists {signal!r} but no non-warm "
            "obs.inc call site uses it",
        )


def _preset_names(path: Path, constructor: str) -> "set[str]":
    """``name="..."`` keywords of SweepPreset/OptimizationPreset calls."""
    tree = _parse(path)
    names: "set[str]" = set()
    if tree is None:
        return names
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _call_name(node) == constructor:
            for keyword in node.keywords:
                if keyword.arg == "name":
                    value = _constant_str(keyword.value)
                    if value is not None:
                        names.add(value)
    return names


def contract_findings(
    package: Path, root: "Path | None" = None
) -> "list[Finding]":
    """All RPL3xx findings for the ``repro`` package at ``package``.

    ``root`` controls how paths are shown (repo-relative when given).
    Suppression comments in the reported files apply as usual.
    """
    root = root if root is not None else package.parent.parent

    def shown_name(path: Path) -> str:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    files = sorted(package.rglob("*.py"))
    shown = {path: shown_name(path) for path in files}
    surfaces = _Surfaces()
    spec_path = package / "sweep" / "spec.py"
    for path in files:
        tree = _parse(path)
        if tree is not None:
            _FileCollector(surfaces, shown[path]).visit(tree)
    if not surfaces.spec_fields:
        return []

    findings: "list[Finding]" = []

    # The spec's own evaluator default references that evaluator.
    spec_tree = _parse(spec_path)
    if spec_tree is not None:
        for node in ast.walk(spec_tree):
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == "evaluator"
                and node.value is not None
            ):
                default = _constant_str(node.value)
                if default is not None:
                    surfaces.referenced_evaluators.setdefault(
                        default, (shown[spec_path], node.lineno)
                    )

    # RPL301 — fields nobody reads.
    dead = (
        surfaces.spec_fields - surfaces.field_reads - _STRUCTURAL_FIELDS
    )
    for name in sorted(dead):
        findings.append(Finding(
            shown[spec_path], _field_line(spec_tree, name), 1, RPL301,
            f"spec field {name!r} is never read by any evaluator",
        ))

    # RPL302 — references to unknown fields.
    for name, path, line in surfaces.field_references:
        if name not in surfaces.spec_fields:
            findings.append(Finding(
                path, line, 1, RPL302,
                f"unknown spec field {name!r} referenced here",
            ))

    # RPL303 — attribute reads the spec does not define.
    known = (
        surfaces.spec_fields
        | surfaces.spec_methods
        | {"__class__", "__dict__"}
    )
    for attribute, path, line in surfaces.attribute_reads:
        if attribute not in known:
            findings.append(Finding(
                path, line, 1, RPL303,
                f"ScenarioSpec has no attribute {attribute!r}",
            ))

    # RPL304 — evaluator registry vs references, both directions.
    for name, (path, line) in sorted(surfaces.referenced_evaluators.items()):
        if name not in surfaces.registered_evaluators:
            findings.append(Finding(
                path, line, 1, RPL304,
                f"evaluator {name!r} is referenced but never registered",
            ))
    for name, (path, line) in sorted(surfaces.registered_evaluators.items()):
        if name not in surfaces.referenced_evaluators:
            findings.append(Finding(
                path, line, 1, RPL304,
                f"evaluator {name!r} is registered but nothing "
                "references it (no preset base, spec default or "
                "evaluator= call)",
            ))

    # RPL305 — CLI help and docs tables.
    sweep_presets = _preset_names(
        package / "sweep" / "presets.py", "SweepPreset"
    )
    opt_presets = _preset_names(
        package / "opt" / "presets.py", "OptimizationPreset"
    )
    findings.extend(_cli_preset_help_findings(
        package, shown, sweep_presets, opt_presets
    ))
    docs_cli = root / "docs" / "cli.md"
    if docs_cli.is_file():
        text = docs_cli.read_text()
        for family, names in (
            ("sweep", sweep_presets), ("optimize", opt_presets)
        ):
            missing = sorted(n for n in names if n not in text)
            if missing:
                findings.append(Finding(
                    "docs/cli.md", 1, 1, RPL305,
                    f"{family} preset(s) {', '.join(missing)} not "
                    "documented here",
                ))

    # RPL306 — observability signal names vs the docs catalog.
    findings.extend(_obs_signal_findings(package, root, surfaces, shown))

    # Respect suppression comments in the files findings point into.
    suppressions: "dict[str, Suppressions]" = {}
    for path, name in shown.items():
        try:
            suppressions[name] = Suppressions.scan(path.read_text())
        except OSError:
            pass
    return sorted(
        finding for finding in findings
        if not (
            finding.path in suppressions
            and suppressions[finding.path].hides(finding)
        )
    )


def _field_line(tree: "ast.Module | None", field_name: str) -> int:
    if tree is None:
        return 1
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == field_name
        ):
            return node.lineno
    return 1
