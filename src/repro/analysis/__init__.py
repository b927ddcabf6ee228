"""Custom AST static analysis guarding the repo's correctness contracts.

The library's headline guarantees — byte-identical sweep/fleet exports
across runs, unit-suffixed physical quantities flowing
through every layer, and a :class:`~repro.sweep.spec.ScenarioSpec` whose
fields, presets, evaluators, CLI and docs agree — are runtime-tested,
but a single unsorted container iteration or mismatched-unit expression
can land silently and only surface later as a flaky golden. This package
checks those invariants *before* the code runs, the way a training stack
wires race detectors into CI.

Four rule families (catalog in ``docs/static-analysis.md``):

- **RPL1xx determinism** — unseeded global RNGs, wall-clock reads,
  unsorted filesystem/set iteration, unsorted ``json.dumps``, hashes
  built from unordered containers (:mod:`repro.analysis.determinism`).
- **RPL2xx units** — the ``*_w`` / ``*_c`` / ``*_ml_min`` suffix
  convention of :mod:`repro.units`: no mixed-suffix arithmetic, no
  cross-unit assignment without a conversion call, no public numeric
  parameters missing a suffix (:mod:`repro.analysis.units`).
- **RPL3xx contracts** — cross-file drift between ``ScenarioSpec``
  fields, evaluator reads, preset definitions, CLI help and the docs
  (:mod:`repro.analysis.contracts`).
- **RPL4xx hygiene** — unused imports (:mod:`repro.analysis.hygiene`).

Run it as ``repro lint [paths]`` or ``python -m repro.analysis``;
suppress a deliberate violation inline with ``# repro-lint:
disable=RPL104`` and ratchet accepted legacy findings through
``tools/lint_ratchet.json`` (see :mod:`repro.analysis.ratchet`).
"""

from __future__ import annotations

from repro.analysis.core import (
    RULES,
    Finding,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.ratchet import Ratchet

# Importing the rule modules registers their codes in RULES, so the
# catalog (``repro lint --rules``) is complete however the package is
# entered.
from repro.analysis import contracts as _contracts  # noqa: E402,F401
from repro.analysis import determinism as _determinism  # noqa: E402,F401
from repro.analysis import hygiene as _hygiene  # noqa: E402,F401
from repro.analysis import units as _units  # noqa: E402,F401

__all__ = [
    "RULES",
    "Finding",
    "Ratchet",
    "lint_file",
    "lint_paths",
    "lint_source",
]
