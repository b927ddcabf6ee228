"""Serialization of configurations and results.

Reproducibility plumbing: every experiment configuration and result in the
library is a (frozen) dataclass, so one generic encoder covers them all.
Supports nested dataclasses, numpy arrays/scalars, enums and the basic
containers; output is plain JSON so runs can be archived and diffed.

Flat record tables (one dict per row, as produced by
:meth:`repro.sweep.runner.SweepResults.records`) additionally round-trip
through CSV via :func:`save_csv` / :func:`load_csv`.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import json
import os
import re
import uuid
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Types :func:`to_jsonable` returns as they are.
_PLAIN_SCALARS = frozenset({bool, int, float, str, type(None)})

#: Flat records without their ``indent=2`` frames: the C encoder with
#: the separators the indenting encoder writes inside a record.
_RECORDS_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",\n    ", ": ")
)


def write_text_atomic(path: "str | Path", text: str) -> Path:
    """Crash-safe text write: parents created, tmp + ``os.replace``.

    Matches the result store's durability contract
    (:mod:`repro.store`): a reader racing this writer — or a crash
    mid-write — sees the old file or the new file, never a torn one.
    The tmp suffix carries pid + UUID so concurrent writers (including
    pid-colliding processes on other hosts) cannot clobber each other.
    Newline translation is disabled so the bytes written are exactly
    ``text`` (CSV's ``\\r\\n`` terminators survive untouched).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f".{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex}"
    )
    with tmp.open("w", newline="") as handle:
        handle.write(text)
    os.replace(tmp, path)
    return path


def to_jsonable(value: object) -> object:
    """Recursively convert a value into JSON-encodable primitives.

    Dataclasses become dicts (with a ``__type__`` tag for provenance),
    numpy arrays become nested lists, numpy scalars (bools included)
    become Python scalars, enums become their value. Unknown object types
    are rejected rather than silently stringified.
    """
    # Plain scalars are most of what a record holds and map to themselves.
    # Exact types only: an IntEnum or a np.float64 subclasses one of them
    # and still takes its branch below.
    if type(value) in _PLAIN_SCALARS:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload = {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        payload["__type__"] = type(value).__name__
        return payload
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"cannot serialise {type(value).__name__}; add a converter or "
        "export a plain dataclass"
    )


def _is_flat_records(value: object) -> bool:
    """True for a non-empty list of non-empty, str-keyed dicts whose
    values are all plain scalars (exact types, as :data:`_PLAIN_SCALARS`)."""
    return type(value) is list and bool(value) and all(
        type(record) is dict
        and bool(record)
        and set(map(type, record)) == {str}
        and _PLAIN_SCALARS.issuperset(map(type, record.values()))
        for record in value
    )


def dumps(value: object, indent: int = 2) -> str:
    """JSON-encode any supported value.

    The text is ``json.dumps(to_jsonable(value), indent=indent,
    sort_keys=True)``, byte for byte. With an indent, ``json`` encodes in
    pure Python. So flat records, the shape of every sweep, optimize,
    runtime and fleet export, take a faster path at the default
    ``indent=2``: a non-empty list of non-empty dicts with ``str`` keys
    and values of exactly ``bool``/``int``/``float``/``str``/``None``.
    The C encoder writes them in one call with the separator the
    indenting encoder puts between a record's items, and the record
    frames are spliced in after. A string's newlines are escaped, so
    every newline is a separator's, and the separators between records
    are the ones followed by ``{``. Any other value or indent (including
    an empty list, an empty record, nested values, tuples and numpy or
    enum scalars) takes the general path.
    """
    if indent == 2 and _is_flat_records(value):
        body = _RECORDS_ENCODER.encode(value)  # '[{' ... '}]'
        return (
            "[\n  {\n    "
            + body[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
            + "\n  }\n]"
        )
    return json.dumps(to_jsonable(value), indent=indent, sort_keys=True)


def save_json(value: object, path: "str | Path") -> Path:
    """Write a value as JSON; returns the path written.

    Atomic (tmp + replace) with parent directories created on demand,
    so exports into not-yet-existing result trees just work and a
    crashed export never leaves a truncated file behind.
    """
    return write_text_atomic(path, dumps(value) + "\n")


def load_json(path: "str | Path") -> object:
    """Read back a JSON file written by :func:`save_json`."""
    return json.loads(Path(path).read_text())


#: Cell types written as they are, checked by exact type on the fast path.
_PLAIN_CELLS = frozenset((bool, int, float, str, type(None)))


def csv_dumps(
    records: "Sequence[Mapping[str, object]]",
    columns: "Sequence[str] | None" = None,
) -> str:
    """CSV-encode flat records exactly as :func:`save_csv` writes them.

    The in-memory twin of :func:`save_csv` (which is ``write_text_atomic``
    of this text): ``repro serve`` returns this string so a client-side
    write is byte-identical to an in-process export.
    """
    if columns is None:
        ordered: "dict[str, None]" = {}
        for record in records:
            ordered.update(dict.fromkeys(record))
        columns = list(ordered)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for record in records:
        row = [record.get(key) for key in columns]
        if not all(type(value) in _PLAIN_CELLS for value in row):
            row = [_cell(value, key) for value, key in zip(row, columns)]
        writer.writerow(row)
    return buffer.getvalue()


def _cell(value: object, key: str) -> object:
    """``value`` as a CSV cell: numpy scalars become Python scalars, and
    anything that is not a scalar (or None, an empty cell) is refused."""
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if value is not None and not isinstance(value, (bool, int, float, str)):
        raise ConfigurationError(
            f"CSV cells must be scalars, got {type(value).__name__} "
            f"in column {key!r}; use save_json for nested data"
        )
    return value


def save_csv(
    records: "Sequence[Mapping[str, object]]",
    path: "str | Path",
    columns: "Sequence[str] | None" = None,
) -> Path:
    """Write flat records as CSV; returns the path written.

    Columns default to the union of record keys in first-appearance order;
    an explicit ``columns`` subset projects the records (extra keys are
    dropped, whatever their type). Written values must be scalars
    (numbers, bools, strings, or None — which becomes an empty cell);
    nested structures belong in JSON via :func:`save_json`. The write is
    atomic with parent directories created on demand, like
    :func:`save_json`.
    """
    return write_text_atomic(path, csv_dumps(records, columns))


#: Canonical integer form as str() emits it: no underscores, no leading
#: zeros — so string cells that merely *look* numeric ("2024_01", "007")
#: survive the round-trip as strings.
_CANONICAL_INT = re.compile(r"(?:0|-?[1-9][0-9]*)\Z")


def _parse_csv_cell(text: str) -> object:
    """Scalar coercion inverting :func:`save_csv`'s str().

    Only canonical numeric spellings coerce (what ``str`` produces for
    int/float, including ``nan``/``inf``); other cells stay strings.
    Empty cells stay empty strings (CSV cannot distinguish None from
    ``""``; records that need None belong in JSON).
    """
    if text == "True":
        return True
    if text == "False":
        return False
    if _CANONICAL_INT.match(text):
        return int(text)
    try:
        value = float(text)
    except ValueError:
        return text
    # Coerce only exact float spellings ("1.5", "1e-05", "nan"): repr is
    # what str() wrote, so "007"/"1.50"-style cells stay strings.
    return value if repr(value) == text else text


def load_csv(path: "str | Path") -> "list[dict[str, object]]":
    """Read back a CSV written by :func:`save_csv`.

    Cells are coerced to int/float/bool where they parse as such (floats
    round-trip exactly — ``str`` emits the shortest repr); other cells
    stay strings. A None written by :func:`save_csv` comes back as ``""``
    (CSV cannot represent the difference).
    """
    with Path(path).open(newline="") as handle:
        return [
            {key: _parse_csv_cell(value) for key, value in row.items()}
            for row in csv.DictReader(handle)
        ]


def evaluation_record(evaluation, label: str = "") -> "dict[str, object]":
    """Flatten a :class:`~repro.core.system.SystemEvaluation` for archiving.

    Adds the anchor comparisons a result log wants inline.
    """
    record = to_jsonable(evaluation)
    assert isinstance(record, dict)
    record["label"] = label
    record["anchors"] = {
        "array_current_at_1v_paper_a": 6.0,
        "peak_temperature_paper_c": 41.0,
        "pumping_power_paper_w": 4.4,
    }
    return record
