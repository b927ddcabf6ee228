"""Property-based contracts of the warm-job fast paths.

- :meth:`ScenarioSpec.replace` validates only the rules a change reads,
  yet behaves exactly like constructing the merged spec: the same
  :class:`ConfigurationError` message, or an equal spec with an equal
  :meth:`~ScenarioSpec.cache_key`;
- the memoized ``cache_key`` survives ``pickle`` and ``copy.deepcopy``
  and never passes to a replaced spec;
- :func:`repro.io.dumps` is byte-identical to the indenting ``json``
  encoder, on flat records (the C-encoder path) and on every shape that
  falls back.
"""

import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.io import dumps, to_jsonable
from repro.sweep.spec import ScenarioSpec

FLOAT_FIELDS = ScenarioSpec._FLOAT_FIELDS
INT_FIELDS = ScenarioSpec._INT_FIELDS

#: Valid bases the changes apply to: the nominal design and a spec away
#: from every default, so cross-field rules see non-default partners.
BASES = (
    ScenarioSpec(),
    ScenarioSpec(
        evaluator="runtime", total_flow_ml_min=48.0, utilization=0.3,
        utilization_before=0.9, step_duration_s=2.0, step_dt_s=0.5,
        pump_efficiency=0.7, trace="bursty", trace_seed=3,
        controller="fixed", pid_kp=0.0, pid_ki=5.0, n_chips=3, nx=2,
        ny=30, vrm="sc", workload="idle", fleet_policy="uniform",
        label="away",
    ),
)

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-2.0, max_value=3.0),
    st.integers(min_value=-3, max_value=120),
    st.just(10**400),  # overflows float()
    st.booleans(),
)
numeric_values = st.one_of(
    numbers,
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(allow_nan=True, width=32).map(np.float32),
    st.integers(min_value=-3, max_value=120).map(np.int64),
    st.sampled_from(
        ["48.0", "0.5", "7", "-1", "1e400", "nan", "-inf", "abc", "", " 2 "]
    ),
    st.none(),
)
#: Characters JSON escapes or spells out: quotes, backslash, braces,
#: control characters, Latin-1, CJK and an astral-plane emoji (a
#: surrogate pair once ASCII-escaped). An explicit alphabet also keeps
#: Hypothesis from building its Unicode tables.
ALPHABET = 'az AZ09_"\\{}[],:\n\t\x00\x1f\x7féüß温度ℏω\U0001f525'
texts = st.text(alphabet=ALPHABET, max_size=8)

text_values = st.one_of(
    st.sampled_from([
        "ideal", "sc", "buck", "fixed", "pid", "full load", "idle",
        "step", "bursty", "greedy", "uniform", "runtime", "fleet_chip",
    ]),
    texts,
    st.integers(-2, 2),
    st.none(),
)


@st.composite
def changes(draw):
    names = draw(st.lists(
        st.sampled_from(ScenarioSpec.field_names()), max_size=5, unique=True,
    ))
    drawn = {
        name: draw(
            numeric_values if name in FLOAT_FIELDS + INT_FIELDS
            else text_values
        )
        for name in names
    }
    if draw(st.booleans()) and draw(st.booleans()):
        drawn[draw(st.sampled_from(["no_such_field", "flow", "nX"]))] = 1.0
    return drawn


def _fields(spec):
    return {name: getattr(spec, name) for name in spec.field_names()}


def _outcome(build):
    """``(spec, None)``, or ``(None, (error type, message))``. Every
    rejection is a ConfigurationError naming a field, the int field given
    10**400 included; anything else escapes and fails the test."""
    try:
        return build(), None
    except ConfigurationError as error:
        return None, (type(error), str(error))


@given(base=st.sampled_from(BASES), change=changes())
def test_replace_matches_construction(base, change):
    replaced, replace_error = _outcome(lambda: base.replace(**change))
    unknown = sorted(set(change) - set(base.field_names()))
    if unknown:
        assert replace_error == (
            ConfigurationError, f"unknown spec field(s): {unknown}"
        )
        return
    built, build_error = _outcome(
        lambda: ScenarioSpec(**{**_fields(base), **change})
    )
    assert replace_error == build_error
    if build_error is None:
        assert replaced == built
        assert replaced.cache_key() == built.cache_key()
        for name in FLOAT_FIELDS + INT_FIELDS:
            assert type(getattr(replaced, name)) is type(getattr(built, name))


#: Valid physical changes: each moves the cache key.
valid_changes = st.fixed_dictionaries({}, optional={
    "total_flow_ml_min": st.floats(1.0, 900.0),
    "utilization": st.floats(0.0, 1.0),
    "nx": st.integers(2, 64),
    "vrm": st.sampled_from(["ideal", "sc", "buck"]),
    "pump_efficiency": st.floats(0.05, 1.0),
}).filter(bool)


@given(base=st.sampled_from(BASES), change=valid_changes)
def test_memoized_key_survives_copies_and_never_passes_on(base, change):
    parent = base.replace(label="parent")
    key = parent.cache_key()
    assert key == ScenarioSpec(**_fields(parent)).cache_key()
    for clone in (pickle.loads(pickle.dumps(parent)), copy.deepcopy(parent)):
        assert clone == parent and hash(clone) == hash(parent)
        assert clone.cache_key() == key
    child = parent.replace(**change)
    fresh = ScenarioSpec(**{**_fields(parent), **change})
    assert child.cache_key() == fresh.cache_key()
    if fresh != ScenarioSpec(**_fields(parent)):
        assert child.cache_key() != key
    # The memo is no field: records, equality and hashing ignore it.
    assert to_jsonable(child) == to_jsonable(fresh)
    assert child == fresh and hash(child) == hash(fresh)


def _reference(value):
    return json.dumps(to_jsonable(value), indent=2, sort_keys=True)


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), texts,
)
keys = st.one_of(
    texts, st.sampled_from(["é", "温度", "a\nb", '"', "}", "{", ""]),
)
flat_records = st.lists(
    st.dictionaries(keys, scalars, min_size=1, max_size=6),
    min_size=1, max_size=6,
)


@given(records=flat_records)
def test_dumps_matches_json_on_flat_records(records):
    assert dumps(records) == _reference(records)


@given(records=flat_records, at=st.integers(0, 5))
def test_dumps_flat_records_with_edge_values(records, at):
    row = records[at % len(records)]
    row.update({
        "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
        "yes": True, "no": False, "none": None, "ünïcode": "ℏω",
        "}, {": "},\n    {",
    })
    assert dumps(records) == _reference(records)


fallback_shapes = st.one_of(
    st.just([]), st.just({}), st.just([{}]),
    flat_records.map(lambda rows: rows + [{}]),
    flat_records.map(tuple),
    flat_records.map(lambda rows: rows + [{"nested": [1, {"a": 2.5}]}]),
    flat_records.map(lambda rows: rows + [{"tuple": (1, "x")}]),
    flat_records.map(lambda rows: rows + [{"np": np.float64(0.1)}]),
    flat_records.map(lambda rows: rows + [{"np": np.int64(-3)}]),
    flat_records.map(lambda rows: rows + [{7: "int key"}]),
    flat_records.map(lambda rows: {"rows": rows}),
    st.recursive(
        scalars, lambda inner: st.lists(inner) | st.dictionaries(keys, inner),
        max_leaves=12,
    ),
)


@given(value=fallback_shapes)
def test_dumps_matches_json_on_every_fallback_shape(value):
    assert dumps(value) == _reference(value)


@pytest.mark.parametrize("indent", [0, 1, 4])
def test_dumps_other_indents_fall_back(indent):
    records = [{"a": 1.5, "b": "x"}, {"a": None}]
    assert dumps(records, indent=indent) == json.dumps(
        records, indent=indent, sort_keys=True
    )
