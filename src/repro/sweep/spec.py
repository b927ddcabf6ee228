"""Declarative scenario specifications and parameter grids.

A :class:`ScenarioSpec` names one operating point of the integrated
power-and-cooling system — flow, inlet temperature, channel geometry, VRM
technology, workload, terminal voltage — plus which evaluator turns it into
metrics. Specs are frozen dataclasses of plain scalars, so they hash,
serialize through :mod:`repro.io`, and admit a stable content hash for
memoization.

A :class:`SweepGrid` is the Cartesian product of named axes over spec
fields; :meth:`SweepGrid.expand` turns it into the concrete spec list a
:class:`~repro.sweep.runner.SweepRunner` consumes. Expansion order is
deterministic (row-major, last axis fastest), so sweep outputs diff cleanly
across runs.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.casestudy.tables import PAPER_ANCHORS, TABLE2
from repro.errors import ConfigurationError

#: Spec fields that identify a scenario physically; ``label`` is cosmetic
#: and deliberately excluded from the memoization key.
_NON_IDENTITY_FIELDS = frozenset({"label"})

#: Regulator technologies :func:`repro.sweep.evaluators.build_vrm` knows.
VRM_NAMES = ("ideal", "sc", "buck")

#: Flow-controller policies the ``runtime`` evaluator knows.
CONTROLLER_NAMES = ("fixed", "pid")

#: Instance attribute that memoizes :meth:`ScenarioSpec.cache_key`. It
#: lives in ``__dict__`` beside the fields, never among them, so it
#: takes no part in equality, hashing, records or exports.
_KEY_ATTR = "_cache_key"


@functools.cache
def _closed_sets() -> "dict[str, tuple[str, ...]]":
    """The closed name sets of the enum-like fields, by constant name.

    Imported on first use: the workload, trace and fleet modules import
    the sweep package themselves.
    """
    from repro.casestudy.workloads import WORKLOAD_NAMES
    from repro.fleet.supply import POLICY_NAMES
    from repro.runtime.trace import TRACE_NAMES

    return {
        "VRM_NAMES": VRM_NAMES, "CONTROLLER_NAMES": CONTROLLER_NAMES,
        "WORKLOAD_NAMES": WORKLOAD_NAMES, "TRACE_NAMES": TRACE_NAMES,
        "POLICY_NAMES": POLICY_NAMES,
    }


def _unknown(field: str, names: str) -> "Callable[[ScenarioSpec], bool]":
    """Rule predicate: ``field`` is outside the closed set ``names``."""
    return lambda s: getattr(s, field) not in _closed_sets()[names]


#: The checks that follow numeric coercion, in order: ``(fields read,
#: fails(spec), message)``. A message is formatted (with the spec as
#: ``s`` and the closed sets by name) only when its rule fails. Numeric
#: fields are finite here, so each ``fails`` is the plain comparison.
_RULES: "tuple[tuple[tuple[str, ...], Callable[[ScenarioSpec], bool], str], ...]" = (
    (("total_flow_ml_min",), lambda s: s.total_flow_ml_min <= 0.0,
     "total flow must be > 0 ml/min"),
    (("inlet_temperature_k",), lambda s: s.inlet_temperature_k <= 0.0,
     "inlet temperature must be > 0 K"),
    (("channel_width_um",), lambda s: s.channel_width_um <= 0.0,
     "channel width must be > 0 um"),
    (("wall_width_um",), lambda s: s.wall_width_um < 0.0,
     "wall width must be >= 0 um"),
    (("operating_voltage_v",), lambda s: s.operating_voltage_v <= 0.0,
     "operating voltage must be > 0 V"),
    (("utilization",), lambda s: not 0.0 <= s.utilization <= 1.0,
     "utilization must be in [0, 1]"),
    (("utilization_before",),
     lambda s: not 0.0 <= s.utilization_before <= 1.0,
     "utilization_before must be in [0, 1]"),
    (("step_duration_s", "step_dt_s"),
     lambda s: (
         s.step_duration_s <= 0.0
         or s.step_dt_s <= 0.0
         or s.step_dt_s > s.step_duration_s
     ),
     "step timing needs 0 < step_dt_s <= step_duration_s"),
    (("pump_efficiency",), lambda s: not 0.0 < s.pump_efficiency <= 1.0,
     "pump efficiency must be in (0, 1], got {s.pump_efficiency}"),
    (("trace_seed",), lambda s: s.trace_seed < 0,
     "trace seed must be >= 0"),
    (("pid_kp", "pid_ki"), lambda s: s.pid_kp < 0.0 or s.pid_ki < 0.0,
     "PID gains must be >= 0"),
    (("nx", "ny"), lambda s: s.nx < 2 or s.ny < 2,
     "thermal raster needs nx, ny >= 2"),
    # The enum-like fields are closed sets; rejecting typos here means
    # a bad grid fails before any scenario has burned solver time.
    (("vrm",), _unknown("vrm", "VRM_NAMES"),
     "unknown VRM {s.vrm!r}; expected one of {VRM_NAMES}"),
    (("controller",), _unknown("controller", "CONTROLLER_NAMES"),
     "unknown controller {s.controller!r}; expected one of "
     "{CONTROLLER_NAMES}"),
    (("workload",), _unknown("workload", "WORKLOAD_NAMES"),
     "unknown workload {s.workload!r}; expected one of {WORKLOAD_NAMES}"),
    (("trace",), _unknown("trace", "TRACE_NAMES"),
     "unknown trace {s.trace!r}; expected one of {TRACE_NAMES}"),
    (("n_chips",), lambda s: s.n_chips < 1, "n_chips must be >= 1"),
    (("supply_per_chip_ml_min",),
     lambda s: s.supply_per_chip_ml_min <= 0.0,
     "per-chip supply must be > 0 ml/min"),
    (("fleet_skew",), lambda s: s.fleet_skew < 0.0,
     "fleet skew must be >= 0"),
    (("fleet_policy",), _unknown("fleet_policy", "POLICY_NAMES"),
     "unknown allocation policy {s.fleet_policy!r}; expected one of "
     "{POLICY_NAMES}"),
)

#: Per field, the rules that read it (ascending, i.e. in check order).
_RULES_READING: "dict[str, tuple[int, ...]]" = {
    name: tuple(i for i, (read, _, _) in enumerate(_RULES) if name in read)
    for read, _, _ in _RULES
    for name in read
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One operating point of the integrated system, ready to evaluate.

    Every field defaults to the Table II nominal design, so a sweep only
    states the knobs it varies. Which fields matter depends on the
    ``evaluator`` (see :mod:`repro.sweep.evaluators`): the geometry
    evaluator reads the channel dimensions, the cosim evaluator reads the
    coolant point and terminal voltage, and so on; unused fields are
    simply carried through to the result records.

    Parameters
    ----------
    evaluator:
        Registered evaluator name (``operating_point``, ``geometry``,
        ``vrm``, ``cosim``, ``workload``).
    total_flow_ml_min / inlet_temperature_k:
        Coolant operating point (Table II nominal: 676 ml/min at 300 K).
    channel_width_um / wall_width_um:
        Array channel cross-section knobs (geometry evaluator).
    operating_voltage_v:
        Array terminal voltage held by the VRMs.
    vrm:
        Regulator technology: ``ideal``, ``sc`` or ``buck``.
    workload:
        Named workload scenario (workload evaluator); see
        :func:`repro.casestudy.workloads.standard_workloads`.
    utilization:
        Uniform activity scaling in [0, 1] (operating-point evaluator;
        the *target* utilization of the transient step evaluator).
    utilization_before:
        Utilization the transient evaluator starts from; the step at
        t = 0 goes ``utilization_before`` -> ``utilization``.
    step_duration_s / step_dt_s:
        Horizon and sample interval of the transient step response.
    pump_efficiency:
        Pump efficiency in (0, 1] used wherever an evaluator prices
        hydraulic power (the paper's Section III-B assumes 0.5).
    trace / trace_seed:
        Named workload trace (runtime evaluator); see
        :func:`repro.runtime.trace.standard_trace`. The seed pins the
        ``bursty`` trace's burst pattern.
    controller:
        Flow-control policy of the runtime evaluator: ``fixed`` (open
        loop at ``total_flow_ml_min``) or ``pid`` (closed loop on peak
        junction temperature).
    pid_kp / pid_ki:
        PID gains [ml/min per K, ml/min per K.s] of the runtime
        evaluator's closed-loop controller.
    nx / ny:
        Thermal raster resolution.
    label:
        Free-form tag copied into result records; not part of the
        scenario's identity hash.

    Example
    -------
    >>> nominal = ScenarioSpec()          # the Table II design point
    >>> low_flow = nominal.replace(total_flow_ml_min=48.0, label="stress")
    >>> low_flow.total_flow_ml_min
    48.0
    >>> # label is cosmetic: relabelling never busts the memoization key
    >>> low_flow.cache_key() == low_flow.replace(label="x").cache_key()
    True
    """

    evaluator: str = "operating_point"
    total_flow_ml_min: float = TABLE2["total_flow_ml_min"]
    inlet_temperature_k: float = TABLE2["inlet_temperature_k"]
    channel_width_um: float = TABLE2["channel_width_um"]
    wall_width_um: float = (
        TABLE2["channel_pitch_um"] - TABLE2["channel_width_um"]
    )
    operating_voltage_v: float = 1.0
    vrm: str = "ideal"
    workload: str = "full load"
    utilization: float = 1.0
    utilization_before: float = 0.1
    step_duration_s: float = 0.5
    step_dt_s: float = 0.05
    pump_efficiency: float = PAPER_ANCHORS["pump_efficiency"]
    trace: str = "step"
    trace_seed: int = 7
    controller: str = "pid"
    pid_kp: float = 40.0
    pid_ki: float = 60.0
    n_chips: int = 8
    fleet_policy: str = "greedy"
    supply_per_chip_ml_min: float = 40.0
    fleet_skew: float = 0.35
    nx: int = 44
    ny: int = 22
    label: str = ""

    #: Numeric fields coerced to Python scalars on construction, so specs
    #: built from numpy values (np.linspace/arange grids) hash, pickle and
    #: JSON-encode identically to ones built from plain floats/ints.
    _FLOAT_FIELDS = (
        "total_flow_ml_min", "inlet_temperature_k", "channel_width_um",
        "wall_width_um", "operating_voltage_v", "utilization",
        "utilization_before", "step_duration_s", "step_dt_s",
        "pump_efficiency", "pid_kp", "pid_ki", "supply_per_chip_ml_min",
        "fleet_skew",
    )
    _INT_FIELDS = ("nx", "ny", "trace_seed", "n_chips")

    def __post_init__(self) -> None:
        self._coerce(self._FLOAT_FIELDS + self._INT_FIELDS)
        self._check(range(len(_RULES)))

    def _coerce(self, names: "Iterable[str]") -> None:
        """Coerce the numeric fields ``names`` to finite Python scalars."""
        for name in names:
            raw = getattr(self, name)
            try:
                value = float(raw) if name in self._FLOAT_FIELDS else int(raw)
            except (TypeError, ValueError, OverflowError):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {raw!r}"
                ) from None
            # NaN and inf slip through every ``x <= 0`` style rule.
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond the float range
                raise ConfigurationError(
                    f"{name} is out of range (beyond a float)"
                ) from None
            if not finite:
                raise ConfigurationError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)

    def _check(self, rules: "Iterable[int]") -> None:
        """Run the :data:`_RULES` with these indices; the first failure
        raises."""
        for index in rules:
            _, fails, message = _RULES[index]
            if fails(self):
                raise ConfigurationError(
                    message.format(s=self, **_closed_sets())
                )

    @classmethod
    def field_names(cls) -> "tuple[str, ...]":
        """All spec field names, in declaration order."""
        return _FIELD_NAMES

    def replace(self, **changes: object) -> "ScenarioSpec":
        """A copy with the given fields replaced, validated as construction
        validates it.

        An unknown name raises first. Then the changed numeric fields are
        coerced (numpy scalars and numeric strings included, each to
        ``float`` or ``int`` as on construction) and checked finite, in
        declaration order. Last come the range and closed-set rules that
        read a changed field, in construction's order: these include the
        cross-field rules, so a new ``step_dt_s`` is checked against the
        kept ``step_duration_s``, a new ``pid_kp`` with ``pid_ki``, a new
        ``nx`` with ``ny``. ``self`` passed every rule, so the first
        failure, and its message, is the one
        ``ScenarioSpec(**{**fields, **changes})`` raises. The copy does not
        carry this spec's memoized :meth:`cache_key`.
        """
        unknown = changes.keys() - _FIELD_SET
        if unknown:
            raise ConfigurationError(
                f"unknown spec field(s): {sorted(unknown)}"
            )
        spec = object.__new__(type(self))
        state = spec.__dict__
        state.update(self.__dict__)
        state.pop(_KEY_ATTR, None)
        state.update(changes)
        spec._coerce(name for name in _NUMERIC_FIELDS if name in changes)
        spec._check(sorted({
            index for name in changes for index in _RULES_READING.get(name, ())
        }))
        return spec

    def identity(self) -> "dict[str, object]":
        """The fields that define the scenario physically."""
        return {name: getattr(self, name) for name in _IDENTITY_NAMES}

    def cache_key(self) -> str:
        """Stable content hash for memoization and archive filenames.

        Two specs that differ only in ``label`` share a key; any physical
        difference (including raster resolution) yields a distinct one,
        and so does the evaluator's model version
        (:func:`~repro.sweep.evaluators.model_version`): results stored
        by an older model of the evaluator read as misses. Version 1
        adds nothing, so a version-1 evaluator keeps the key it had
        before versions existed. The hash is computed once per instance
        (a spec is immutable); the memo travels with ``pickle``/``copy``
        but never to a :meth:`replace` copy.
        """
        key = self.__dict__.get(_KEY_ATTR)
        if key is None:
            from repro.sweep.evaluators import model_version

            identity = self.identity()
            version = model_version(self.evaluator)
            if version != 1:
                identity["model_version"] = version
            canonical = json.dumps(identity, sort_keys=True)
            key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, _KEY_ATTR, key)
        return key


_FIELD_NAMES = tuple(field.name for field in dataclasses.fields(ScenarioSpec))
_FIELD_SET = frozenset(_FIELD_NAMES)
_IDENTITY_NAMES = tuple(
    name for name in _FIELD_NAMES if name not in _NON_IDENTITY_FIELDS
)
_NUMERIC_FIELDS = ScenarioSpec._FLOAT_FIELDS + ScenarioSpec._INT_FIELDS


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian product of named axes over :class:`ScenarioSpec` fields.

    ``axes`` is an ordered tuple of ``(field_name, values)`` pairs;
    expansion iterates the product row-major with the *last* axis varying
    fastest, matching ``itertools.product``.
    """

    axes: "tuple[tuple[str, tuple[object, ...]], ...]"

    def __post_init__(self) -> None:
        valid = set(ScenarioSpec.field_names())
        seen: "set[str]" = set()
        for name, values in self.axes:
            if name not in valid:
                raise ConfigurationError(
                    f"unknown sweep axis {name!r}; spec fields are "
                    f"{sorted(valid)}"
                )
            if name in seen:
                raise ConfigurationError(f"duplicate sweep axis {name!r}")
            seen.add(name)
            if isinstance(values, str) or not len(values):
                raise ConfigurationError(
                    f"axis {name!r} needs a non-empty sequence of values"
                )

    @classmethod
    def from_dict(
        cls, axes: "Mapping[str, Sequence[object]]"
    ) -> "SweepGrid":
        """Build a grid from an ``{field: values}`` mapping."""
        return cls(
            tuple((name, tuple(values)) for name, values in axes.items())
        )

    @property
    def axis_names(self) -> "tuple[str, ...]":
        return tuple(name for name, _ in self.axes)

    def __len__(self) -> int:
        size = 1
        for _, values in self.axes:
            size *= len(values)
        return size

    def points(self) -> "Iterator[dict[str, object]]":
        """Iterate the grid as ``{field: value}`` dicts, row-major."""
        import itertools

        names = self.axis_names
        for combo in itertools.product(*(values for _, values in self.axes)):
            yield dict(zip(names, combo))

    def expand(
        self, base: "ScenarioSpec | None" = None
    ) -> "list[ScenarioSpec]":
        """Concrete spec list: ``base`` with each grid point applied."""
        base = base if base is not None else ScenarioSpec()
        return [base.replace(**point) for point in self.points()]
