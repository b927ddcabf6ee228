"""Unit-suffix rules (RPL2xx).

The library works in strict SI internally and converts at the edges via
the named helpers in :mod:`repro.units`; every physical quantity carries
its unit in its name (``peak_temperature_c``, ``total_flow_ml_min``,
``pumping_w``). These rules make that convention machine-checked:

- **RPL201** — additive arithmetic mixing two different unit suffixes
  (``x_c + y_k``): adding Celsius to Kelvin compiles, runs and is wrong
  by 273.15.
- **RPL202** — binding an expression of one unit to a name suffixed with
  another without a conversion call (``peak_c = state.peak_k``), and
  products of two dimensioned quantities bound to a name carrying one of
  the operand units (``power_w = power_w * time_s`` is an energy).
- **RPL203** — public float-annotated parameters and dataclass fields
  with no unit suffix and no dimensionless marker in the name: the next
  caller cannot know what to pass.

Names containing ``_from_`` are conversion helpers by convention
(``kelvin_from_celsius``) and are exempt everywhere — conversions are
exactly the places where units legitimately change.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Checker, register_rule

RPL201 = register_rule(
    "RPL201", "additive arithmetic mixes two different unit suffixes"
)
RPL202 = register_rule(
    "RPL202",
    "expression of one unit bound to a name suffixed with another "
    "without a conversion call",
)
RPL203 = register_rule(
    "RPL203",
    "public numeric parameter/field without a unit suffix or "
    "dimensionless marker",
)

#: Known unit suffixes, multi-token entries first (matched longest-first
#: against the tail of snake_case names). Each maps to a unit identity:
#: two names are compatible exactly when their identities match.
UNIT_SUFFIXES: "tuple[tuple[str, str], ...]" = (
    # 3+ tokens / compound units
    ("ml_min", "flow:ml/min"),
    ("ul_min", "flow:ul/min"),
    ("m3_s", "flow:m3/s"),
    ("m3s", "flow:m3/s"),
    ("a_m2", "current-density:A/m2"),
    ("ma_cm2", "current-density:mA/cm2"),
    ("w_m2", "heat-flux:W/m2"),
    ("w_cm2", "heat-flux:W/cm2"),
    ("w_mk", "conductivity:W/mK"),
    ("w_m2k", "htc:W/m2K"),
    ("k_w", "thermal-resistance:K/W"),
    ("k_m", "gradient:K/m"),
    ("j_kg_k", "specific-heat:J/kgK"),
    ("j_m3_k", "vol-heat:J/m3K"),
    ("kg_m3", "density:kg/m3"),
    ("mol_m3", "concentration:mol/m3"),
    ("ohm_sq", "sheet-resistance:ohm/sq"),
    ("j_m3k", "vol-heat:J/m3K"),
    ("j_mol", "molar-energy:J/mol"),
    ("pa_s", "viscosity:Pa.s"),
    ("m2_s", "diffusivity:m2/s"),
    ("m_s", "velocity:m/s"),
    ("per_k", "per-kelvin:1/K"),
    ("pa_m", "pressure-gradient:Pa/m"),
    # single token
    ("w", "power:W"),
    ("v", "voltage:V"),
    ("a", "current:A"),
    ("j", "energy:J"),
    ("s", "time:s"),
    ("k", "temperature:K"),
    ("c", "temperature:degC"),
    ("celsius", "temperature:degC"),
    ("kelvin", "temperature:K"),
    ("pa", "pressure:Pa"),
    ("bar", "pressure:bar"),
    ("m", "length:m"),
    ("mm", "length:mm"),
    ("um", "length:um"),
    ("cm", "length:cm"),
    ("nm", "length:nm"),
    ("m2", "area:m2"),
    ("mm2", "area:mm2"),
    ("cm2", "area:cm2"),
    ("um2", "area:um2"),
    ("m3", "volume:m3"),
    ("ml", "volume:ml"),
    ("ul", "volume:ul"),
    ("ohm", "resistance:ohm"),
    ("hz", "frequency:Hz"),
)

#: Single-letter suffixes that double as plain subscripts in physics
#: code (``exp_a``/``exp_c`` are the anodic/cathodic Butler-Volmer
#: exponentials, not amperes minus Celsius). They satisfy RPL203, but
#: RPL201/202 only trust them when the *other* operand carries an
#: unambiguous suffix — ``t_c + t_k`` still flags, ``exp_a - exp_c``
#: does not.
AMBIGUOUS_SUFFIXES: "frozenset[str]" = frozenset({"a", "c"})

#: Dimensionless/name markers that satisfy RPL203 without a unit suffix.
#: Three flavours: true dimensionless numbers (reynolds, soc, duty),
#: normalised comparatives (uniformity, improvement, boost), and
#: unit-polymorphic slots whose unit is carried by *something else* —
#: an optimisation axis's ``lo``/``hi`` bounds take the unit of the
#: field the axis drives, a material table's ``value`` takes the unit
#: of the property column.
DIMENSIONLESS_MARKERS: "frozenset[str]" = frozenset({
    "alpha", "atol", "beta", "coefficient", "count", "efficiency",
    "eta", "exponent", "factor", "fraction", "gain", "gamma", "index",
    "number", "points", "porosity", "probability", "quantile", "ratio",
    "rtol", "scale", "share", "skew", "slope", "tolerance", "tol",
    "utilization", "weight",
    # dimensionless groups and state fractions
    "reynolds", "schmidt", "sherwood", "peclet", "graetz", "nusselt",
    "prandtl", "soc", "duty", "squared",
    # normalised comparatives
    "uniformity", "fairness", "improvement", "reduction",
    "enhancement", "boost", "elasticity",
    # unit-polymorphic slots (axis bounds, table values, PID gains)
    "lo", "hi", "bound", "value", "vmin", "vmax", "threshold", "step",
    "kp", "ki", "users",
})

#: Snake-case phrases that satisfy RPL203 as a whole even though no
#: single token does (``state_of_charge`` is a fraction).
DIMENSIONLESS_PHRASES: "tuple[str, ...]" = ("state_of_charge",)


def suffix_unit(name: str) -> "str | None":
    """The unit identity encoded in a snake_case name's tail, if any.

    ``peak_temperature_c`` -> ``temperature:degC``;
    ``r_junction_inlet_k_w`` -> ``thermal-resistance:K/W`` (longest
    suffix wins); ``usable_charge_c`` -> coulombs, special-cased because
    the repo uses ``_c`` for both Celsius and charge.
    """
    return suffix_unit_detail(name)[0]


def suffix_unit_detail(name: str) -> "tuple[str | None, bool]":
    """``(unit identity, ambiguous?)`` for a snake_case name's tail.

    The second element is True when the match came from
    :data:`AMBIGUOUS_SUFFIXES` and should only be trusted against an
    unambiguous counterpart.
    """
    if "_from_" in name:
        return None, False
    lowered = name.lower().lstrip("_")
    tokens = lowered.split("_")
    if len(tokens) < 2:
        return None, False
    for suffix, unit in UNIT_SUFFIXES:
        n = suffix.count("_") + 1
        if len(tokens) > n and "_".join(tokens[-n:]) == suffix:
            if unit == "temperature:degC" and "charge" in tokens:
                return "charge:C", suffix in AMBIGUOUS_SUFFIXES
            return unit, suffix in AMBIGUOUS_SUFFIXES
    return None, False


def _terminal_name(node: ast.AST) -> "str | None":
    """The identifier a unit suffix would live on: the attribute name of
    an attribute chain, a bare name, or a constant string subscript key
    (``TABLE2["channel_pitch_um"]``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):
        key = node.slice
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return key.value
    return None


def _contains_call(node: ast.AST) -> bool:
    return any(isinstance(child, ast.Call) for child in ast.walk(node))


def _annotation_is_float(annotation: "ast.AST | None") -> bool:
    """True for ``float`` / ``"float"`` / ``float | None`` annotations."""
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        return annotation.value.strip().split("|")[0].strip() == "float"
    if isinstance(annotation, ast.Name):
        return annotation.id == "float"
    if isinstance(annotation, ast.BinOp) and isinstance(
        annotation.op, ast.BitOr
    ):
        return _annotation_is_float(annotation.left)
    return False


class UnitsChecker(Checker):
    """RPL201-RPL203 over one module."""

    # -- unit inference ---------------------------------------------------------------

    def unit_of(self, node: ast.AST) -> "str | None":
        """Unit identity of an expression, or None when not inferable."""
        return self.unit_detail(node)[0]

    def unit_detail(self, node: ast.AST) -> "tuple[str | None, bool]":
        """``(unit identity, ambiguous?)`` of an expression.

        Deliberately conservative: any call (a conversion may be
        happening), any unsuffixed name and any multiplicative
        expression infers to None, so every RPL201/202 report involves
        two *explicitly* suffixed operands.
        """
        if isinstance(node, ast.UnaryOp):
            return self.unit_detail(node.operand)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            left, left_amb = self.unit_detail(node.left)
            right, right_amb = self.unit_detail(node.right)
            if left == right:
                return left, left_amb and right_amb
            return None, False
        if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)):
            name = _terminal_name(node)
            return suffix_unit_detail(name) if name else (None, False)
        return None, False

    # -- RPL201 ---------------------------------------------------------------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left, left_amb = self.unit_detail(node.left)
            right, right_amb = self.unit_detail(node.right)
            if (
                left is not None
                and right is not None
                and left != right
                and not (left_amb and right_amb)
            ):
                operator = "+" if isinstance(node.op, ast.Add) else "-"
                self.report(
                    node, RPL201,
                    f"[{left}] {operator} [{right}]: convert one side "
                    "through repro.units first",
                )
        self.generic_visit(node)

    # -- RPL202 ---------------------------------------------------------------------

    def _check_binding(self, target_name: str, value: ast.AST,
                       node: ast.AST) -> None:
        target_unit, target_amb = suffix_unit_detail(target_name)
        if target_unit is None:
            return
        value_unit, value_amb = self.unit_detail(value)
        if (
            value_unit is not None
            and value_unit != target_unit
            and not (target_amb and value_amb)
        ):
            self.report(
                node, RPL202,
                f"{target_name} [{target_unit}] assigned from a "
                f"[{value_unit}] expression without a conversion call",
            )
            return
        if (
            isinstance(value, ast.BinOp)
            and isinstance(value.op, (ast.Mult, ast.Div))
            and not _contains_call(value)
        ):
            left, left_amb = self.unit_detail(value.left)
            right, right_amb = self.unit_detail(value.right)
            if (
                left is not None
                and right is not None
                and not (left_amb or right_amb)
                and target_unit in (left, right)
            ):
                operator = "*" if isinstance(value.op, ast.Mult) else "/"
                self.report(
                    node, RPL202,
                    f"{target_name} [{target_unit}] bound to "
                    f"[{left}] {operator} [{right}]; the product has a "
                    "different dimension — convert or rename",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            name = _terminal_name(target)
            if name is not None:
                self._check_binding(name, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        name = _terminal_name(node.target)
        if name is not None and node.value is not None:
            self._check_binding(name, node.value, node)
        self._check_field(node)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            function = next(
                (
                    a for a in self.ancestors(node)
                    if isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
                ),
                None,
            )
            if function is not None:
                function_unit, function_amb = suffix_unit_detail(
                    function.name
                )
                value_unit, value_amb = self.unit_detail(node.value)
                if (
                    function_unit is not None
                    and value_unit is not None
                    and value_unit != function_unit
                    and not (function_amb and value_amb)
                ):
                    self.report(
                        node, RPL202,
                        f"{function.name}() [{function_unit}] returns a "
                        f"[{value_unit}] expression",
                    )
        self.generic_visit(node)

    # -- RPL203 ---------------------------------------------------------------------

    def _is_public_context(self, node: ast.AST) -> bool:
        """Public = neither the node's own name nor any enclosing
        function/class name starts with an underscore."""
        for ancestor in self.ancestors(node):
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and ancestor.name.startswith("_"):
                return False
        return True

    @staticmethod
    def _dimensionless_name(name: str) -> bool:
        lowered = name.lower()
        tokens = set(lowered.split("_"))
        return bool(tokens & DIMENSIONLESS_MARKERS) or any(
            phrase in lowered for phrase in DIMENSIONLESS_PHRASES
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Only module-level functions and methods have callers outside
        # the file; a closure's parameters are private no matter what
        # they are called.
        is_api = isinstance(self.parent(node), (ast.Module, ast.ClassDef))
        if (
            is_api
            and not node.name.startswith("_")
            and self._is_public_context(node)
        ):
            arguments = node.args
            for argument in (
                arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            ):
                if (
                    _annotation_is_float(argument.annotation)
                    and suffix_unit(argument.arg) is None
                    and not self._dimensionless_name(argument.arg)
                    and "_from_" not in node.name
                ):
                    self.report(
                        argument, RPL203,
                        f"public parameter {argument.arg!r} is a bare "
                        "float: add a unit suffix (_w, _c, _ml_min, ...) "
                        "or a dimensionless marker (ratio, factor, ...)",
                    )
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check_field(self, node: ast.AnnAssign) -> None:
        """Public dataclass-style class fields: same bar as parameters."""
        parent = self.parent(node)
        if not isinstance(parent, ast.ClassDef):
            return
        if parent.name.startswith("_") or not self._is_public_context(parent):
            return
        name = node.target.id if isinstance(node.target, ast.Name) else None
        if (
            name is not None
            and not name.startswith("_")
            and _annotation_is_float(node.annotation)
            and suffix_unit(name) is None
            and not self._dimensionless_name(name)
        ):
            self.report(
                node, RPL203,
                f"public field {name!r} is a bare float: add a unit "
                "suffix (_w, _c, _ml_min, ...) or a dimensionless "
                "marker (ratio, factor, ...)",
            )
