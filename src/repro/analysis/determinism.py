"""Determinism rules (RPL1xx).

The repo promises byte-identical sweep/opt/fleet exports across runs.
Everything here flags constructs that break that promise
silently: global RNG state, wall-clock reads in result paths, iteration
over containers whose order the language does not pin down, and hashes
or serialized payloads built from unordered collections.

``time.perf_counter`` / ``time.monotonic`` stay legal — elapsed-time
telemetry (``elapsed_s`` in sweep results) measures, it does not decide.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Checker, register_rule

RPL101 = register_rule(
    "RPL101",
    "unseeded global RNG call; use random.Random(seed) / "
    "np.random.default_rng(seed)",
)
RPL102 = register_rule(
    "RPL102",
    "wall-clock read; results must not depend on when they run",
)
RPL103 = register_rule(
    "RPL103",
    "filesystem listing iterated without sorted(); directory order is "
    "platform-dependent",
)
RPL104 = register_rule(
    "RPL104",
    "iteration over a set without sorted(); set order is not part of "
    "the language contract",
)
RPL105 = register_rule(
    "RPL105",
    "json.dump(s) without sort_keys=True; exported payloads must be "
    "byte-stable",
)
RPL106 = register_rule(
    "RPL106",
    "hash input built from an unordered container; sort before hashing",
)

#: ``random`` module members that mutate/read the hidden global RNG.
_GLOBAL_RANDOM = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})

#: ``numpy.random`` members that are fine: explicit generator/seed
#: constructions rather than draws from the hidden global state.
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64", "RandomState",
})

#: Wall-clock callables by resolved dotted name.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.ctime", "time.localtime",
    "time.gmtime", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Unsorted filesystem listings: resolved functions and bare methods.
_FS_FUNCTIONS = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})
_FS_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: ``hashlib`` constructors (RPL106 sinks, together with ``hash``).
_HASHLIB = frozenset({
    "new", "md5", "sha1", "sha224", "sha256", "sha384", "sha512",
    "sha3_256", "sha3_512", "blake2b", "blake2s",
})


class DeterminismChecker(Checker):
    """RPL101-RPL106 over one module."""

    def __init__(self, path: str, source: str) -> None:
        super().__init__(path, source)
        #: local alias -> canonical dotted module/attribute path.
        self._aliases: "dict[str, str]" = {}
        #: per-scope names currently bound to set expressions.
        self._set_scopes: "list[set[str]]" = [set()]

    # -- alias bookkeeping ---------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self._aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    def resolved(self, node: ast.AST) -> "str | None":
        """Dotted name of a Name/Attribute chain with aliases expanded."""
        parts: "list[str]" = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        # The alias table maps e.g. ``np`` -> ``numpy`` and (for
        # ``from datetime import datetime``) ``datetime`` ->
        # ``datetime.datetime``, so chains resolve canonically.
        parts.append(self._aliases.get(node.id, node.id))
        return ".".join(reversed(parts))

    # -- scope handling for set tracking ---------------------------------------------

    def _visit_scope(self, node: ast.AST) -> None:
        self._set_scopes.append(set())
        self.generic_visit(node)
        self._set_scopes.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_Lambda = _visit_scope

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return self.resolved(node.func) in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_scopes)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
        ):
            # Set algebra stays a set: ``seen | new``, ``all - done``.
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            if isinstance(target, ast.Name):
                scope = self._set_scopes[-1]
                if self._is_set_expr(node.value):
                    scope.add(target.id)
                else:
                    scope.discard(target.id)

    # -- rules -----------------------------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension_holder(self, node: ast.AST) -> None:
        for generator in getattr(node, "generators", []):
            self._check_iteration(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_holder
    visit_SetComp = _visit_comprehension_holder
    visit_DictComp = _visit_comprehension_holder
    visit_GeneratorExp = _visit_comprehension_holder

    def _check_iteration(self, iterable: ast.AST) -> None:
        if self._is_set_expr(iterable):
            self.report(
                iterable, RPL104,
                "iterating a set; wrap it in sorted(...) to pin the order",
            )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.resolved(node.func)
        if dotted is not None:
            self._check_random(node, dotted)
            if dotted in _WALL_CLOCK:
                self.report(
                    node, RPL102,
                    f"{dotted}() reads the wall clock; pass timestamps in "
                    "explicitly (time.perf_counter is fine for elapsed "
                    "telemetry)",
                )
            if dotted in _FS_FUNCTIONS and not self._sorted_ancestor(node):
                self.report(
                    node, RPL103,
                    f"{dotted}() order is platform-dependent; wrap the "
                    "listing in sorted(...)",
                )
            self._check_hash_sink(node, dotted)
            if dotted in ("json.dumps", "json.dump"):
                self._check_json(node, dotted)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _FS_METHODS
            and dotted is None
            and not self._sorted_ancestor(node)
        ):
            self.report(
                node, RPL103,
                f".{node.func.attr}() order is platform-dependent; wrap "
                "the listing in sorted(...)",
            )
        self.generic_visit(node)

    def _check_random(self, node: ast.Call, dotted: str) -> None:
        if dotted.startswith("random.") and dotted.split(".")[1] in _GLOBAL_RANDOM:
            self.report(
                node, RPL101,
                f"{dotted}() draws from the hidden module-level RNG; use "
                "an explicit random.Random(seed)",
            )
        elif dotted == "random.Random" and not (node.args or node.keywords):
            self.report(
                node, RPL101,
                "random.Random() without a seed; pass one explicitly",
            )
        elif dotted.startswith("numpy.random."):
            member = dotted.split(".", 2)[2]
            if member not in _NP_RANDOM_OK:
                self.report(
                    node, RPL101,
                    f"np.random.{member}() draws from the global numpy "
                    "RNG; use np.random.default_rng(seed)",
                )
            elif member in ("default_rng", "RandomState") and not (
                node.args or node.keywords
            ):
                self.report(
                    node, RPL101,
                    f"np.random.{member}() without a seed; pass one "
                    "explicitly",
                )

    def _sorted_ancestor(self, node: ast.AST) -> bool:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.Call) and self.resolved(
                ancestor.func
            ) == "sorted":
                return True
            if isinstance(ancestor, ast.stmt):
                break
        return False

    def _check_json(self, node: ast.Call, dotted: str) -> None:
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                value = keyword.value
                if isinstance(value, ast.Constant) and value.value is False:
                    break  # explicit False: fall through to the report
                return
            if keyword.arg is None:
                return  # **kwargs may carry sort_keys; trust the caller
        self.report(
            node, RPL105,
            f"{dotted}(...) without sort_keys=True; dict order must not "
            "leak into exports or hashes",
        )

    def _check_hash_sink(self, node: ast.Call, dotted: str) -> None:
        is_sink = dotted == "hash" or (
            dotted.startswith("hashlib.") and dotted.split(".")[1] in _HASHLIB
        )
        if not is_sink:
            return
        for argument in list(node.args) + [k.value for k in node.keywords]:
            unordered = self._find_unordered(argument)
            if unordered is not None:
                self.report(
                    unordered, RPL106,
                    f"unordered container feeds {dotted}(); sort (or "
                    "canonicalize via json.dumps(..., sort_keys=True)) "
                    "first",
                )

    def _find_unordered(self, node: ast.AST) -> "ast.AST | None":
        """First unordered-container expression in a subtree, stopping at
        sorted(...) calls (which launder the order)."""
        if isinstance(node, ast.Call) and self.resolved(node.func) == "sorted":
            return None
        if self._is_set_expr(node) and not isinstance(node, ast.Name):
            return node
        if isinstance(node, ast.Name) and any(
            node.id in scope for scope in self._set_scopes
        ):
            return node
        for child in ast.iter_child_nodes(node):
            found = self._find_unordered(child)
            if found is not None:
                return found
        return None
