"""The project-specific per-file invariant rules (RL001–RL008, RL011).

Each rule protects one of the cross-cutting contracts the reproduction's
correctness argument rests on; ``docs/STATIC_ANALYSIS.md`` documents every
rule with an example violation and the sanctioned fix.  Rules are scoped to
the ``repro`` package (see :func:`repro.lint.core.module_key`): tests,
benchmarks and scripts deliberately break these contracts and are never
linted.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Tuple

from repro.lint.core import LintContext, Rule

# ----------------------------------------------------------------------
# RL001 — shortest-path searches must go through the versioned cache
# ----------------------------------------------------------------------

#: The shortest-path primitives and every module they are re-exported from.
_SP_MODULES = (
    "repro.graph.shortest_paths",
    "repro.graph.csr",
    "repro.graph",
    "repro",
)
_SP_FUNCTIONS = frozenset(
    {
        "dijkstra",
        "shortest_path",
        "shortest_path_length",
        "single_source_distances",
        "all_pairs_shortest_paths",
        "dijkstra_csr",
        "dijkstra_many",
        "dijkstra_rows",
    }
)
_SP_QUALIFIED = frozenset(
    f"{module}.{name}" for module in _SP_MODULES for name in _SP_FUNCTIONS
)

#: Substrate compilation entry point and its re-export paths.
_CSR_COMPILE_QUALIFIED = frozenset(
    f"{module}.compile_csr"
    for module in ("repro.graph.csr", "repro.graph", "repro")
)


class UncachedShortestPath(Rule):
    """Direct Dijkstra calls bypass the epoch-versioned cache.

    Inside ``repro/core`` the rule additionally guards the CSR-native
    solver core's one-compilation-per-request invariant: no direct
    ``compile_csr()`` (the substrate is compiled once, epoch-stamped, by
    the shortest-path cache).
    """

    id = "RL001"
    name = "uncached-shortest-path"
    rationale = (
        "Shortest-path queries must go through ShortestPathCache / "
        "VersionedCacheRegistry so results are shared and can never be "
        "served stale across residual-state epochs.  For the same reason "
        "the solver core must not recompile the substrate: each request "
        "reads the cache's single epoch-stamped compilation."
    )
    hint = (
        "use network.path_cache() (topology) or "
        "network.residual_path_cache(bw) (epoch-keyed); read the compiled "
        "substrate via ShortestPathCache.compiled(); suppress only for "
        "one-shot searches / reference constructions on transient graphs"
    )
    node_types = (ast.Call,)
    _allowed = (
        "repro/graph/spcache.py",
        "repro/graph/shortest_paths.py",
        "repro/graph/csr.py",
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return not ctx.in_module(*self._allowed)

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.Call)
        qualified = ctx.qualified_call_name(node.func)
        if qualified in _SP_QUALIFIED:
            short = qualified.rsplit(".", 1)[1]
            ctx.report(
                self,
                node,
                f"direct call to {short}() bypasses the versioned "
                "shortest-path cache",
            )
            return
        if not ctx.in_package("repro/core"):
            return
        if qualified in _CSR_COMPILE_QUALIFIED:
            ctx.report(
                self,
                node,
                "compile_csr() inside the solver core recompiles the "
                "substrate; the request's single epoch-stamped compilation "
                "is read via ShortestPathCache.compiled()",
            )


# ----------------------------------------------------------------------
# RL002 — residual capacity is owned by the resource layer
# ----------------------------------------------------------------------
class ResidualWriteOutsideAllocation(Rule):
    """Writes to ``.residual`` outside the transaction-owned resource layer."""

    id = "RL002"
    name = "residual-write-outside-allocation"
    rationale = (
        "Residual bandwidth/compute may only be mutated by the resource "
        "layer (AllocationTransaction and the SDNetwork/element primitives "
        "it drives); any other write silently desynchronizes transaction "
        "ownership and voids the admission-control bookkeeping."
    )
    hint = (
        "route the mutation through AllocationTransaction / "
        "SDNetwork.allocate_*/release_*"
    )
    node_types = (ast.Assign, ast.AugAssign)
    _allowed = (
        "repro/network/allocation.py",
        "repro/network/elements.py",
        "repro/network/sdn.py",
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return not ctx.in_module(*self._allowed)

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        targets: List[ast.expr]
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        else:
            assert isinstance(node, ast.AugAssign)
            targets = [node.target]
        for target in targets:
            for leaf in _assignment_leaves(target):
                if isinstance(leaf, ast.Attribute) and leaf.attr == "residual":
                    ctx.report(
                        self,
                        node,
                        "write to a .residual attribute outside the "
                        "resource layer (transaction-ownership violation)",
                    )


def _assignment_leaves(target: ast.expr) -> List[ast.expr]:
    """Flatten tuple/list unpacking targets into their leaf expressions."""
    if isinstance(target, (ast.Tuple, ast.List)):
        leaves: List[ast.expr] = []
        for element in target.elts:
            leaves.extend(_assignment_leaves(element))
        return leaves
    if isinstance(target, ast.Starred):
        return _assignment_leaves(target.value)
    return [target]


# ----------------------------------------------------------------------
# RL003 — all randomness is explicitly seeded
# ----------------------------------------------------------------------

#: ``random`` module-level functions that draw from the hidden global RNG.
_GLOBAL_RANDOM_FUNCTIONS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)


class UnseededRandomness(Rule):
    """Module-level ``random.*`` draws from the hidden global RNG."""

    id = "RL003"
    name = "unseeded-randomness"
    rationale = (
        "Every stochastic component must draw from an explicitly seeded "
        "random.Random(seed); the hidden global RNG makes runs "
        "irreproducible and breaks the differential harness."
    )
    hint = "thread a random.Random(seed) instance through instead"
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.Call)
        qualified = ctx.qualified_call_name(node.func)
        if qualified is None:
            return
        if qualified.startswith("random."):
            function = qualified[len("random."):]
            if function in _GLOBAL_RANDOM_FUNCTIONS:
                ctx.report(
                    self,
                    node,
                    f"random.{function}() draws from the hidden global RNG",
                )


# ----------------------------------------------------------------------
# RL004 — no float equality on cost/weight expressions
# ----------------------------------------------------------------------

_COSTLIKE = re.compile(
    r"cost|weight|dist|residual|bandwidth|capacity|util|price|budget",
    re.IGNORECASE,
)
#: Float literals that are exact in IEEE-754 and conventional as sentinels.
_EXACT_FLOATS = frozenset({0.0, 1.0, -1.0})
_INFINITY_NAMES = frozenset({"INFINITY", "INF"})


class FloatEqualityOnCosts(Rule):
    """``==``/``!=`` between computed cost/weight floats."""

    id = "RL004"
    name = "float-equality-on-costs"
    rationale = (
        "Costs and weights are sums of float products; exact equality on "
        "them is order-of-evaluation dependent and silently diverges "
        "between equivalent engines.  Compare with the 1e-9 tolerance "
        "helpers instead (sentinel comparisons against 0.0/1.0/inf are "
        "exact and exempt)."
    )
    hint = "use abs(a - b) <= 1e-9 (or math.isclose) for computed values"
    node_types = (ast.Compare,)

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.Compare)
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if self._is_exact(left, ctx) or self._is_exact(right, ctx):
                # one side is an exact sentinel — only flag a comparison
                # against a *non*-sentinel float literal like ``x == 0.3``
                for side in (left, right):
                    if self._is_inexact_float_literal(side):
                        ctx.report(
                            self,
                            node,
                            "float equality against a non-sentinel literal",
                        )
                        break
                continue
            if self._is_costlike(left) or self._is_costlike(right):
                ctx.report(
                    self,
                    node,
                    "exact float equality on a cost/weight expression",
                )

    @staticmethod
    def _terminal_name(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Attribute):
            return expr.attr
        return None

    def _is_costlike(self, expr: ast.expr) -> bool:
        name = self._terminal_name(expr)
        return name is not None and bool(_COSTLIKE.search(name))

    def _is_exact(self, expr: ast.expr, ctx: LintContext) -> bool:
        """Literals/sentinels whose equality comparison is well-defined."""
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
            expr = expr.operand
        if isinstance(expr, ast.Constant):
            value = expr.value
            if isinstance(value, bool) or value is None or isinstance(value, str):
                return True
            if isinstance(value, int):
                return True
            if isinstance(value, float):
                return value in _EXACT_FLOATS or value != value or value in (
                    float("inf"), float("-inf"),
                )
            return False
        name = self._terminal_name(expr)
        if name in _INFINITY_NAMES:
            return True
        if isinstance(expr, ast.Attribute) and expr.attr in ("inf", "nan"):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id == "float" and expr.args:
                argument = expr.args[0]
                if isinstance(argument, ast.Constant) and argument.value in (
                    "inf", "-inf", "nan",
                ):
                    return True
        return False

    @staticmethod
    def _is_inexact_float_literal(expr: ast.expr) -> bool:
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
            expr = expr.operand
        return (
            isinstance(expr, ast.Constant)
            and isinstance(expr.value, float)
            and not isinstance(expr.value, bool)
            and expr.value == expr.value  # not NaN
            and expr.value not in (float("inf"), float("-inf"))
            and expr.value not in _EXACT_FLOATS
        )


# ----------------------------------------------------------------------
# RL005 — every mutation in SDNetwork bumps the epoch
# ----------------------------------------------------------------------
class MutationWithoutEpochBump(Rule):
    """A method of ``network/sdn.py`` mutates state but never bumps epoch."""

    id = "RL005"
    name = "mutation-without-epoch-bump"
    rationale = (
        "Every residual/topology mutation inside SDNetwork must bump "
        "self._epoch in the same method, or the VersionedCacheRegistry "
        "serves shortest paths computed on a graph that no longer exists."
    )
    hint = "add `self._epoch += 1` on every state-changing path"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)
    _mutating_attrs = frozenset({"residual", "up"})
    _mutating_calls = frozenset({"allocate", "release"})

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_module("repro/network/sdn.py")

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        mutates = False
        bumps = False
        for child in ast.walk(node):
            if isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    for leaf in _assignment_leaves(target):
                        if not isinstance(leaf, ast.Attribute):
                            continue
                        if leaf.attr == "_epoch":
                            bumps = True
                        elif leaf.attr in self._mutating_attrs:
                            mutates = True
            elif isinstance(child, ast.Call):
                func = child.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._mutating_calls
                ):
                    mutates = True
        if mutates and not bumps:
            ctx.report(
                self,
                node,
                f"{node.name}() mutates capacity/topology state without "
                "bumping self._epoch",
            )


# ----------------------------------------------------------------------
# RL006 — phase spans only as context managers
# ----------------------------------------------------------------------

_SPAN_QUALIFIED = frozenset(
    {
        "repro.obs.span",
        "repro.obs.registry.span",
        "repro.obs.registry.MetricsRegistry.span",
    }
)


class SpanOutsideWith(Rule):
    """``obs.span(...)`` used as a bare call instead of ``with obs.span(...)``."""

    id = "RL006"
    name = "span-outside-with"
    rationale = (
        "A MetricsRegistry phase span opened outside a `with` block is "
        "never guaranteed to close; one unbalanced span corrupts the whole "
        "phase hierarchy for the rest of the process."
    )
    hint = "wrap the call: `with _obs_span(\"phase\"): ...`"
    node_types = (ast.Call,)

    def applies_to(self, ctx: LintContext) -> bool:
        return not ctx.in_package("repro/obs")

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.Call)
        qualified = ctx.qualified_call_name(node.func)
        if qualified not in _SPAN_QUALIFIED:
            return
        if id(node) not in ctx.with_context_calls:
            ctx.report(
                self,
                node,
                "phase span opened outside a `with` statement "
                "(unbalanced-span risk)",
            )


# ----------------------------------------------------------------------
# RL007 — wall-clock reads only in the observability layer
# ----------------------------------------------------------------------

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockOutsideObs(Rule):
    """Wall-clock reads outside ``repro/obs`` (benchmarks are never linted).

    The streaming-telemetry aggregators are held to the *same* standard as
    solver code even though they live inside ``repro/obs``:
    ``obs/window.py`` must stay clock-free (windowed values are pure
    functions of the event stream), and ``obs/emitter.py`` — whose
    ``every_seconds`` flush trigger is wall time by contract — is the one
    justified file-level suppression site.
    """

    id = "RL007"
    name = "wall-clock-outside-obs"
    rationale = (
        "Algorithms must be a pure function of (network, request, seed); a "
        "wall-clock read anywhere near a decision path is a reproducibility "
        "hazard.  Timing belongs to repro.obs spans and the benchmarks.  "
        "Engines that *report* measured runtime as a result metric carry a "
        "justified file-level suppression, as does obs/emitter.py (its "
        "every_seconds flush trigger is wall time by contract); "
        "obs/window.py gets no exemption at all — windowed aggregates must "
        "be pure functions of the event stream."
    )
    hint = "use an obs span, or suppress with a justification if the value is a reported metric"
    node_types = (ast.Call,)

    def applies_to(self, ctx: LintContext) -> bool:
        if ctx.in_module("repro/obs/emitter.py", "repro/obs/window.py"):
            return True
        return not ctx.in_package("repro/obs")

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.Call)
        qualified = ctx.qualified_call_name(node.func)
        if qualified in _WALL_CLOCK:
            ctx.report(
                self,
                node,
                f"wall-clock read {qualified}() outside the observability "
                "layer",
            )


# ----------------------------------------------------------------------
# RL008 — no bare/overbroad except in solver and engine paths
# ----------------------------------------------------------------------

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


class BroadExceptInSolverPath(Rule):
    """Bare ``except:`` / ``except Exception`` in solver or engine code."""

    id = "RL008"
    name = "broad-except-in-solver-path"
    rationale = (
        "A broad except in a solver or engine swallows the typed "
        "infeasibility/capacity exceptions the admission logic branches "
        "on, converting accounting bugs into silently wrong figures."
    )
    hint = "catch the specific repro.exceptions type the call can raise"
    node_types = (ast.ExceptHandler,)

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_package(
            "repro/core", "repro/simulation", "repro/resilience", "repro/graph"
        )

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            ctx.report(self, node, "bare `except:` in a solver/engine path")
            return
        for exc in self._exception_names(node.type):
            if exc in _BROAD_EXCEPTIONS:
                ctx.report(
                    self,
                    node,
                    f"overbroad `except {exc}` in a solver/engine path",
                )
                return

    @staticmethod
    def _exception_names(expr: ast.expr) -> List[str]:
        if isinstance(expr, ast.Tuple):
            names: List[str] = []
            for element in expr.elts:
                names.extend(BroadExceptInSolverPath._exception_names(element))
            return names
        if isinstance(expr, ast.Name):
            return [expr.id]
        if isinstance(expr, ast.Attribute):
            return [expr.attr]
        return []


# ----------------------------------------------------------------------
# RL011 — AllocationTransaction must commit/rollback on every path
# ----------------------------------------------------------------------

#: The transaction constructor and its re-export path.
_TXN_QUALIFIED = frozenset(
    {
        "repro.network.allocation.AllocationTransaction",
        "repro.network.AllocationTransaction",
    }
)


class TransactionWithoutExitPath(Rule):
    """``AllocationTransaction(...)`` created outside ``with``/``try-finally``.

    The manual ``txn = AllocationTransaction(n); try: ... except
    CapacityExceededError: txn.rollback()`` pattern is path-*insensitive*:
    any exception other than the one caught (a typed infeasibility error
    from deeper in the solver, a ``KeyboardInterrupt`` in a long sweep)
    leaks the partial reservation forever.  ``__exit__`` rolls back
    whenever ``commit()`` was not reached, so the ``with`` form is safe on
    every path; a ``try/finally`` that owns the rollback is equivalent.
    ``AllocationTransaction.adopt(...)`` builds an already-committed
    transaction and is exempt.
    """

    id = "RL011"
    name = "transaction-without-exit-path"
    rationale = (
        "An AllocationTransaction reserves residual capacity the moment "
        "allocate_* is called; unless construction is wrapped in `with` "
        "(or try/finally), any exception path that skips rollback() leaks "
        "the reservation and silently shrinks the network for every later "
        "request — the RL002 ownership story made path-sensitive."
    )
    hint = (
        "use `with AllocationTransaction(network) as txn:` and call "
        "txn.commit() on the success path (__exit__ rolls back otherwise)"
    )
    node_types = (ast.Call,)
    _allowed = ("repro/network/allocation.py",)

    def applies_to(self, ctx: LintContext) -> bool:
        return not ctx.in_module(*self._allowed)

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        assert isinstance(node, ast.Call)
        qualified = ctx.qualified_call_name(node.func)
        if qualified not in _TXN_QUALIFIED:
            return
        if id(node) in ctx.with_context_calls:
            return
        if id(node) in self._try_finally_nodes(ctx):
            return
        ctx.report(
            self,
            node,
            "AllocationTransaction created outside `with`/try-finally; "
            "an unexpected exception before commit() leaks the reservation",
        )

    @staticmethod
    def _try_finally_nodes(ctx: LintContext) -> frozenset:
        """ids of AST nodes covered by a ``try``/``finally``.

        Covered means inside the ``try`` body, or in the statement
        *directly before* it — the idiomatic ``txn = ...; try: ...
        finally: ...`` must construct the transaction one line above the
        ``try`` so the ``finally`` can reference it.
        """
        cached = getattr(ctx, "_rl011_try_finally", None)
        if cached is not None:
            return cached
        ids = set()

        def cover(stmt: ast.stmt) -> None:
            for inner in ast.walk(stmt):
                ids.add(id(inner))

        for outer in ctx.nodes:
            for block in ("body", "orelse", "finalbody"):
                statements = getattr(outer, block, None)
                if not isinstance(statements, list):
                    continue
                for index, stmt in enumerate(statements):
                    if isinstance(stmt, ast.Try) and stmt.finalbody:
                        for covered in stmt.body:
                            cover(covered)
                        if index > 0:
                            cover(statements[index - 1])
        frozen = frozenset(ids)
        ctx._rl011_try_finally = frozen  # type: ignore[attr-defined]
        return frozen


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

ALL_RULES: Tuple[Rule, ...] = (
    UncachedShortestPath(),
    ResidualWriteOutsideAllocation(),
    UnseededRandomness(),
    FloatEqualityOnCosts(),
    MutationWithoutEpochBump(),
    SpanOutsideWith(),
    WallClockOutsideObs(),
    BroadExceptInSolverPath(),
    TransactionWithoutExitPath(),
)
