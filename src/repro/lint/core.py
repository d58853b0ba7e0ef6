"""Visitor core for the invariant linter: findings, rules, suppressions.

One :class:`LintContext` is built per file, and it is the only parse of
that file: the per-file rules and the project index's extractor
(:mod:`repro.lint.project`) both read it.  The context walks the tree
once into a node list and pre-computes the facts most rules need —
import aliases, the set of calls used as ``with``-statement context
expressions, suppression comments — and then :class:`LintVisitor`
dispatches every node of that list to the rules that registered
interest in its type.  Rules therefore never re-walk the tree.

Suppression syntax (checked by ``tests/lint/test_suppressions.py``):

- ``# repro-lint: disable=RL001`` on the flagged line (or the line directly
  above, as a standalone comment) silences the listed rules for that line;
- ``# repro-lint: disable=RL001,RL007`` silences several rules at once;
- ``# repro-lint: disable-file=RL007`` anywhere in the file silences the
  listed rules for the whole file (use for files whose purpose conflicts
  with a rule, e.g. the engine's reported-runtime measurements vs RL007).

A suppression should always carry a justification in the same comment or an
adjacent one — ``repro lint`` cannot check prose, but review can.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

#: Matches one suppression pragma inside a comment.  Both forms may share a
#: comment with free-text justification after the rule list.
_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a concrete source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def format(self) -> str:
        """Render the canonical one-line ``path:line:col: RULE message``."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            text += f"  [hint: {self.hint}]"
        return text

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (the ``--format json`` payload)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


class Rule:
    """Base class for one invariant rule.

    Subclasses set the class attributes and implement :meth:`visit`, which
    is called once for every AST node whose type is listed in
    ``node_types``.  Findings are emitted through ``ctx.report`` so the
    context can apply suppressions centrally.
    """

    #: Stable identifier, e.g. ``"RL001"`` (used in pragmas).
    id: str = ""
    #: Short kebab-case name for listings.
    name: str = ""
    #: The invariant the rule protects (one sentence, shown by --list-rules).
    rationale: str = ""
    #: Default remediation hint attached to findings.
    hint: str = ""
    #: AST node classes this rule wants to see.
    node_types: Tuple[Type[ast.AST], ...] = ()

    def applies_to(self, ctx: "LintContext") -> bool:
        """Whether the rule runs on this file at all (module scoping)."""
        return True

    def visit(self, node: ast.AST, ctx: "LintContext") -> None:
        """Inspect one node, calling ``ctx.report`` for each violation."""
        raise NotImplementedError


def module_key(path: str) -> str:
    """Normalize a filesystem path to a ``repro/...`` module key.

    The linter scopes every rule by position inside the ``repro`` package
    (``repro/network/sdn.py``, ``repro/obs/registry.py`` …), so fixtures can
    impersonate any module by choosing their path.  Files outside the
    package (tests, benchmarks, scripts) normalize to ``""`` and are not
    linted: the invariants are contracts of the library, not of the code
    that exercises it.
    """
    normalized = path.replace("\\", "/")
    marker = "repro/"
    index = normalized.rfind("/" + marker)
    if index >= 0:
        return normalized[index + 1:]
    if normalized.startswith(marker):
        return normalized
    return ""


def pragma_comments(source: str) -> List[Tuple[int, str, Set[str], bool]]:
    """Every suppression pragma in the comments of ``source``.

    Returns one ``(line, kind, rule_ids, standalone)`` tuple per pragma:
    ``kind`` is ``"disable"`` or ``"disable-file"``, and ``standalone``
    says that nothing but the comment is on its line.  Pragma-shaped text
    in strings and docstrings is not a comment, so it never counts.
    """
    if "repro-lint" not in source:
        return []  # no comment can hold a pragma: skip tokenizing
    pragmas: List[Tuple[int, str, Set[str], bool]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            line, col = token.start
            standalone = not token.line[:col].strip()
            for kind, rules in _PRAGMA.findall(token.string):
                ids = {r.strip() for r in rules.split(",") if r.strip()}
                pragmas.append((line, kind, ids, standalone))
    except tokenize.TokenError:  # pragma: no cover - parse already passed
        pass
    return pragmas


class LintContext:
    """Per-file state shared by every rule during one walk."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        #: Every node of ``tree``, walked once and shared by all readers.
        self.nodes: List[ast.AST] = list(ast.walk(tree))
        #: ``repro/...`` key ("" when the file is outside the package).
        self.module = module_key(path)
        #: local alias -> imported module path ("import repro.graph as g").
        self.module_aliases: Dict[str, str] = {}
        #: local name -> "module.attr" ("from repro.obs import span as s").
        self.imported_names: Dict[str, str] = {}
        #: ``id()`` of every Call node used as a with-item context expr.
        self.with_context_calls: Set[int] = set()
        #: line -> rule ids disabled on that line ("all" disables every rule).
        self._line_disables: Dict[int, Set[str]] = {}
        #: rule ids disabled for the whole file.
        self._file_disables: Set[str] = set()
        self.findings: List[Finding] = []
        self._collect_imports_and_withs()
        self._collect_suppressions()

    # ------------------------------------------------------------------
    # pre-passes
    # ------------------------------------------------------------------
    def _collect_imports_and_withs(self) -> None:
        for node in self.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports are not used in this repo
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imported_names[local] = f"{node.module}.{alias.name}"
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        self.with_context_calls.add(id(item.context_expr))

    def _collect_suppressions(self) -> None:
        for line, kind, ids, standalone in pragma_comments(self.source):
            if kind == "disable-file":
                self._file_disables |= ids
                continue
            self._line_disables.setdefault(line, set()).update(ids)
            if standalone:
                # a standalone comment also covers the next source line
                self._line_disables.setdefault(line + 1, set()).update(ids)

    # ------------------------------------------------------------------
    # suppression visibility (the project index serializes these so the
    # cross-file pass can honour pragmas without re-reading the source)
    # ------------------------------------------------------------------
    @property
    def line_disables(self) -> Dict[int, Set[str]]:
        """line -> rule ids disabled on that line (read-only view)."""
        return self._line_disables

    @property
    def file_disables(self) -> Set[str]:
        """Rule ids disabled for the whole file (read-only view)."""
        return self._file_disables

    # ------------------------------------------------------------------
    # name resolution helpers used by the rules
    # ------------------------------------------------------------------
    def qualified_call_name(self, func: ast.expr) -> Optional[str]:
        """Resolve a call's function expression to a dotted import path.

        ``Name`` nodes resolve through ``from``-imports; ``Attribute``
        chains resolve their base through plain imports, so both
        ``perf_counter()`` (after ``from time import perf_counter``) and
        ``time.perf_counter()`` normalize to ``time.perf_counter``.
        Returns ``None`` for calls on local objects.
        """
        if isinstance(func, ast.Name):
            return self.imported_names.get(func.id)
        if isinstance(func, ast.Attribute):
            parts: List[str] = [func.attr]
            value = func.value
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if not isinstance(value, ast.Name):
                return None
            base = self.module_aliases.get(value.id)
            if base is None:
                base = self.imported_names.get(value.id)
            if base is None:
                return None
            parts.append(base)
            return ".".join(reversed(parts))
        return None

    def in_module(self, *keys: str) -> bool:
        """Whether this file is exactly one of the given ``repro/...`` keys."""
        return self.module in keys

    def in_package(self, *prefixes: str) -> bool:
        """Whether this file lives under one of the ``repro/...`` prefixes."""
        return any(
            self.module == p or self.module.startswith(p.rstrip("/") + "/")
            for p in prefixes
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(
        self,
        rule: Rule,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> None:
        """Record a finding unless a pragma suppresses it."""
        if rule.id in self._file_disables or "all" in self._file_disables:
            return
        line = getattr(node, "lineno", 1)
        disabled = self._line_disables.get(line, ())
        if rule.id in disabled or "all" in disabled:
            return
        self.findings.append(
            Finding(
                rule=rule.id,
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                message=message,
                hint=rule.hint if hint is None else hint,
            )
        )


class LintVisitor:
    """Single-walk dispatcher: each node goes to the rules that want it."""

    def __init__(self, rules: Sequence[Rule], ctx: LintContext) -> None:
        self._ctx = ctx
        self._dispatch: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in rules:
            if not rule.applies_to(ctx):
                continue
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)

    def run(self) -> List[Finding]:
        """Dispatch the context's node list and return the surviving
        findings (suppressed ones never enter ``ctx.findings``)."""
        dispatch = self._dispatch
        if dispatch:
            ctx = self._ctx
            for node in ctx.nodes:
                for rule in dispatch.get(type(node), ()):
                    rule.visit(node, ctx)
        return self._ctx.findings
