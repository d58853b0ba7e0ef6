"""The project index: one cached pass over every file.

:meth:`ProjectIndex.build` parses and tokenizes each file once into a
:class:`~repro.lint.core.LintContext`, runs the per-file rules
(RL001–RL008, RL011) on it and, from the same tree, extracts everything
the cross-file rules (:mod:`repro.lint.xrules`) need:

- symbol tables: import aliases, ``__all__``, public top-level defs;
- per-class attribute maps: attributes assigned in ``__init__``,
  attributes *mutated* elsewhere, and the key sets of ``state()`` /
  ``restore()`` pairs (the RL009 inputs);
- a call graph keyed by dotted module path, with direct sink calls
  (raw Dijkstra, wall clock, ``hashlib``/merge) recorded per function
  (the transitive RL001/RL007 and RL010 inputs);
- set-valued iteration sites (the RL010 inputs);
- rendered signatures of every exported name (the RL012 inputs);
- the file's suppression pragmas, so the cross-file pass honours
  ``# repro-lint: disable=RLxxx`` without re-reading the source.

Everything in a :class:`ModuleInfo`, the per-file findings included, is
JSON-serializable, which is what makes the index *cacheable*: a file
whose content fingerprint (SHA-256) matches its cache entry is neither
parsed nor linted again, so a full run over an unedited tree costs one
cache load plus the cross-file rules.  The cache header carries a digest
of the linter's own sources and the Python version; when either differs
the whole cache is discarded.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import platform
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.core import Finding, LintContext, LintVisitor, module_key
from repro.lint.rules import ALL_RULES

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "dotted_module",
]

#: Method names whose call on ``self.<attr>`` counts as mutating the
#: attribute (the RL009 "mutable attribute" detector).  Deliberately a
#: closed list of container/aggregator mutators: a read-only method call
#: must never make an attribute checkpoint-required.
_MUTATOR_METHODS = frozenset(
    {
        "add", "advance", "append", "appendleft", "clear", "discard",
        "extend", "insert", "merge", "observe", "pop", "popitem",
        "popleft", "push", "remove", "reverse", "setdefault", "sort",
        "update",
    }
)

#: Builtins whose generator-expression argument is order-independent (or
#: re-orders anyway), so iterating a set inside them is not an RL010
#: hazard: ``all(p(x) for x in some_set)`` is fine, ``sorted(s)`` sorts.
_ORDER_FREE_WRAPPERS = frozenset(
    {"all", "any", "frozenset", "len", "max", "min", "set", "sorted"}
)

#: Methods that materialize an *ordered* structure from the loop body —
#: iterating a set directly into one of these is the RL010 trigger even
#: outside digest paths.
_ORDERING_SINKS = frozenset({"append", "appendleft", "extend", "insert"})


def dotted_module(key: str) -> str:
    """``repro/stream/engine.py`` -> ``repro.stream.engine``.

    Package ``__init__`` files map to the package itself
    (``repro/obs/__init__.py`` -> ``repro.obs``).
    """
    trimmed = key[:-3] if key.endswith(".py") else key
    if trimmed.endswith("/__init__"):
        trimmed = trimmed[: -len("/__init__")]
    return trimmed.replace("/", ".")


def _format_args(args: ast.arguments) -> str:
    """Render an ``ast.arguments`` node as a stable signature string."""

    def one(arg: ast.arg, default: Optional[ast.expr]) -> str:
        text = arg.arg
        if arg.annotation is not None:
            text += f": {ast.unparse(arg.annotation)}"
        if default is not None:
            joiner = " = " if arg.annotation is not None else "="
            text += joiner + ast.unparse(default)
        return text

    parts: List[str] = []
    positional = list(args.posonlyargs) + list(args.args)
    defaults: List[Optional[ast.expr]] = (
        [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    )
    for index, (arg, default) in enumerate(zip(positional, defaults)):
        parts.append(one(arg, default))
        if args.posonlyargs and index == len(args.posonlyargs) - 1:
            parts.append("/")
    if args.vararg is not None:
        parts.append("*" + one(args.vararg, None))
    elif args.kwonlyargs:
        parts.append("*")
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        parts.append(one(arg, default))
    if args.kwarg is not None:
        parts.append("**" + one(args.kwarg, None))
    return "(" + ", ".join(parts) + ")"


def _signature(node: ast.AST) -> str:
    """Signature string of a function def, including return annotation."""
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    text = _format_args(node.args)
    if node.returns is not None:
        text += f" -> {ast.unparse(node.returns)}"
    return text


@dataclass
class FunctionInfo:
    """One function or method: its signature, calls, and RL010 sites."""

    name: str
    lineno: int
    signature: str
    #: ``[qualified_or_marker, lineno]`` pairs.  Qualified names resolve
    #: through imports (``time.perf_counter``, ``repro.graph.dijkstra``);
    #: bare local calls become ``<dotted>.<name>``; unresolvable method
    #: calls are kept as ``?.<attr>`` markers (enough for sink matching).
    calls: List[List[Any]] = field(default_factory=list)
    #: ``[lineno, col, kind, builds_ordered]`` — iteration sites whose
    #: iterable is statically set-valued (see :func:`_is_set_valued`).
    set_iterations: List[List[Any]] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: bases, attribute maps, and checkpoint-pair facts."""

    name: str
    lineno: int
    #: Resolved base references: ``<dotted>.<Class>`` for project-local
    #: and imported bases, the raw name otherwise (``ABC``).
    bases: List[str] = field(default_factory=list)
    #: attr -> first assignment line inside ``__init__``.
    init_attrs: Dict[str, int] = field(default_factory=dict)
    #: attr -> first mutation line outside ``__init__``/state/restore.
    mutated_attrs: Dict[str, int] = field(default_factory=dict)
    has_state: bool = False
    has_restore: bool = False
    state_lineno: int = 0
    restore_lineno: int = 0
    #: Keys of the dict ``state()`` returns (dict-literal keys plus
    #: constant subscript stores like ``base["timing_rng"] = ...``).
    state_keys: List[str] = field(default_factory=list)
    #: Constant subscript keys read anywhere in ``restore``/``restore_state``.
    restore_keys: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClassInfo":
        methods = {
            name: FunctionInfo(**info) for name, info in data["methods"].items()
        }
        return cls(**dict(data, methods=methods))


@dataclass
class ModuleInfo:
    """One module's cross-file facts and its per-file findings."""

    path: str
    module: str
    dotted: str
    fingerprint: str
    module_aliases: Dict[str, str] = field(default_factory=dict)
    imported_names: Dict[str, str] = field(default_factory=dict)
    #: The literal ``__all__`` list, or ``None`` when the module has none.
    exports: Optional[List[str]] = None
    #: Public (non-underscore) top-level function/class names.
    public_defs: List[str] = field(default_factory=list)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    file_disables: List[str] = field(default_factory=list)
    line_disables: Dict[int, List[str]] = field(default_factory=dict)
    #: The per-file rules' findings (pragmas already applied).
    findings: List[Finding] = field(default_factory=list)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Whether a pragma silences ``rule_id`` at ``line`` in this file."""
        if rule_id in self.file_disables or "all" in self.file_disables:
            return True
        disabled = self.line_disables.get(line, ())
        return rule_id in disabled or "all" in disabled

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (``json`` turns the int line keys into str)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ModuleInfo":
        """Rebuild a :meth:`to_dict` entry read back from the cache.

        Raises:
            AttributeError, KeyError, TypeError, ValueError: on a
                malformed entry.
        """
        return cls(**dict(
            data,
            functions={
                name: FunctionInfo(**info)
                for name, info in data["functions"].items()
            },
            classes={
                name: ClassInfo.from_dict(info)
                for name, info in data["classes"].items()
            },
            line_disables={
                int(line): ids for line, ids in data["line_disables"].items()
            },
            findings=[Finding(**finding) for finding in data["findings"]],
        ))


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------


def _is_set_valued(expr: ast.expr, set_names: Set[str]) -> bool:
    """Whether ``expr`` is statically known to evaluate to a set."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in ("set", "frozenset"):
            return True
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_valued(expr.left, set_names) or _is_set_valued(
            expr.right, set_names
        )
    if isinstance(expr, ast.Name):
        return expr.id in set_names
    return False


def _local_set_names(nodes: List[ast.AST]) -> Set[str]:
    """Names assigned from set-valued expressions anywhere in a function
    (``nodes`` is the function's walk).

    Two fixpoint passes so ``a = set(x); b = a | other`` resolves ``b``.
    """
    assigns: List[Tuple[str, ast.expr]] = []
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                assigns.append((target.id, node.value))
    names: Set[str] = set()
    for _ in range(2):
        before = len(names)
        for name, value in assigns:
            if _is_set_valued(value, names):
                names.add(name)
        if len(names) == before:
            break
    return names


def _exempt_genexps(nodes: List[ast.AST]) -> Set[int]:
    """ids of genexps passed directly to an order-free builtin."""
    exempt: Set[int] = set()
    for node in nodes:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_FREE_WRAPPERS
        ):
            for arg in node.args:
                if isinstance(arg, ast.GeneratorExp):
                    exempt.add(id(arg))
    return exempt


def _loop_builds_order(body: List[ast.stmt]) -> bool:
    """Whether a loop body materializes an ordered sequence."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ORDERING_SINKS
            ):
                return True
    return False


def _set_iteration_sites(nodes: List[ast.AST]) -> List[List[Any]]:
    """RL010 raw material: set-valued iteration sites in a function."""
    set_names = _local_set_names(nodes)
    exempt = _exempt_genexps(nodes)
    sites: List[List[Any]] = []
    for node in nodes:
        if isinstance(node, ast.For):
            if _is_set_valued(node.iter, set_names):
                sites.append(
                    [
                        node.lineno,
                        node.col_offset,
                        "for",
                        _loop_builds_order(node.body),
                    ]
                )
        elif isinstance(node, (ast.ListComp, ast.DictComp)):
            for gen in node.generators:
                if _is_set_valued(gen.iter, set_names):
                    sites.append([node.lineno, node.col_offset, "comp", True])
        elif isinstance(node, ast.GeneratorExp) and id(node) not in exempt:
            for gen in node.generators:
                if _is_set_valued(gen.iter, set_names):
                    sites.append(
                        [node.lineno, node.col_offset, "genexp", True]
                    )
    return sites


class _Extractor:
    """Builds one :class:`ModuleInfo` from a parsed module."""

    def __init__(self, ctx: LintContext, fingerprint: str) -> None:
        self.ctx = ctx
        self.dotted = dotted_module(ctx.module)
        self.info = ModuleInfo(
            path=ctx.path,
            module=ctx.module,
            dotted=self.dotted,
            fingerprint=fingerprint,
            module_aliases=dict(ctx.module_aliases),
            imported_names=dict(ctx.imported_names),
            file_disables=sorted(ctx.file_disables),
            line_disables={
                line: sorted(ids)
                for line, ids in ctx.line_disables.items()
            },
        )
        self._toplevel: Set[str] = {
            node.name
            for node in ctx.tree.body
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        }

    def run(self) -> ModuleInfo:
        info = self.info
        for node in self.ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[node.name] = self._function(
                    node, list(ast.walk(node))
                )
                if not node.name.startswith("_"):
                    info.public_defs.append(node.name)
            elif isinstance(node, ast.ClassDef):
                info.classes[node.name] = self._class(node)
                if not node.name.startswith("_"):
                    info.public_defs.append(node.name)
            elif isinstance(node, ast.Assign):
                self._maybe_all(node)
        info.public_defs.sort()
        return info

    def _maybe_all(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    names = [
                        element.value
                        for element in node.value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    ]
                    self.info.exports = names

    # -- functions ------------------------------------------------------
    def _calls(
        self, nodes: List[ast.AST], own_methods: Optional[Set[str]] = None,
        class_name: Optional[str] = None,
    ) -> List[List[Any]]:
        calls: List[List[Any]] = []
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            qualified = self.ctx.qualified_call_name(node.func)
            if qualified is not None:
                calls.append([qualified, node.lineno])
            elif isinstance(node.func, ast.Name):
                if node.func.id in self._toplevel:
                    calls.append(
                        [f"{self.dotted}.{node.func.id}", node.lineno]
                    )
            elif isinstance(node.func, ast.Attribute):
                value = node.func.value
                if (
                    own_methods
                    and isinstance(value, ast.Name)
                    and value.id == "self"
                    and node.func.attr in own_methods
                ):
                    calls.append(
                        [
                            f"{self.dotted}.{class_name}.{node.func.attr}",
                            node.lineno,
                        ]
                    )
                else:
                    calls.append([f"?.{node.func.attr}", node.lineno])
        return calls

    def _function(
        self,
        node: ast.AST,
        nodes: List[ast.AST],
        own_methods: Optional[Set[str]] = None,
        class_name: Optional[str] = None,
    ) -> FunctionInfo:
        """``nodes`` is ``node``'s walk, shared with the class collectors."""
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        return FunctionInfo(
            name=node.name,
            lineno=node.lineno,
            signature=_signature(node),
            calls=self._calls(nodes, own_methods, class_name),
            set_iterations=_set_iteration_sites(nodes),
        )

    # -- classes --------------------------------------------------------
    def _resolve_base(self, base: ast.expr) -> str:
        if isinstance(base, ast.Name):
            if base.id in self.info.classes or base.id in self._toplevel:
                return f"{self.dotted}.{base.id}"
            imported = self.ctx.imported_names.get(base.id)
            return imported if imported is not None else base.id
        if isinstance(base, ast.Attribute):
            qualified = self.ctx.qualified_call_name(base)
            return qualified if qualified is not None else base.attr
        return ast.unparse(base)

    @staticmethod
    def _self_attr_target(expr: ast.expr) -> Optional[str]:
        """``self.X`` or ``self.X[...]`` store target -> ``X``."""
        if isinstance(expr, ast.Subscript):
            expr = expr.value
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
        return None

    def _class(self, node: ast.ClassDef) -> ClassInfo:
        info = ClassInfo(
            name=node.name,
            lineno=node.lineno,
            bases=[self._resolve_base(base) for base in node.bases],
        )
        method_names = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(ast.walk(item))
            info.methods[item.name] = self._function(
                item, nodes, method_names, node.name
            )
            if item.name == "__init__":
                self._collect_init_attrs(nodes, info)
            elif item.name == "state":
                info.has_state = True
                info.state_lineno = item.lineno
                info.state_keys = self._collect_state_keys(nodes)
            elif item.name in ("restore", "restore_state"):
                info.has_restore = True
                info.restore_lineno = item.lineno
                info.restore_keys = sorted(
                    set(info.restore_keys)
                    | set(self._collect_subscript_reads(nodes))
                )
            else:
                self._collect_mutations(nodes, info)
        return info

    def _collect_init_attrs(
        self, nodes: List[ast.AST], info: ClassInfo
    ) -> None:
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        attr = self._self_attr_target(target)
                        if attr is not None:
                            info.init_attrs.setdefault(attr, node.lineno)

    def _collect_mutations(
        self, nodes: List[ast.AST], info: ClassInfo
    ) -> None:
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attr = self._self_attr_target(target)
                    if attr is not None:
                        info.mutated_attrs.setdefault(attr, node.lineno)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATOR_METHODS:
                    attr = self._self_attr_target(node.func.value)
                    if attr is not None:
                        info.mutated_attrs.setdefault(attr, node.lineno)

    def _collect_state_keys(self, nodes: List[ast.AST]) -> List[str]:
        """Keys the checkpoint dict carries: every constant string key of
        a dict literal in ``state()`` (returned directly or built in a
        local first) plus constant subscript stores (``base["k"] = ...``,
        the idiom subclasses use on top of ``super().state()``)."""
        keys: Set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        keys.add(key.value)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        keys.add(target.slice.value)
        return sorted(keys)

    @staticmethod
    def _collect_subscript_reads(nodes: List[ast.AST]) -> List[str]:
        keys: Set[str] = set()
        for node in nodes:
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                keys.add(node.slice.value)
        return sorted(keys)


def _fingerprint(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def build_module_info(path: str, source: str) -> Optional[ModuleInfo]:
    """Analyze one module in one pass; ``None`` for files outside ``repro``.

    The source is parsed and tokenized once into a :class:`LintContext`.
    The per-file rules (:data:`ALL_RULES`) run on it, and their findings
    land in :attr:`ModuleInfo.findings` next to the cross-file facts
    extracted from the same tree.  A file outside ``repro`` is parsed
    (so a syntax error is still reported) but not analyzed.

    Raises:
        SyntaxError: if the source does not parse (the runner converts
            this into its synthetic RL000 finding).
    """
    tree = ast.parse(source, filename=path)
    if not module_key(path):
        return None
    ctx = LintContext(path=path, source=source, tree=tree)
    findings = LintVisitor(ALL_RULES, ctx).run()
    info = _Extractor(ctx, _fingerprint(source)).run()
    info.findings = findings
    return info


# ----------------------------------------------------------------------
# the cache file
# ----------------------------------------------------------------------


def _linter_digest() -> str:
    """SHA-256 over the source files of this package.

    A cache entry is only as good as the code that produced it: editing a
    rule or the extractor must discard every entry.
    """
    digest = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode("utf-8") + b"\0" + handle.read())
    return digest.hexdigest()


def _cache_header() -> Dict[str, str]:
    """What a cache file must match to be reused (``ast`` output may
    differ between Python versions, so the version is part of it)."""
    return {"linter": _linter_digest(), "python": platform.python_version()}


def _load_cache(
    cache_path: str, header: Dict[str, str]
) -> Dict[str, Dict[str, Any]]:
    """The cached entries by path; ``{}`` when the file is missing or
    unreadable, or was written under another header."""
    try:
        with open(cache_path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict) or any(
        payload.get(key) != value for key, value in header.items()
    ):
        return {}
    modules = payload.get("modules")
    return modules if isinstance(modules, dict) else {}


def _save_cache(
    cache_path: str,
    header: Dict[str, str],
    entries: Dict[str, Dict[str, Any]],
) -> None:
    # json.dumps encodes in C; json.dump to a file would take the slower
    # pure-Python path for the same bytes
    text = json.dumps(dict(header, modules=entries), sort_keys=True)
    tmp = cache_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, cache_path)


# ----------------------------------------------------------------------
# the index
# ----------------------------------------------------------------------


class ProjectIndex:
    """Every module's facts and findings plus resolution helpers."""

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        #: path -> ModuleInfo
        self.modules: Dict[str, ModuleInfo] = {}
        #: dotted module -> ModuleInfo (``repro.stream.engine``)
        self.by_dotted: Dict[str, ModuleInfo] = {}
        for info in modules:
            self.modules[info.path] = info
            self.by_dotted[info.dotted] = info
        #: files that failed to parse this build: path -> SyntaxError
        self.broken: Dict[str, SyntaxError] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._reach_memo: Dict[Tuple[str, str], bool] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "ProjectIndex":
        """Build an in-memory index from ``{path: source}`` (fixtures)."""
        infos: List[ModuleInfo] = []
        broken: Dict[str, SyntaxError] = {}
        for path in sorted(sources):
            try:
                info = build_module_info(path, sources[path])
            except SyntaxError as exc:
                broken[path] = exc
                continue
            if info is not None:
                infos.append(info)
        index = cls(infos)
        index.broken = broken
        index.cache_misses = len(index.modules)
        return index

    @classmethod
    def build(
        cls,
        files: Iterable[str],
        cache_path: Optional[str] = None,
    ) -> "ProjectIndex":
        """Analyze every ``repro`` file in ``files``, one pass each.

        With ``cache_path``, a file whose content fingerprint matches its
        cache entry reuses the entry (facts and per-file findings)
        without being parsed, and the cache file is rewritten only when
        an entry changed.  Files outside ``repro`` are only parsed, so
        that one which does not parse still lands in :attr:`broken`.

        Raises:
            OSError: if a file cannot be read.
        """
        header = _cache_header()
        cached = {} if cache_path is None else _load_cache(cache_path, header)
        entries: Dict[str, Dict[str, Any]] = {}
        infos: List[ModuleInfo] = []
        broken: Dict[str, SyntaxError] = {}
        hits = misses = 0
        for path in sorted(set(files)):
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            entry = cached.get(path)
            fresh = isinstance(entry, dict) and (
                entry.get("fingerprint") == _fingerprint(source)
            )
            if fresh:
                try:
                    infos.append(ModuleInfo.from_dict(entry))
                except (AttributeError, KeyError, TypeError, ValueError):
                    pass  # malformed entry: fall through to re-parse
                else:
                    entries[path] = entry
                    hits += 1
                    continue
            try:
                info = build_module_info(path, source)
            except SyntaxError as exc:
                broken[path] = exc
                continue
            if info is None:
                continue
            infos.append(info)
            misses += 1
            if cache_path is not None:
                entries[path] = info.to_dict()
        index = cls(infos)
        index.broken = broken
        index.cache_hits = hits
        index.cache_misses = misses
        if cache_path is not None and (misses or len(entries) != len(cached)):
            _save_cache(cache_path, header, entries)
        return index

    # -- symbol resolution ----------------------------------------------
    def resolve_export(self, dotted_name: str) -> Optional[str]:
        """Follow re-export chains to the defining ``module.Name``.

        ``repro.stream.StreamEngine`` ->
        ``repro.stream.engine.StreamEngine``.  Returns ``None`` when the
        chain leaves the indexed project.
        """
        current = dotted_name
        for _ in range(16):  # re-export chains are short; cycles bail out
            prefix, _, name = current.rpartition(".")
            module = self.by_dotted.get(prefix)
            if module is None:
                return None
            if name in module.functions or name in module.classes:
                return current
            target = module.imported_names.get(name)
            if target is None or target == current:
                return None
            current = target
        return None

    def lookup_symbol(
        self, dotted_name: str
    ) -> Tuple[Optional[ModuleInfo], Optional[Any]]:
        """The (module, FunctionInfo|ClassInfo) a dotted name defines."""
        resolved = self.resolve_export(dotted_name)
        if resolved is None:
            return None, None
        prefix, _, name = resolved.rpartition(".")
        module = self.by_dotted[prefix]
        return module, module.functions.get(name) or module.classes.get(name)

    # -- call graph -----------------------------------------------------
    def function_node(
        self, node_key: str
    ) -> Tuple[Optional[ModuleInfo], Optional[FunctionInfo]]:
        """Resolve ``module.func`` or ``module.Class.method`` node keys."""
        prefix, _, name = node_key.rpartition(".")
        module = self.by_dotted.get(prefix)
        if module is not None and name in module.functions:
            return module, module.functions[name]
        # the prefix may be module.Class
        mod_prefix, _, cls_name = prefix.rpartition(".")
        owner = self.by_dotted.get(mod_prefix)
        if owner is not None and cls_name in owner.classes:
            method = owner.classes[cls_name].methods.get(name)
            if method is not None:
                return owner, method
        return None, None

    def resolve_call(self, call: str) -> Optional[str]:
        """Resolve a recorded call string to a function node key."""
        if call.startswith("?."):
            return None
        module, symbol = self.function_node(call)
        if symbol is not None:
            assert module is not None
            return call
        resolved = self.resolve_export(call)
        if resolved is None:
            return None
        prefix, _, name = resolved.rpartition(".")
        module = self.by_dotted.get(prefix)
        if module is not None and name in module.functions:
            return resolved
        return None

    def reaches_sink(
        self,
        node_key: str,
        sink_tag: str,
        direct_sink,
        exempt_module,
    ) -> bool:
        """Whether ``node_key`` (transitively) performs a sink call.

        ``direct_sink(call_string) -> bool`` marks the sinks;
        ``exempt_module(module_key) -> bool`` marks absorbing modules —
        their functions never count as reaching (the sanctioned layers).
        Memoized per ``sink_tag``; a cycle back into the current walk
        contributes ``False`` (a sink elsewhere on the cycle still wins,
        because every member is probed from the original entry point).
        """
        return self._reaches(node_key, sink_tag, direct_sink,
                             exempt_module, set())

    def _reaches(
        self, node_key, sink_tag, direct_sink, exempt_module, on_path
    ) -> bool:
        memo_key = (sink_tag, node_key)
        memo = self._reach_memo
        if memo_key in memo:
            return memo[memo_key]
        if node_key in on_path:
            return False  # cycle: no memo write, resolved by the caller
        module, func = self.function_node(node_key)
        if module is None or func is None or exempt_module(module.module):
            memo[memo_key] = False
            return False
        if any(direct_sink(call) for call, _ in func.calls):
            memo[memo_key] = True
            return True
        on_path.add(node_key)
        try:
            for call, _ in func.calls:
                target = self.resolve_call(call)
                if target is not None and self._reaches(
                    target, sink_tag, direct_sink, exempt_module, on_path
                ):
                    memo[memo_key] = True
                    return True
        finally:
            on_path.discard(node_key)
        if not on_path:
            # only safe to cache False at the walk root: inner nodes may
            # have been cut short by the cycle check above
            memo[memo_key] = False
        return False
