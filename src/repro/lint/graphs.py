"""Whole-program graphs for ``warlock lint``: imports and calls.

PR 8's rules are lexical — each looks at one module's AST at a time — which
is blind to exactly the hazards the parity and boundary contracts care about:
a ``time.time()`` three calls upstream of a fingerprint, or an unpicklable
closure handed to a helper that forwards it into ``ProcessPoolExecutor``.
This module builds the two whole-program structures the graph rules run on:

* the **module import graph** — every project-internal import edge, tagged
  with its line and whether it is a *module-level* edge (executed at import
  time, the edges layering conformance is judged on) or a *lazy* one (inside
  a function body or a ``TYPE_CHECKING`` block — the repo's sanctioned
  escape hatch for upward calls);
* a **conservative call graph** — per-function nodes keyed by qualified name
  (``module:Class.method``), with call edges resolved through the module
  symbol tables: plain names, ``self.method(...)``, module-alias attribute
  chains (``import repro.engine as e; e.stable_digest(...)``), re-exports
  through ``__init__`` (``from repro.engine import EvaluationCache``), star
  imports, aliased imports, and first arguments of ``functools.partial``.
  Function references passed as arguments become ``ref`` edges (a potential
  call — the executor invokes worker entry points it never names in a call
  expression).  Anything the symbol tables cannot resolve degrades to an
  *unknown callee* — recorded, never a crash and never a guess.

The graphs are deliberately conservative in both directions: no type
inference, no dataflow through containers, no dynamic dispatch.  Rules built
on top must treat "unknown" as "no evidence", not as "safe".

``warlock lint --graph dot|json`` renders the import graph (and, for JSON,
the call graph summary) for offline inspection and the CI artifact.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.framework import ModuleInfo

__all__ = [
    "CallSite",
    "FunctionNode",
    "ImportEdge",
    "ProjectGraph",
    "build_project_graph",
    "module_name_for_path",
]


@dataclass(frozen=True)
class ImportEdge:
    """One project-internal import: ``src`` imports ``dst`` at ``line``."""

    src: str
    dst: str
    line: int
    #: True when the import executes lazily (inside a function) or never
    #: (``TYPE_CHECKING``); layering conformance ignores lazy edges.
    lazy: bool
    #: Symbol names pulled across (``()`` for ``import x``, ``("*",)`` for
    #: star imports).
    names: Tuple[str, ...] = ()


@dataclass(frozen=True)
class CallSite:
    """One (potential) call out of a function."""

    #: Resolved callee qualified name (``module:qualname``); None when the
    #: symbol tables could not resolve the target ("unknown callee").
    callee: Optional[str]
    #: The call target as written (``np.sum``, ``self._probe`` ...).
    dotted: str
    line: int
    #: ``call`` for a call expression, ``ref`` for a function reference
    #: passed as an argument (a potential indirect call).
    kind: str = "call"


@dataclass
class FunctionNode:
    """One function or method in the project call graph."""

    qname: str
    module: str
    path: str
    name: str
    line: int
    #: Positional parameter names in order (self included for methods).
    params: Tuple[str, ...]
    calls: List[CallSite] = field(default_factory=list)


def module_name_for_path(path: str) -> str:
    """Dotted module name for ``path``, walking up ``__init__.py`` chains.

    ``src/repro/engine/cache.py`` -> ``repro.engine.cache``; a file whose
    directory is not a package resolves to its bare stem (fixtures).
    """
    absolute = os.path.abspath(path)
    directory, filename = os.path.split(absolute)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.exists(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        if not package:
            break
        parts.insert(0, package)
    return ".".join(parts) if parts else stem


class _ModuleSymbols:
    """Top-level name bindings of one module (the resolution substrate)."""

    def __init__(self, module: str, is_package: bool) -> None:
        self.module = module
        self.is_package = is_package
        #: name -> qualified name of a function/class defined here.
        self.defs: Dict[str, str] = {}
        #: class name -> set of method names (for self./Class. resolution).
        self.class_methods: Dict[str, Set[str]] = {}
        #: local alias -> (source module, original symbol) from ``from`` imports.
        self.symbol_imports: Dict[str, Tuple[str, str]] = {}
        #: local alias -> dotted module name from ``import``/submodule imports.
        self.module_aliases: Dict[str, str] = {}
        #: modules star-imported into this namespace, in order.
        self.star_sources: List[str] = []


class ProjectGraph:
    """The import graph plus the conservative call graph of one lint run."""

    def __init__(self) -> None:
        #: module name -> source path (as scanned).
        self.modules: Dict[str, str] = {}
        #: source path -> module name.
        self.module_of_path: Dict[str, str] = {}
        self.imports: List[ImportEdge] = []
        #: qualified name -> function node.
        self.functions: Dict[str, FunctionNode] = {}
        self._symbols: Dict[str, _ModuleSymbols] = {}
        #: count of call sites that resolved to no project symbol.
        self.unknown_calls: int = 0

    # -- queries ---------------------------------------------------------------

    def module_level_imports(self, src: str) -> List[ImportEdge]:
        """The non-lazy import edges out of module ``src``."""
        return [e for e in self.imports if e.src == src and not e.lazy]

    def functions_in_module(self, module: str) -> List[FunctionNode]:
        return [node for node in self.functions.values() if node.module == module]

    def callees(self, qname: str) -> List[CallSite]:
        node = self.functions.get(qname)
        return list(node.calls) if node is not None else []

    def resolve_symbol(self, module: str, name: str) -> Optional[str]:
        """Chase ``name`` in ``module`` through re-export chains.

        Returns a function/class qualified name (``mod:qualname``), a module
        name (when the symbol is a submodule), or None.
        """
        return self._chase(module, name, set())

    def resolve_expression(
        self,
        module: str,
        expr: ast.expr,
        class_name: Optional[str] = None,
        local_defs: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        """Resolve a Name/Attribute expression in ``module``'s namespace.

        The public face of the call-target resolver, for rules that walk
        their own ASTs: ``class_name`` enables ``self.method`` resolution,
        ``local_defs`` maps names bound to nested functions in the enclosing
        scope.  Returns a qualified name, a module name, or None.
        """
        symbols = self._symbols.get(module)
        if symbols is None:
            return None
        return _resolve_target(self, symbols, expr, class_name, local_defs or {})

    # -- construction helpers --------------------------------------------------

    def _chase(self, module: str, name: str, seen: Set[Tuple[str, str]]) -> Optional[str]:
        if (module, name) in seen:
            return None
        seen.add((module, name))
        symbols = self._symbols.get(module)
        if symbols is None:
            return None
        if name in symbols.defs:
            return symbols.defs[name]
        submodule = f"{module}.{name}"
        if submodule in self.modules:
            return submodule
        if name in symbols.symbol_imports:
            source, original = symbols.symbol_imports[name]
            return self._chase(source, original, seen)
        if name in symbols.module_aliases:
            target = symbols.module_aliases[name]
            return target if target in self.modules else None
        for source in symbols.star_sources:
            resolved = self._chase(source, name, seen)
            if resolved is not None:
                return resolved
        return None

    # -- rendering -------------------------------------------------------------

    def render_dot(self) -> str:
        """The import graph in Graphviz dot (module-level solid, lazy dashed)."""
        lines = ["digraph imports {", "  rankdir=LR;", '  node [shape=box, fontsize=10];']
        for name in sorted(self.modules):
            lines.append(f'  "{name}";')
        edges: Set[Tuple[str, str, bool]] = set()
        for edge in self.imports:
            edges.add((edge.src, edge.dst, edge.lazy))
        for src, dst, lazy in sorted(edges):
            style = ' [style=dashed, color=gray]' if lazy else ""
            lines.append(f'  "{src}" -> "{dst}"{style};')
        lines.append("}")
        return "\n".join(lines)

    def render_json(self) -> Dict[str, object]:
        """JSON-ready description of both graphs (stable ordering)."""
        return {
            "modules": {name: self.modules[name] for name in sorted(self.modules)},
            "imports": [
                {
                    "src": edge.src,
                    "dst": edge.dst,
                    "line": edge.line,
                    "lazy": edge.lazy,
                    "names": list(edge.names),
                }
                for edge in sorted(
                    self.imports, key=lambda e: (e.src, e.dst, e.line)
                )
            ],
            "functions": {
                qname: {
                    "path": node.path,
                    "line": node.line,
                    "calls": [
                        {
                            "callee": site.callee,
                            "dotted": site.dotted,
                            "line": site.line,
                            "kind": site.kind,
                        }
                        for site in node.calls
                    ],
                }
                for qname, node in sorted(self.functions.items())
            },
            "summary": {
                "modules": len(self.modules),
                "import_edges": len(self.imports),
                "functions": len(self.functions),
                "unknown_calls": self.unknown_calls,
            },
        }


def build_project_graph(modules: Sequence[ModuleInfo]) -> ProjectGraph:
    """Build the import and call graphs over the scanned ``modules``."""
    graph = ProjectGraph()
    infos: List[Tuple[ModuleInfo, str, bool]] = []
    for info in modules:
        name = module_name_for_path(info.path)
        is_package = os.path.basename(info.path) == "__init__.py"
        if name in graph.modules:
            # Duplicate module names (loose fixture files): first wins, the
            # rest degrade to unresolvable — never a crash.
            continue
        graph.modules[name] = info.path
        graph.module_of_path[info.path] = name
        infos.append((info, name, is_package))

    for info, name, is_package in infos:
        _collect_symbols_and_imports(graph, info, name, is_package)
    # Register every function node first, then resolve call sites: a call in
    # module A may target a function in module B scanned later.
    for info, name, _ in infos:
        _walk_functions(graph, info, name, record_calls=False)
    for info, name, _ in infos:
        _walk_functions(graph, info, name, record_calls=True)
    for node in graph.functions.values():
        graph.unknown_calls += sum(1 for site in node.calls if site.callee is None)
    return graph


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _resolve_relative(module: str, is_package: bool, level: int, target: Optional[str]) -> str:
    """Absolute module name for a relative ``from``-import."""
    parts = module.split(".")
    # In a package's __init__, level 1 is the package itself; in a plain
    # module, level 1 is its containing package.
    drop = level - 1 if is_package else level
    base = parts[: len(parts) - drop] if drop else parts
    if target:
        base = base + target.split(".")
    return ".".join(base)


def _project_prefix(graph: ProjectGraph, dotted: str) -> Optional[str]:
    """Longest prefix of ``dotted`` that names a scanned module."""
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        candidate = ".".join(parts[:end])
        if candidate in graph.modules:
            return candidate
    return None


def _collect_symbols_and_imports(
    graph: ProjectGraph, info: ModuleInfo, name: str, is_package: bool
) -> None:
    symbols = _ModuleSymbols(name, is_package)
    graph._symbols[name] = symbols

    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols.defs[node.name] = f"{name}:{node.name}"
        elif isinstance(node, ast.ClassDef):
            symbols.defs[node.name] = f"{name}:{node.name}"
            symbols.class_methods[node.name] = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }

    # Walk every import statement, tracking laziness: anything nested in a
    # function executes lazily; a TYPE_CHECKING block never executes.
    def walk(body: Sequence[ast.stmt], lazy: bool) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                _record_import(graph, symbols, name, node, lazy)
            elif isinstance(node, ast.ImportFrom):
                _record_import_from(graph, symbols, name, is_package, node, lazy)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(node.body, True)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, lazy)
            elif isinstance(node, ast.If):
                branch_lazy = lazy or _is_type_checking_test(node.test)
                walk(node.body, branch_lazy)
                walk(node.orelse, lazy)
            elif isinstance(node, (ast.Try, ast.With, ast.For, ast.While)):
                walk(getattr(node, "body", []), lazy)
                walk(getattr(node, "orelse", []), lazy)
                walk(getattr(node, "finalbody", []), lazy)
                for handler in getattr(node, "handlers", []):
                    walk(handler.body, lazy)

    walk(info.tree.body, False)


def _record_import(
    graph: ProjectGraph,
    symbols: _ModuleSymbols,
    module: str,
    node: ast.Import,
    lazy: bool,
) -> None:
    for alias in node.names:
        target = alias.name
        bound = alias.asname if alias.asname else target.split(".")[0]
        if alias.asname:
            symbols.module_aliases[bound] = target
        else:
            symbols.module_aliases.setdefault(bound, target.split(".")[0])
        dst = _project_prefix(graph, target)
        if dst is not None and dst != module:
            graph.imports.append(
                ImportEdge(src=module, dst=dst, line=node.lineno, lazy=lazy)
            )


def _record_import_from(
    graph: ProjectGraph,
    symbols: _ModuleSymbols,
    module: str,
    is_package: bool,
    node: ast.ImportFrom,
    lazy: bool,
) -> None:
    if node.level:
        source = _resolve_relative(module, is_package, node.level, node.module)
    else:
        source = node.module or ""
    if not source:
        return
    names: List[str] = []
    for alias in node.names:
        names.append(alias.name)
        bound = alias.asname if alias.asname else alias.name
        if alias.name == "*":
            symbols.star_sources.append(source)
        elif f"{source}.{alias.name}" in graph.modules:
            # ``from repro import engine`` binds a submodule, not a symbol.
            symbols.module_aliases[bound] = f"{source}.{alias.name}"
        else:
            symbols.symbol_imports[bound] = (source, alias.name)
    dst = _project_prefix(graph, source)
    if dst is not None and dst != module:
        graph.imports.append(
            ImportEdge(
                src=module, dst=dst, line=node.lineno, lazy=lazy, names=tuple(names)
            )
        )


#: Dotted suffixes treated as ``functools.partial``.
_PARTIAL_NAMES = {"partial", "functools.partial"}


def _dotted_text(expr: ast.expr) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _walk_functions(
    graph: ProjectGraph, info: ModuleInfo, module: str, record_calls: bool
) -> None:
    symbols = graph._symbols[module]

    def add_function(
        node: ast.AST,
        qualname: str,
        class_name: Optional[str],
        local_defs: Dict[str, str],
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        qname = f"{module}:{qualname}"
        if not record_calls:
            args = node.args
            params = tuple(
                a.arg
                for a in (
                    list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
                )
            )
            graph.functions[qname] = FunctionNode(
                qname=qname,
                module=module,
                path=info.path,
                name=node.name,
                line=node.lineno,
                params=params,
            )
        func = graph.functions[qname]

        # Nested defs become their own nodes; names they bind resolve locally.
        nested: Dict[str, str] = dict(local_defs)
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested[child.name] = f"{module}:{qualname}.{child.name}"

        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add_function(child, f"{qualname}.{child.name}", class_name, nested)
            elif record_calls:
                for sub in ast.walk(child):
                    if isinstance(sub, ast.Call):
                        _record_call(graph, symbols, func, sub, class_name, nested)

    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, node.name, None, {})
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add_function(item, f"{node.name}.{item.name}", node.name, {})


def _record_call(
    graph: ProjectGraph,
    symbols: _ModuleSymbols,
    func: FunctionNode,
    call: ast.Call,
    class_name: Optional[str],
    local_defs: Dict[str, str],
) -> None:
    dotted = _dotted_text(call.func) or "<dynamic>"
    callee = _resolve_target(graph, symbols, call.func, class_name, local_defs)
    func.calls.append(
        CallSite(callee=callee, dotted=dotted, line=call.lineno, kind="call")
    )
    # functools.partial(f, ...): the first argument is a deferred call.
    if dotted in _PARTIAL_NAMES and call.args:
        target = call.args[0]
        ref_dotted = _dotted_text(target)
        if ref_dotted is not None:
            resolved = _resolve_target(graph, symbols, target, class_name, local_defs)
            func.calls.append(
                CallSite(
                    callee=resolved, dotted=ref_dotted, line=call.lineno, kind="ref"
                )
            )
        return
    # Function references handed to another call are potential calls.
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        if isinstance(arg, (ast.Name, ast.Attribute)):
            ref_dotted = _dotted_text(arg)
            if ref_dotted is None:
                continue
            resolved = _resolve_target(graph, symbols, arg, class_name, local_defs)
            if resolved is not None and resolved in graph.functions:
                func.calls.append(
                    CallSite(
                        callee=resolved, dotted=ref_dotted, line=arg.lineno, kind="ref"
                    )
                )


def _resolve_target(
    graph: ProjectGraph,
    symbols: _ModuleSymbols,
    expr: ast.expr,
    class_name: Optional[str],
    local_defs: Dict[str, str],
) -> Optional[str]:
    """Resolve a call/reference target to a project qualified name."""
    if isinstance(expr, ast.Name):
        if expr.id in local_defs:
            return local_defs[expr.id]
        resolved = graph.resolve_symbol(symbols.module, expr.id)
        return _normalize(graph, resolved)
    if not isinstance(expr, ast.Attribute):
        return None
    dotted = _dotted_text(expr)
    if dotted is None:
        return None
    parts = dotted.split(".")
    # self.method() inside a class body.
    if parts[0] == "self" and class_name is not None and len(parts) == 2:
        methods = symbols.class_methods.get(class_name, set())
        if parts[1] in methods:
            return f"{symbols.module}:{class_name}.{parts[1]}"
        return None
    # Expand a leading module alias, then find the longest module prefix.
    head = parts[0]
    if head in symbols.module_aliases:
        parts = symbols.module_aliases[head].split(".") + parts[1:]
    elif head in symbols.symbol_imports:
        source, original = symbols.symbol_imports[head]
        base = graph.resolve_symbol(source, original)
        if base is None:
            return None
        if base in graph.modules:
            parts = base.split(".") + parts[1:]
        elif ":" in base and len(parts) == 2:
            # Class imported from elsewhere: Class.method
            base_module, base_name = base.split(":", 1)
            base_symbols = graph._symbols.get(base_module)
            if (
                base_symbols is not None
                and parts[1] in base_symbols.class_methods.get(base_name, set())
            ):
                return f"{base_module}:{base_name}.{parts[1]}"
            return None
        else:
            return None
    elif head in symbols.class_methods and len(parts) == 2:
        # Class.method on a locally defined class.
        if parts[1] in symbols.class_methods[head]:
            return f"{symbols.module}:{head}.{parts[1]}"
        return None
    dotted = ".".join(parts)
    prefix = _project_prefix(graph, dotted)
    if prefix is None:
        return None
    remainder = dotted[len(prefix) :].lstrip(".")
    if not remainder:
        return prefix
    tail = remainder.split(".")
    if len(tail) == 1:
        return _normalize(graph, graph.resolve_symbol(prefix, tail[0]))
    if len(tail) == 2:
        target_symbols = graph._symbols.get(prefix)
        if target_symbols is not None and tail[1] in target_symbols.class_methods.get(
            tail[0], set()
        ):
            return f"{prefix}:{tail[0]}.{tail[1]}"
    return None


def _normalize(graph: ProjectGraph, resolved: Optional[str]) -> Optional[str]:
    """Collapse class qnames onto their ``__init__`` when one exists."""
    if resolved is None:
        return None
    if ":" in resolved:
        init = f"{resolved.split(':', 1)[0]}:{resolved.split(':', 1)[1]}.__init__"
        if init in graph.functions:
            return init
    return resolved
