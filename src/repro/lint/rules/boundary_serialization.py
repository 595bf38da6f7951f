"""Rule ``boundary-serialization``: serialization boundaries, transitively.

A lambda spelled directly inside ``pool.submit(...)`` is the easy case; the
same lambda handed to a helper that forwards it into the pool two calls
later, a closure tucked into a dataclass field, or an open handle reaching
the cache store's pickle path are not visible at any single call site.  This
rule checks the literal call sites and runs the same checks *through the
call graph*:

* **Boundary sinks** are the places a value leaves the process or the
  object graph: ``ProcessPoolExecutor`` ``submit``/``map``/``initargs``
  (kind ``pool``), ``pickle.dump``/``pickle.dumps`` and
  ``np.savez``/``np.savez_compressed`` (kind ``store`` — the
  :class:`~repro.engine.store.CacheStore` spill formats), and
  ``json.dump``/``json.dumps`` (kind ``wire`` — every ``to_dict`` payload
  the HTTP service emits goes through it).
* **Summaries**: a function parameter that flows into a boundary call —
  directly, or as an argument to another function whose parameter does —
  is *boundary-reaching*.  The summaries propagate over the call graph to a
  fixpoint, so a helper chain of any depth is seen.
* **Checks**: at every call whose argument lands in a boundary-reaching
  parameter, the argument expression must not contain a lambda, a reference
  to a function nested inside another function (a closure), an inline
  ``open(...)`` handle, or — for the ``pool`` kind only — a module-level
  mutable (workers receive a copy; mutation silently diverges).  A project
  dataclass whose **field default is a lambda** is flagged when it crosses
  any boundary: the instance drags the unpicklable default along.

Direct sinks — the arguments of ``submit``/``map`` on a name bound to a
pool, a pool constructor's ``initargs=``, and the literal arguments of the
store and wire calls — are checked where they are spelled, so each defect is
reported once, at the call that hands it over.  Unresolvable callees
contribute no summaries — conservative both ways; the parity/service test
suites remain the runtime backstop.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.framework import (
    Finding,
    ModuleInfo,
    ProjectIndex,
    Rule,
    register,
)
from repro.lint.graphs import ProjectGraph

_POOL_TYPES = {"ProcessPoolExecutor", "Pool"}
_POOL_METHODS = {"submit", "map", "apply_async", "imap", "imap_unordered"}

#: Dotted boundary calls -> boundary kind.
BOUNDARY_CALLS: Dict[str, str] = {
    "pickle.dump": "store",
    "pickle.dumps": "store",
    "np.savez": "store",
    "np.savez_compressed": "store",
    "numpy.savez": "store",
    "numpy.savez_compressed": "store",
    "json.dump": "wire",
    "json.dumps": "wire",
}

_KIND_LABEL = {
    "pool": "the process-pool boundary",
    "store": "the cache-store pickle/npz path",
    "wire": "the JSON wire format",
}


def _dotted_text(expr: ast.expr) -> Optional[str]:
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class _CallRecord:
    """One call with its argument expressions, for the summary fixpoint."""

    callee: str
    node: ast.Call
    #: (callee parameter name, argument expression) pairs.
    bindings: List[Tuple[str, ast.expr]]
    #: Parameter names of the *enclosing* function appearing per binding.
    caller_params: List[Set[str]]


@dataclass
class _FunctionFacts:
    qname: str
    module_path: str
    params: Tuple[str, ...]
    #: (param name, kind) pairs that reach a boundary directly in this body.
    direct: Set[Tuple[str, str]] = field(default_factory=set)
    calls: List[_CallRecord] = field(default_factory=list)


@dataclass
class _ModuleFacts:
    pool_names: Set[str] = field(default_factory=set)
    nested_functions: Set[str] = field(default_factory=set)
    module_mutables: Dict[str, int] = field(default_factory=dict)
    #: Direct boundary payloads to check lexically: (kind, argument exprs).
    direct_sinks: List[Tuple[str, List[ast.expr]]] = field(default_factory=list)


@register
class BoundarySerializationRule(Rule):
    name = "boundary-serialization"
    description = (
        "values reaching a pool submit, the cache-store pickle/npz path or "
        "the JSON wire — through any helper chain or dataclass field — must "
        "be serializable"
    )

    def __init__(self) -> None:
        self._module_facts: Dict[str, _ModuleFacts] = {}
        self._functions: Dict[str, _FunctionFacts] = {}
        #: dataclass qname -> (field name, line) of a lambda field default.
        self._bad_dataclasses: Dict[str, Tuple[str, int]] = {}
        self._summary: Optional[Dict[str, Set[Tuple[str, str]]]] = None
        self._graph: Optional[ProjectGraph] = None

    # -- collect ----------------------------------------------------------------

    def collect(self, module: ModuleInfo, project: ProjectIndex) -> None:
        graph = project.graph
        if graph is None:
            return
        self._graph = graph
        name = graph.module_of_path.get(module.path)
        if name is None:
            return
        facts = _ModuleFacts()
        self._module_facts[module.path] = facts
        _collect_module_facts(module, facts)
        _collect_bad_dataclasses(module, name, self._bad_dataclasses)
        _collect_function_facts(module, name, graph, facts, self._functions)

    # -- fixpoint ---------------------------------------------------------------

    def _boundary_summary(self) -> Dict[str, Set[Tuple[str, str]]]:
        """(param, kind) pairs per function that reach a boundary."""
        if self._summary is not None:
            return self._summary
        summary: Dict[str, Set[Tuple[str, str]]] = {
            qname: set(facts.direct) for qname, facts in self._functions.items()
        }
        changed = True
        while changed:
            changed = False
            for qname, facts in self._functions.items():
                mine = summary[qname]
                for record in facts.calls:
                    callee = summary.get(record.callee)
                    if not callee:
                        continue
                    for (param, expr), caller_params in zip(
                        record.bindings, record.caller_params
                    ):
                        kinds = {kind for (name, kind) in callee if name == param}
                        for kind in kinds:
                            for caller_param in caller_params:
                                if (caller_param, kind) not in mine:
                                    mine.add((caller_param, kind))
                                    changed = True
        self._summary = summary
        return summary

    # -- check ------------------------------------------------------------------

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterator[Finding]:
        graph = project.graph
        if graph is None:
            return
        name = graph.module_of_path.get(module.path)
        if name is None:
            return
        facts = self._module_facts.get(module.path)
        if facts is None:
            return
        summary = self._boundary_summary()

        # 1. Direct sinks: the literal arguments must serialize.
        for kind, payload in facts.direct_sinks:
            for arg in payload:
                yield from self._check_expr(module, facts, arg, kind, direct=True)

        # 2. Transitive sites: arguments landing in boundary-reaching params.
        for qname, function in self._functions.items():
            if function.module_path != module.path:
                continue
            for record in function.calls:
                reaching = summary.get(record.callee, set())
                if not reaching:
                    continue
                for param, expr in record.bindings:
                    kinds = sorted({k for (p, k) in reaching if p == param})
                    for kind in kinds:
                        yield from self._check_expr(
                            module, facts, expr, kind, direct=False, callee=record.callee
                        )

    def _check_expr(
        self,
        module: ModuleInfo,
        facts: _ModuleFacts,
        expr: ast.expr,
        kind: str,
        direct: bool,
        callee: Optional[str] = None,
    ) -> Iterator[Finding]:
        where = _KIND_LABEL[kind]
        via = "" if direct else f" via {callee}"
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Lambda):
                yield module.finding(
                    self.name,
                    sub,
                    f"lambda reaches {where}{via}: lambdas do not "
                    f"serialize; use a module-level function",
                )
            elif isinstance(sub, ast.Call):
                dotted = _dotted_text(sub.func)
                if dotted == "open":
                    yield module.finding(
                        self.name,
                        sub,
                        f"open() handle reaches {where}{via}: pass the path "
                        f"and open at the consumer",
                    )
                elif dotted is not None:
                    yield from self._check_dataclass(module, sub, dotted, kind, via)
            elif isinstance(sub, ast.Name):
                if sub.id in facts.nested_functions:
                    yield module.finding(
                        self.name,
                        sub,
                        f"nested function {sub.id!r} reaches {where}{via}: "
                        f"closures do not serialize; hoist it to module level",
                    )
                elif kind == "pool" and sub.id in facts.module_mutables:
                    yield module.finding(
                        self.name,
                        sub,
                        f"module-level mutable {sub.id!r} (defined at line "
                        f"{facts.module_mutables[sub.id]}) reaches {where}"
                        f"{via}: workers receive a copy, so mutation "
                        f"silently diverges; pass an immutable snapshot",
                    )

    def _check_dataclass(
        self, module: ModuleInfo, call: ast.Call, dotted: str, kind: str, via: str
    ) -> Iterator[Finding]:
        # Resolution through the project graph: the constructor may be
        # imported under an alias or re-exported.
        resolved = self._resolve_in_module(module, call.func)
        if resolved is None:
            return
        bad = self._bad_dataclasses.get(resolved)
        if bad is None:
            return
        field_name, line = bad
        yield module.finding(
            self.name,
            call,
            f"dataclass {resolved} crosses {_KIND_LABEL[kind]}{via} but its "
            f"field {field_name!r} defaults to a lambda (defined at line "
            f"{line} of its module): the instance drags an unserializable "
            f"default along; use a module-level function or a sentinel",
        )

    def _resolve_in_module(self, module: ModuleInfo, expr: ast.expr) -> Optional[str]:
        graph = self._graph
        if graph is None:
            return None
        name = graph.module_of_path.get(module.path)
        if name is None:
            return None
        return graph.resolve_expression(name, expr)


def _collect_module_facts(module: ModuleInfo, facts: _ModuleFacts) -> None:
    """Pool names, nested function names, module mutables, direct sinks."""
    depth = 0

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            nonlocal depth
            if depth > 0:
                facts.nested_functions.add(node.name)
            depth += 1
            self.generic_visit(node)
            depth -= 1

        visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

        def visit_Assign(self, node: ast.Assign) -> None:
            value = node.value
            if isinstance(value, ast.Call):
                dotted = _dotted_text(value.func)
                if dotted is not None and dotted.split(".")[-1] in _POOL_TYPES:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            facts.pool_names.add(target.id)
            if depth == 0 and isinstance(
                value,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        facts.module_mutables[target.id] = node.lineno
            self.generic_visit(node)

        def visit_With(self, node: ast.With) -> None:
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    dotted = _dotted_text(expr.func)
                    if (
                        dotted is not None
                        and dotted.split(".")[-1] in _POOL_TYPES
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        facts.pool_names.add(item.optional_vars.id)
            self.generic_visit(node)

        visit_AsyncWith = visit_With  # type: ignore[assignment]

    Visitor().visit(module.tree)
    # Sinks are found after the visit, once every pool name of the module is
    # known: a submit may be spelled above the line binding its pool.
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            sink = _boundary_sink(node, facts.pool_names)
            if sink is not None:
                facts.direct_sinks.append(sink)


def _boundary_sink(
    call: ast.Call, pool_names: Set[str]
) -> Optional[Tuple[str, List[ast.expr]]]:
    """(kind, argument exprs) when ``call`` hands values across a boundary.

    Store and wire calls and ``submit``/``map`` on a pool name hand over
    every argument; a pool constructor hands over its ``initargs=``.
    """
    dotted = _dotted_text(call.func)
    payload = list(call.args) + [kw.value for kw in call.keywords]
    if dotted is not None and dotted in BOUNDARY_CALLS:
        return BOUNDARY_CALLS[dotted], payload
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in _POOL_METHODS
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id in pool_names
    ):
        return "pool", payload
    if dotted is not None and dotted.split(".")[-1] in _POOL_TYPES:
        initargs = [kw.value for kw in call.keywords if kw.arg == "initargs"]
        if initargs:
            return "pool", initargs
    return None


def _collect_bad_dataclasses(
    module: ModuleInfo, name: str, bad: Dict[str, Tuple[str, int]]
) -> None:
    """Project dataclasses whose field default (or default=) is a lambda."""
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        is_dataclass = False
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            dotted = _dotted_text(target)
            if dotted is not None and dotted.split(".")[-1] == "dataclass":
                is_dataclass = True
        if not is_dataclass:
            continue
        for item in node.body:
            if not isinstance(item, ast.AnnAssign) or item.value is None:
                continue
            if not isinstance(item.target, ast.Name):
                continue
            default = item.value
            lambda_default = isinstance(default, ast.Lambda)
            if isinstance(default, ast.Call):
                dotted = _dotted_text(default.func)
                if dotted is not None and dotted.split(".")[-1] == "field":
                    for keyword in default.keywords:
                        if keyword.arg == "default" and isinstance(
                            keyword.value, ast.Lambda
                        ):
                            lambda_default = True
            if lambda_default:
                bad[f"{name}:{node.name}"] = (item.target.id, item.lineno)


def _params_in(expr: ast.expr, params: Sequence[str]) -> Set[str]:
    names: Set[str] = set()
    wanted = set(params)
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name) and sub.id in wanted:
            names.add(sub.id)
    return names


def _collect_function_facts(
    module: ModuleInfo,
    name: str,
    graph: ProjectGraph,
    module_facts: _ModuleFacts,
    out: Dict[str, _FunctionFacts],
) -> None:
    """Per-function boundary facts and resolved call records."""

    def walk_function(
        node: ast.AST,
        qualname: str,
        class_name: Optional[str],
        local_defs: Dict[str, str],
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        qname = f"{name}:{qualname}"
        graph_node = graph.functions.get(qname)
        params: Tuple[str, ...] = graph_node.params if graph_node is not None else ()
        facts = _FunctionFacts(qname=qname, module_path=module.path, params=params)
        out[qname] = facts

        nested: Dict[str, str] = dict(local_defs)
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested[child.name] = f"{name}:{qualname}.{child.name}"

        own_statements = [
            child
            for child in node.body
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for stmt in own_statements:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    _record_one_call(
                        module, name, graph, facts, module_facts, sub,
                        class_name, nested,
                    )
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk_function(child, f"{qualname}.{child.name}", class_name, nested)

    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            walk_function(node, node.name, None, {})
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk_function(item, f"{node.name}.{item.name}", node.name, {})


def _record_one_call(
    module: ModuleInfo,
    name: str,
    graph: ProjectGraph,
    facts: _FunctionFacts,
    module_facts: _ModuleFacts,
    call: ast.Call,
    class_name: Optional[str],
    local_defs: Dict[str, str],
) -> None:
    # Direct boundary: mark which of this function's params cross it.
    sink = _boundary_sink(call, module_facts.pool_names)
    if sink is not None:
        kind, payload = sink
        for arg in payload:
            for param in _params_in(arg, facts.params):
                facts.direct.add((param, kind))
        return

    # Project call: record the argument bindings for the summary fixpoint.
    callee = graph.resolve_expression(name, call.func, class_name, local_defs)
    if callee is None or callee not in graph.functions:
        return
    callee_node = graph.functions[callee]
    offset = 0
    if callee_node.params and callee_node.params[0] in ("self", "cls"):
        if isinstance(call.func, ast.Attribute) or callee.endswith(".__init__"):
            offset = 1
    bindings: List[Tuple[str, ast.expr]] = []
    caller_params: List[Set[str]] = []
    for position, arg in enumerate(call.args):
        index = position + offset
        if index < len(callee_node.params):
            bindings.append((callee_node.params[index], arg))
            caller_params.append(_params_in(arg, facts.params))
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in callee_node.params:
            bindings.append((keyword.arg, keyword.value))
            caller_params.append(_params_in(keyword.value, facts.params))
    if bindings:
        facts.calls.append(
            _CallRecord(
                callee=callee, node=call, bindings=bindings, caller_params=caller_params
            )
        )
