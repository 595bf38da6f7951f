"""Rule ``layering``: module-level imports must point down the layer map.

The repo's package architecture is a strict layering — foundation value
objects at the bottom (``errors``/``skew``/``storage``), the cost model and
allocation kernels above them, the evaluation ``engine`` above those, the
``api`` session layer above the engine, and the ``service``/``cli`` front
ends on top, with ``repro.lint`` importable by nothing it analyzes.  Nothing
in Python enforces that: one convenient ``from repro.service import ...``
inside the engine and the layers silently invert.  This rule checks every
*module-level* import edge of the project import graph against a declared
layer map:

* an import whose target sits on a **higher** layer than the importer is an
  upward import — a finding at the offending ``import`` line;
* any **cycle** among module-level imports is a finding (one per cycle,
  anchored at the lexicographically first participant), whatever the layers
  say — cycles make import order load-bearing.

Lazy imports (inside a function body, or under ``TYPE_CHECKING``) are the
repo's sanctioned escape hatch for upward *calls* — the engine invoking an
``api`` progress callback, the CLI loading ``lint`` on demand — and are
deliberately exempt: they do not execute at import time.

The layer map lives in a ``[lint.layers]`` block of the nearest ``setup.cfg``
found walking up from each scanned file (so fixture projects carry their
own maps, and a new package slots in with one new line).  Keys
are dotted module prefixes, values are integers (lower = more foundational);
a module's layer is its **longest matching prefix**.  Modules matching no
prefix are outside the map and exempt from layer checks (never from cycle
checks).
"""

from __future__ import annotations

import configparser
import os
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.framework import (
    Finding,
    LintError,
    ModuleInfo,
    ProjectIndex,
    Rule,
    register,
)
from repro.lint.graphs import ImportEdge, ProjectGraph

CONFIG_FILENAME = "setup.cfg"
CONFIG_SECTION = "lint.layers"


def load_layer_map(start: str) -> Dict[str, int]:
    """The ``[lint.layers]`` map from the nearest ``setup.cfg`` above ``start``.

    Returns ``{}`` when no config with the section exists on the path to the
    filesystem root.
    """
    directory = os.path.abspath(start if os.path.isdir(start) else os.path.dirname(start))
    while True:
        candidate = os.path.join(directory, CONFIG_FILENAME)
        if os.path.isfile(candidate):
            layers = _parse_layer_config(candidate)
            if layers is not None:
                return layers
        parent = os.path.dirname(directory)
        if parent == directory:
            return {}
        directory = parent


def _parse_layer_config(path: str) -> Optional[Dict[str, int]]:
    """``{prefix: layer}`` from ``path``; None when the section is absent."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # type: ignore[method-assign, assignment]
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as error:
        raise LintError(f"cannot parse {path}: {error}") from error
    if not parser.has_section(CONFIG_SECTION):
        return None
    layers: Dict[str, int] = {}
    for prefix, value in parser.items(CONFIG_SECTION):
        try:
            layers[prefix] = int(value)
        except ValueError as error:
            raise LintError(
                f"{path}: [lint.layers] {prefix} = {value!r} is not an integer"
            ) from error
    return layers


def layer_of(module: str, layers: Dict[str, int]) -> Optional[int]:
    """Layer of ``module`` by longest matching dotted prefix (None: unmapped)."""
    best: Optional[int] = None
    best_length = -1
    for prefix, layer in layers.items():
        if module == prefix or module.startswith(prefix + "."):
            if len(prefix) > best_length:
                best = layer
                best_length = len(prefix)
    return best


def _strongly_connected(edges: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan SCCs (iterative) over the module-level import adjacency."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    result: List[List[str]] = []
    counter = [0]

    for root in sorted(edges):
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            children = edges.get(node, [])
            advanced = False
            for position in range(child_index, len(children)):
                child = children[position]
                if child not in index:
                    work[-1] = (node, position + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack.get(child):
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    result.append(sorted(component))
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return result


@register
class LayeringRule(Rule):
    name = "layering"
    description = (
        "module-level imports must not point to a higher layer of the "
        "declared [lint.layers] map, and must form no cycles"
    )

    def __init__(self) -> None:
        self._layer_cache: Dict[str, Dict[str, int]] = {}
        self._cycles: Optional[List[List[str]]] = None

    def _layers_for(self, module: ModuleInfo) -> Dict[str, int]:
        directory = os.path.dirname(os.path.abspath(module.path))
        if directory not in self._layer_cache:
            self._layer_cache[directory] = load_layer_map(module.path)
        return self._layer_cache[directory]

    def _cycle_findings(
        self, module: ModuleInfo, name: str, graph: ProjectGraph
    ) -> Iterator[Finding]:
        if self._cycles is None:
            adjacency: Dict[str, List[str]] = {mod: [] for mod in graph.modules}
            for edge in graph.imports:
                if not edge.lazy and edge.dst in graph.modules:
                    adjacency[edge.src].append(edge.dst)
            for targets in adjacency.values():
                targets.sort()
            self._cycles = _strongly_connected(adjacency)
        for component in self._cycles:
            # One finding per cycle, anchored on the first participant's
            # first edge into the cycle.
            if component[0] != name:
                continue
            members = set(component)
            anchor = next(
                (
                    edge
                    for edge in sorted(
                        graph.module_level_imports(name), key=lambda e: e.line
                    )
                    if edge.dst in members
                ),
                None,
            )
            line = anchor.line if anchor is not None else 1
            yield Finding(
                rule=self.name,
                path=module.path,
                line=line,
                col=0,
                message=(
                    f"import cycle among modules: {' -> '.join(component)} -> "
                    f"{component[0]}; module-level cycles make import order "
                    f"load-bearing — break one edge or make it lazy"
                ),
                snippet=module.snippet(line),
            )

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterator[Finding]:
        graph = project.graph
        if graph is None:
            return
        name = graph.module_of_path.get(module.path)
        if name is None:
            return
        layers = self._layers_for(module)
        if layers:
            source_layer = layer_of(name, layers)
            for edge in graph.module_level_imports(name):
                target_layer = layer_of(edge.dst, layers)
                if source_layer is None or target_layer is None:
                    continue
                if target_layer > source_layer:
                    yield Finding(
                        rule=self.name,
                        path=module.path,
                        line=edge.line,
                        col=0,
                        message=(
                            f"upward import: {name} (layer {source_layer}) "
                            f"imports {edge.dst} (layer {target_layer}) at "
                            f"module level; higher layers may only be "
                            f"reached through lazy (function-scope) imports"
                        ),
                        snippet=module.snippet(edge.line),
                    )
        yield from self._cycle_findings(module, name, graph)
