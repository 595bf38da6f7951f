"""Graph-construction edge cases for :mod:`repro.lint.graphs`.

Each resolution mechanism the call graph claims — ``__init__`` re-exports,
relative imports, star imports, aliased imports, ``functools.partial`` — is
pinned by a fixture module under ``tests/lint_fixtures/graph_project``, so a
regression in the symbol tables fails here before it silently degrades the
graph rules to "unknown callee" everywhere.
"""

from __future__ import annotations

import os

from repro.lint.framework import ModuleInfo, collect_files
from repro.lint.graphs import build_project_graph, module_name_for_path

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")


def build(project: str):
    modules = []
    for path in collect_files([os.path.join(FIXTURES, project)]):
        with open(path, "r", encoding="utf-8") as handle:
            modules.append(ModuleInfo(path, handle.read()))
    return build_project_graph(modules)


def callee_set(graph, qname, kind=None):
    return {
        site.callee
        for site in graph.callees(qname)
        if site.callee is not None and (kind is None or site.kind == kind)
    }


class TestModuleNaming:
    def test_init_names_the_package(self):
        path = os.path.join(FIXTURES, "graph_project", "gp", "__init__.py")
        assert module_name_for_path(path) == "gp"

    def test_submodule_walks_the_package_chain(self):
        path = os.path.join(FIXTURES, "graph_project", "gp", "core.py")
        assert module_name_for_path(path) == "gp.core"

    def test_loose_file_resolves_to_its_stem(self):
        path = os.path.join(FIXTURES, "numeric_determinism_ok.py")
        assert module_name_for_path(path) == "numeric_determinism_ok"


class TestCallResolution:
    def test_reexport_through_init_is_chased(self):
        graph = build("graph_project")
        assert graph.resolve_symbol("gp", "compute") == "gp.core:compute"

    def test_relative_imports_resolve(self):
        # ``from . import compute`` (a package re-export) and
        # ``from .core import twice as t2`` (aliased sibling import).
        graph = build("graph_project")
        assert "gp.core:twice" in callee_set(graph, "gp.relative:run", kind="call")

    def test_function_reference_argument_becomes_a_ref_edge(self):
        graph = build("graph_project")
        assert "gp.core:compute" in callee_set(graph, "gp.relative:run", kind="ref")

    def test_star_import_resolves(self):
        graph = build("graph_project")
        assert "gp.core:compute" in callee_set(graph, "gp.star:run_star")

    def test_aliased_module_import_resolves(self):
        graph = build("graph_project")
        assert "gp.core:compute" in callee_set(graph, "gp.aliased:run_alias")

    def test_functools_partial_first_argument_is_a_deferred_call(self):
        graph = build("graph_project")
        refs = [
            site
            for site in graph.callees("gp.partial_user:run_partial")
            if site.kind == "ref"
        ]
        assert any(site.callee == "gp.core:compute" for site in refs)

    def test_unresolvable_calls_degrade_to_unknown(self):
        # ``fn(fn(x))`` inside gp.core:twice and ``callback()`` in
        # gp.partial_user:run_partial have no static target: recorded as
        # unknown callees, never a crash.
        graph = build("graph_project")
        assert graph.unknown_calls >= 2
        assert any(site.callee is None for site in graph.callees("gp.core:twice"))


class TestImportEdges:
    def test_lazy_imports_are_tagged(self):
        graph = build("layering_project")
        module_level = {e.dst for e in graph.module_level_imports("lp.engine")}
        assert module_level == {"lp.costmodel"}
        lazy = {e.dst for e in graph.imports if e.src == "lp.engine" and e.lazy}
        assert lazy == {"lp.service"}

    def test_render_dot_distinguishes_lazy_edges(self):
        graph = build("layering_project")
        dot = graph.render_dot()
        assert '"lp.costmodel" -> "lp.service";' in dot
        assert '"lp.engine" -> "lp.service" [style=dashed, color=gray];' in dot

    def test_render_json_is_stable_and_complete(self):
        graph = build("graph_project")
        payload = graph.render_json()
        assert payload["summary"]["modules"] == len(payload["modules"])
        assert payload["summary"]["functions"] == len(payload["functions"])
        edges = [(e["src"], e["dst"]) for e in payload["imports"]]
        assert edges == sorted(edges)
        assert ("gp", "gp.core") in edges
