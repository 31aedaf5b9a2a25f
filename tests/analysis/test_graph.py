"""The whole-program graph layer: modules, imports, symbols, calls.

Exercised over fixture mini-packages (``tests/analysis/fixtures/proj_*``)
so every behaviour is pinned against a known tree: dotted-name
resolution, toplevel-vs-deferred import records, Tarjan cycle
detection, star-import fixpoint resolution, cross-module call-graph
reachability, and executor submit-site extraction.
"""

from __future__ import annotations

from .conftest import REPO_ROOT, build_fixture_project

from repro.analysis.graph import (
    build_project,
    find_cycles,
    module_name_for,
)
from repro.analysis.graph.symbols import Symbol


class TestModules:
    def test_dotted_names_from_package_ancestry(self):
        files, project = build_fixture_project("proj_layer_ok")
        assert "proj_layer_ok" in project.modules
        assert "proj_layer_ok.core.ops" in project.modules
        assert "proj_layer_ok.engine.turbine" in project.modules

    def test_module_name_stops_at_non_package_dir(self):
        path = (
            REPO_ROOT
            / "tests/analysis/fixtures/proj_layer_ok/core/ops.py"
        )
        # fixtures/ has no __init__.py, so the walk stops at the package
        assert module_name_for(path) == "proj_layer_ok.core.ops"

    def test_module_at_maps_paths_back(self):
        files, project = build_fixture_project("proj_cycle")
        info = project.module_at(files[-1])
        assert info is not None and info.name.startswith("proj_cycle")

    def test_syntax_error_files_are_skipped(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        project = build_project([bad], root=tmp_path)
        assert project.modules == {}


class TestImportGraph:
    def test_resolved_edges(self):
        _, project = build_fixture_project("proj_layer_ok")
        edges = project.imports.edges()
        assert (
            "proj_layer_ok.core.ops"
            in edges["proj_layer_ok.engine.turbine"]
        )

    def test_function_level_import_is_deferred(self):
        _, project = build_fixture_project("proj_layer_ok")
        records = project.imports.imports_of(
            "proj_layer_ok.core.deferred"
        )
        assert records, "the deferred import should still be recorded"
        assert all(not r.toplevel for r in records)
        assert (
            "proj_layer_ok.core.deferred"
            not in project.imports.edges()
            or not project.imports.edges()["proj_layer_ok.core.deferred"]
        )

    def test_cycle_detected(self):
        _, project = build_fixture_project("proj_cycle")
        cycles = find_cycles(project.imports.edges())
        assert cycles == [["proj_cycle.alpha", "proj_cycle.beta"]]

    def test_acyclic_tree_has_no_cycles(self):
        _, project = build_fixture_project("proj_layer_ok")
        assert find_cycles(project.imports.edges()) == []

    def test_self_loop_reported(self):
        assert find_cycles({"a": {"a"}}) == [["a"]]
        assert find_cycles({"a": {"b"}, "b": set()}) == []


class TestSymbols:
    def test_star_import_resolves_to_origin(self):
        _, project = build_fixture_project("proj_star")
        table = project.symbols["proj_star.middle"]
        symbol = table.resolve("helper")
        assert symbol == Symbol("def", "proj_star.base", "helper")
        assert symbol.qualified == "proj_star.base.helper"

    def test_star_import_brings_all_exports(self):
        _, project = build_fixture_project("proj_star")
        table = project.symbols["proj_star.middle"]
        assert table.resolve("shared_value") is not None

    def test_all_names_carry_lines(self):
        _, project = build_fixture_project("proj_dead")
        table = project.symbols["proj_dead.lib"]
        assert table.all_names is not None
        assert [name for name, _ in table.all_names] == [
            "dead_fn",
            "used_fn",
        ]

    def test_submodule_import_binds_module_symbol(self):
        _, project = build_fixture_project("proj_cycle")
        table = project.symbols["proj_cycle.alpha"]
        symbol = table.resolve("beta")
        assert symbol is not None and symbol.kind == "module"
        assert symbol.origin == "proj_cycle.beta"


class TestCallGraph:
    def test_cross_module_call_through_star_import(self):
        _, project = build_fixture_project("proj_star")
        edges = project.callgraph.calls_from("proj_star.middle:run_all")
        assert "proj_star.base:helper" in edges

    def test_submit_sites_extracted(self):
        _, project = build_fixture_project("proj_reach")
        sites = project.callgraph.submit_sites
        methods = sorted(site.method for site in sites)
        assert methods == ["map", "submit", "submit"]

    def test_submit_targets_resolve_across_modules(self):
        _, project = build_fixture_project("proj_reach")
        roots = project.callgraph.submit_roots()
        assert "proj_reach.state:record" in roots
        assert "proj_reach.state:bump" in roots

    def test_reachability_crosses_module_boundary(self):
        _, project = build_fixture_project("proj_reach")
        reachable = project.callgraph.reachable(
            project.callgraph.submit_roots()
        )
        assert "proj_reach.state:record" in reachable

    def test_nested_worker_is_a_node(self):
        _, project = build_fixture_project("proj_reach")
        assert (
            "proj_reach.main:closure_capture.work"
            in project.callgraph.functions
        )
        assert (
            "proj_reach.main:closure_capture.work"
            in project.callgraph.submit_roots()
        )


class TestUsageIndex:
    def test_in_project_import_counts_as_usage(self):
        _, project = build_fixture_project("proj_dead")
        assert project.usage.is_used("proj_dead.lib", "used_fn")
        assert not project.usage.is_used("proj_dead.lib", "dead_fn")

    def test_consumer_tree_counts_as_usage(self):
        _, project = build_fixture_project(
            "proj_dead", usage=("proj_dead_usage",)
        )
        assert project.usage.is_used("proj_dead.lib", "dead_fn")

    def test_star_import_uses_every_export(self):
        _, project = build_fixture_project("proj_star")
        assert project.usage.is_used("proj_star.base", "helper")
        assert project.usage.is_used("proj_star.base", "shared_value")
