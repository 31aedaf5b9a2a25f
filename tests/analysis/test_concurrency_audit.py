"""Audit regression: the real concurrent code stays RL009/RL012-clean.

``repro.simulation.stackdist`` is the one module that actually fans
work out to a thread pool (the multi-capacity LRU sweep), and
``repro.obs`` holds the shared tracer that spans finish into from
every worker.  The audit for this rule rollout found their existing
discipline sound -- slice-disjoint writes plus explicit locks -- and
these tests pin that: if a later edit introduces an unlocked shared
write or leaks the sweep's executor, the whole-program rules must
catch it here, not in a figure that quietly stops reproducing.
"""

from __future__ import annotations

from pathlib import Path

from .conftest import REPO_ROOT, fixture_config

from repro.analysis import check_module
from repro.analysis.graph import build_project

SRC = REPO_ROOT / "src"

AUDITED = [
    SRC / "repro/simulation/stackdist.py",
    *sorted((SRC / "repro/obs").glob("*.py")),
]


def _audit(rule_id: str):
    files = sorted((SRC / "repro").rglob("*.py"))
    project = build_project(files, root=REPO_ROOT)
    config = fixture_config(kernel_paths=()).override(select=(rule_id,))
    violations = []
    for path in AUDITED:
        violations.extend(
            check_module(path, config, root=REPO_ROOT, project=project)
        )
    return violations


class TestAuditedModulesStayClean:
    def test_paths_exist(self):
        for path in AUDITED:
            assert path.is_file(), path

    def test_no_unsynchronized_shared_writes(self):
        violations = _audit("RL009")
        assert violations == [
            # Any entry here means a worker-reachable function started
            # writing shared state without a lock. Fix the code, do
            # not baseline it.
        ]

    def test_no_leaked_resources(self):
        # The sweep owns its executor in a ``with`` block -- a shape
        # RL012 must keep accepting.
        violations = _audit("RL012")
        assert violations == []

    def test_stackdist_workers_are_visible_to_the_callgraph(self):
        # The audit is only meaningful if the analyzer actually sees
        # the submit sites; guard against a refactor hiding them.
        files = sorted((SRC / "repro").rglob("*.py"))
        project = build_project(files, root=REPO_ROOT)
        stackdist = [
            site
            for site in project.callgraph.submit_sites
            if site.module == "repro.simulation.stackdist"
        ]
        assert len(stackdist) >= 1
