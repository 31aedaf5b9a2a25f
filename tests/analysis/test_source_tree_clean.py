"""The reprolint gate: the shipped source tree must be violation-free.

This is the test that makes the analyzer an enforced invariant rather
than an optional linter: any PR that introduces a float ``==`` in the
model, an unstable ``(1-p)**N``, an unseeded RNG, an unregistered
experiment, or a stale ``__all__`` fails the tier-1 suite here with
the exact ``file:line:col RLxxx message`` locations.
"""

from __future__ import annotations

from repro.analysis import load_config, run_analysis


def test_src_tree_has_no_new_reprolint_violations(repo_root):
    """All twelve rules report nothing: there is no accepted debt."""
    config = load_config(repo_root / "pyproject.toml")
    paths = [repo_root / p for p in config.paths]
    violations, n_files = run_analysis(paths, config, root=repo_root)
    report = "\n".join(v.format() for v in violations)
    assert not violations, f"reprolint violations in the source tree:\n{report}"
    assert n_files >= 55, "the analyzer should be scanning the whole src tree"
