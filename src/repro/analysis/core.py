"""Core machinery of reprolint: rules, violations, pragmas, the runner.

The analyzer is a deliberately small framework over the stdlib ``ast``
module — no third-party dependencies, so it runs in the same offline
environment as the reproduction itself.  A *rule* inspects one parsed
module at a time and yields :class:`Violation` records; the runner
walks the configured paths, applies every selected rule, filters
suppressed findings and returns a deterministic, sorted report.

Suppression works through inline pragmas::

    x == 0.0  # reprolint: disable=RL001
    # reprolint: disable-file=RL006   (anywhere in the file)

``disable`` silences the named rules on its own line; ``disable-file``
silences them for the whole module.  ``disable=all`` is accepted in
both forms.  Every pragma is an auditable marker of a
deliberate exception — grep for ``reprolint: disable`` to review them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .config import Config
from .graph import ProjectGraph, build_project

__all__ = [
    "ModuleContext",
    "Rule",
    "RuleRegistry",
    "Violation",
    "check_module",
    "iter_python_files",
    "registry",
    "run_analysis",
]

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable-file|disable)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: ``path:line:col RLxxx message``."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        """Render in the canonical ``file:line:col RLxxx message`` form."""
        return f"{self.path}:{self.line}:{self.col} {self.rule_id} {self.message}"

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (used by ``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


@dataclass
class ModuleContext:
    """Everything a rule may look at for one module."""

    path: Path
    """Filesystem path of the module being checked."""
    display_path: str
    """Path as reported in violations (posix, relative when possible)."""
    source: str
    """Raw module source."""
    tree: ast.Module
    """Parsed AST."""
    config: Config
    """The active analyzer configuration."""
    project: ProjectGraph | None = None
    """Whole-program context (import/symbol/call graphs), present when
    the run was started through :func:`run_analysis` and at least one
    selected rule sets ``requires_project``.  Per-module invocations
    (:func:`check_module` without a project) leave it ``None``, and
    whole-program rules yield nothing."""

    @property
    def module_name(self) -> str | None:
        """This module's dotted name in the project graph, if known."""
        if self.project is None:
            return None
        info = self.project.module_at(self.path)
        return info.name if info is not None else None

    @property
    def stem(self) -> str:
        """Module filename without the ``.py`` suffix."""
        return self.path.stem

    def in_any(self, fragments: Iterable[str]) -> bool:
        """True if the module path matches any configured path fragment.

        Fragments are plain substrings of the posix path (``""`` matches
        everything), which keeps scoping config readable:
        ``"repro/geometry/"`` selects the geometry package wherever the
        repository is checked out.
        """
        posix = self.path.as_posix()
        return any(frag in posix for frag in fragments)

    def violation(self, node: ast.AST, rule_id: str, message: str) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
        )


class Rule:
    """Base class for reprolint rules.

    Subclasses set ``id``/``name``/``description`` and implement
    :meth:`check`.  Rules must be stateless across modules — one
    instance is shared by the whole run.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    requires_project: bool = False
    """Set by whole-program rules: :func:`run_analysis` then builds a
    :class:`~repro.analysis.graph.ProjectGraph` once for the run and
    every :class:`ModuleContext` carries it in ``ctx.project``."""

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        """Yield every violation found in ``ctx``."""
        raise NotImplementedError
        yield  # pragma: no cover - makes the method a generator


class RuleRegistry:
    """Registry mapping rule ids to rule instances."""

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}

    def register(self, cls: type[Rule]) -> type[Rule]:
        """Class decorator: instantiate and register ``cls``."""
        rule = cls()
        if not rule.id:
            raise ValueError(f"rule {cls.__name__} has no id")
        if rule.id in self._rules:
            raise ValueError(f"duplicate rule id {rule.id}")
        self._rules[rule.id] = rule
        return cls

    def get(self, rule_id: str) -> Rule:
        """Look up one rule by id (raises ``KeyError`` if unknown)."""
        return self._rules[rule_id]

    def selected(self, config: Config) -> list[Rule]:
        """The rules enabled by ``config``, in id order."""
        ids = sorted(self._rules)
        if config.select is not None:
            unknown = [r for r in config.select if r not in self._rules]
            if unknown:
                raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
            ids = [r for r in ids if r in config.select]
        ids = [r for r in ids if r not in config.ignore]
        return [self._rules[r] for r in ids]

    def all_rules(self) -> list[Rule]:
        """Every registered rule, in id order."""
        return [self._rules[r] for r in sorted(self._rules)]


registry = RuleRegistry()
"""The process-wide rule registry (populated by :mod:`repro.analysis.rules`)."""


@dataclass
class _Suppressions:
    """Pragma state for one file."""

    file_rules: set[str] = field(default_factory=set)
    line_rules: dict[int, set[str]] = field(default_factory=dict)

    def suppresses(self, violation: Violation) -> bool:
        for rules in (self.file_rules, self.line_rules.get(violation.line, ())):
            if "all" in rules or violation.rule_id in rules:
                return True
        return False


def _parse_pragmas(source: str) -> _Suppressions:
    sup = _Suppressions()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        rules = {
            token.strip().lower() if token.strip().lower() == "all" else token.strip()
            for token in match.group("rules").split(",")
            if token.strip()
        }
        if match.group("kind") == "disable-file":
            sup.file_rules |= rules
        else:
            sup.line_rules.setdefault(lineno, set()).update(rules)
    return sup


def iter_python_files(paths: Iterable[Path], config: Config) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths``, honouring excludes."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            posix = candidate.as_posix()
            if any(frag and frag in posix for frag in config.exclude):
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def _display_path(path: Path, root: Path | None) -> str:
    base = root if root is not None else Path.cwd()
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def check_module(
    path: Path,
    config: Config,
    *,
    root: Path | None = None,
    project: ProjectGraph | None = None,
) -> list[Violation]:
    """Run every selected rule over one module and filter pragmas.

    When ``project`` is given (the :func:`run_analysis` path) the
    already-parsed AST is reused; otherwise the file is parsed here
    and whole-program rules see no project context.
    """
    display = _display_path(path, root)
    info = project.module_at(path) if project is not None else None
    if info is not None:
        source, tree = info.source, info.tree
    else:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return [
                Violation(
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule_id="E001",
                    message=f"syntax error: {exc.msg}",
                )
            ]
    ctx = ModuleContext(
        path=path,
        display_path=display,
        source=source,
        tree=tree,
        config=config,
        project=project,
    )
    suppressions = _parse_pragmas(source)
    violations: list[Violation] = []
    for rule in registry.selected(config):
        for violation in rule.check(ctx):
            if not suppressions.suppresses(violation):
                violations.append(violation)
    return violations


def _usage_files(config: Config, root: Path | None) -> list[Path]:
    """Consumer-only files for the export-usage index (RL011)."""
    base = root if root is not None else Path.cwd()
    roots = [base / fragment for fragment in config.usage_paths]
    return list(iter_python_files([p for p in roots if p.exists()], config))


def run_analysis(
    paths: Iterable[Path], config: Config, *, root: Path | None = None
) -> tuple[list[Violation], int]:
    """Analyze all of ``paths``.

    Returns the sorted violation list and the number of files checked.
    ``root`` anchors the relative paths used in reports (defaults to
    the current working directory).  When any selected rule is a
    whole-program rule, every file is parsed exactly once and a
    project graph is built over the parsed set before rules run.
    """
    files = list(iter_python_files(paths, config))
    project: ProjectGraph | None = None
    if any(rule.requires_project for rule in registry.selected(config)):
        project = build_project(
            files, usage_files=_usage_files(config, root), root=root
        )
    violations: list[Violation] = []
    for path in files:
        violations.extend(
            check_module(path, config, root=root, project=project)
        )
    violations.sort()
    return violations, len(files)
