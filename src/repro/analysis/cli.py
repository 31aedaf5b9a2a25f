"""Command-line front end: ``repro-analysis [paths] [options]``.

Exit status: 0 when the tree is clean, 1 when violations are found,
2 on usage errors.  Formats:

``text``
    One ``file:line:col RLxxx message`` line per violation —
    greppable and editor-clickable.
``json``
    The same records plus a summary, for tooling and CI artifacts.
``github``
    GitHub Actions workflow commands (``::error file=…``), so
    findings annotate the offending lines directly in a PR diff.

``--select`` accepts ranges: ``--select RL001-RL012`` expands to
every registered rule in the numeric range.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import rules as _rules  # noqa: F401  (import populates the registry)
from .config import Config, find_pyproject, load_config
from .core import Violation, registry, run_analysis

__all__ = ["build_parser", "expand_select", "format_github", "main"]

_RANGE_RE = re.compile(r"^(?P<prefix>[A-Za-z]+)(?P<lo>\d+)-(?P=prefix)?(?P<hi>\d+)$")


def expand_select(tokens: tuple[str, ...]) -> tuple[str, ...]:
    """Expand ``RL001-RL012``-style ranges to registered rule ids."""
    registered = [rule.id for rule in registry.all_rules()]
    out: list[str] = []
    for token in tokens:
        match = _RANGE_RE.match(token)
        if match is None:
            out.append(token)
            continue
        prefix = match.group("prefix")
        lo, hi = int(match.group("lo")), int(match.group("hi"))
        width = len(match.group("lo"))
        wanted = {f"{prefix}{i:0{width}d}" for i in range(lo, hi + 1)}
        expanded = [r for r in registered if r in wanted]
        if not expanded:
            raise ValueError(f"rule range matches nothing: {token!r}")
        out.extend(expanded)
    return tuple(dict.fromkeys(out))


def format_github(violation: Violation) -> str:
    """One GitHub Actions ``::error`` workflow command per finding."""
    message = violation.message.replace("%", "%25").replace("\n", "%0A")
    return (
        f"::error file={violation.path},line={violation.line},"
        f"col={violation.col},title={violation.rule_id}::{message}"
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-analysis`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: from pyproject)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids or ranges (RL001-RL012) to run",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--pyproject",
        metavar="PATH",
        help="pyproject.toml to read [tool.repro.analysis] from "
        "(default: nearest ancestor of the working directory)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _resolve_config(
    args: argparse.Namespace,
) -> tuple[Config, Path | None]:
    """The effective config, and the analysis root (pyproject's home).

    Anchoring the root at the pyproject keeps reported paths and the
    usage index stable no matter where the CLI is invoked from — CI
    must report the same findings as an editor.
    """
    pyproject = (
        Path(args.pyproject) if args.pyproject else find_pyproject(Path.cwd())
    )
    config = load_config(pyproject)
    overrides: dict[str, object] = {}
    if args.select:
        overrides["select"] = expand_select(
            tuple(
                token.strip()
                for token in args.select.split(",")
                if token.strip()
            )
        )
    if args.ignore:
        overrides["ignore"] = tuple(
            token.strip() for token in args.ignore.split(",") if token.strip()
        )
    if overrides:
        config = config.override(**overrides)
    return config, pyproject.parent if pyproject else None


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-analysis`` / ``python -m repro.analysis``."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in registry.all_rules():
            print(f"{rule.id}  {rule.name}: {rule.description}")
        return 0

    try:
        config, root = _resolve_config(args)
    except ValueError as exc:
        parser.error(str(exc))

    paths = [Path(p) for p in (args.paths or config.paths)]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(str(p) for p in missing)}")

    try:
        violations, n_files = run_analysis(paths, config, root=root)
    except ValueError as exc:  # unknown rule id in --select
        parser.error(str(exc))

    if args.format == "json":
        print(
            json.dumps(
                {
                    "files_checked": n_files,
                    "violations": [v.to_dict() for v in violations],
                },
                indent=2,
            )
        )
    else:
        for violation in violations:
            if args.format == "github":
                print(format_github(violation))
            else:
                print(violation.format())
        noun = "file" if n_files == 1 else "files"
        if violations:
            print(
                f"reprolint: {len(violations)} violation(s) in "
                f"{n_files} {noun} checked",
                file=sys.stderr,
            )
        else:
            print(f"reprolint: {n_files} {noun} clean", file=sys.stderr)
    return 1 if violations else 0
