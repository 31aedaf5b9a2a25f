"""CLI behaviour: formats, exit codes, and the console entry point."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from repro.analysis.cli import (
    build_parser,
    expand_select,
    format_github,
    main,
)
from repro.analysis.core import Violation

REPORT_LINE = re.compile(r"^.+\.py:\d+:\d+ RL\d{3} .+$")


def write_violating_module(directory):
    path = directory / "seeded.py"
    path.write_text(
        '"""Module citing Eq. 77, which the paper does not define."""\n',
        encoding="utf-8",
    )
    return path


class TestExpandSelect:
    def test_range_expands_to_registered_rules(self):
        expanded = expand_select(("RL001-RL003",))
        assert expanded == ("RL001", "RL002", "RL003")

    def test_full_range_reaches_rl012(self):
        expanded = expand_select(("RL001-RL012",))
        assert len(expanded) == 12
        assert expanded[-1] == "RL012"

    def test_short_upper_bound_form(self):
        assert expand_select(("RL010-12",)) == ("RL010", "RL011", "RL012")

    def test_plain_tokens_pass_through(self):
        assert expand_select(("RL005", "RL009")) == ("RL005", "RL009")

    def test_range_skips_unregistered_ids(self):
        # RL012 is the last registered rule; a range past it must not
        # invent ids the registry cannot honour.
        expanded = expand_select(("RL011-RL099",))
        assert expanded == ("RL011", "RL012")


class TestGithubFormat:
    def test_annotation_shape(self):
        violation = Violation(
            path="src/x.py", line=3, col=7, rule_id="RL009", message="boom"
        )
        assert format_github(violation) == (
            "::error file=src/x.py,line=3,col=7,title=RL009::boom"
        )

    def test_message_newlines_and_percents_escaped(self):
        violation = Violation(
            path="src/x.py",
            line=1,
            col=1,
            rule_id="RL001",
            message="50% worse\nthan before",
        )
        rendered = format_github(violation)
        assert "\n" not in rendered
        assert "%0A" in rendered and "%25" in rendered


class TestMain:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text('"""Nothing to see."""\n', encoding="utf-8")
        assert main([str(clean)]) == 0
        captured = capsys.readouterr()
        assert "1 file clean" in captured.err

    def test_violation_exits_one_with_precise_report(self, tmp_path, capsys):
        path = write_violating_module(tmp_path)
        assert main([str(path)]) == 1
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1
        assert REPORT_LINE.match(lines[0])
        assert "RL006" in lines[0]
        assert "Eq. 77" in lines[0]

    def test_json_format(self, tmp_path, capsys):
        path = write_violating_module(tmp_path)
        assert main([str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        (violation,) = payload["violations"]
        assert violation["rule"] == "RL006"
        assert violation["line"] == 1

    def test_select_limits_rules(self, tmp_path, capsys):
        path = write_violating_module(tmp_path)
        assert main([str(path), "--select", "RL001"]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL004", "RL007"):
            assert rule_id in out

    def test_github_format_output(self, tmp_path, capsys):
        path = write_violating_module(tmp_path)
        assert main([str(path), "--format", "github"]) == 1
        out = capsys.readouterr().out.strip()
        assert out.startswith("::error file=")
        assert "title=RL006" in out

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.paths == [] and args.format == "text"
        assert args.select is None and not args.list_rules

    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "does-not-exist")])
        assert exc.value.code == 2

    def test_unknown_select_is_usage_error(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([str(clean), "--select", "RL999"])
        assert exc.value.code == 2


class TestModuleInvocation:
    """``python -m repro.analysis`` — the acceptance-criteria surface."""

    def _run(self, repo_root, *args):
        env = dict(os.environ)
        src = str(repo_root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            cwd=repo_root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_src_tree_is_clean(self, repo_root):
        result = self._run(repo_root, "src")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_full_rule_range_select(self, repo_root):
        result = self._run(repo_root, "src", "--select", "RL001-RL012")
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout == ""

    def test_seeded_violation_fails_with_report(self, repo_root, tmp_path):
        path = write_violating_module(tmp_path)
        result = self._run(repo_root, str(path))
        assert result.returncode == 1
        assert REPORT_LINE.match(result.stdout.strip().splitlines()[0])
