"""Engine-level lint tests: suppression, baseline, CLI, JSON schema.

Rule semantics live in ``tests/test_lint_rules.py``; this module covers
the machinery around them — discovery, syntax-error handling, inline
suppressions, the baseline lifecycle, TOML configuration, the CLI
subcommand and the JSON report contract that CI archives.
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading

import pytest

from repro.cli import main
from repro.errors import LintConfigError
from repro.lint.baseline import Baseline
from repro.lint.config import LintConfig, ScopeMap, find_config, load_config
from repro.lint.engine import SYNTAX_RULE, run_lint
from repro.lint.reporting import json_report
from repro.lint.rules.locks import find_cycles
from repro.lint.runtime import OrderedLockFactory, combined_cycles

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint"

PROTOCOL_ONLY = LintConfig(
    scope_map=ScopeMap({"protocol": ("suppressed",)}), baseline_path=None
)


class TestSuppression:
    def test_inline_suppressions_counted_not_reported(self):
        result = run_lint([FIXTURES / "suppressed.py"], PROTOCOL_ONLY)
        # time.time and list({...}) are disabled in place; id() is not.
        assert result.suppressed_inline == 2
        assert [f.rule for f in result.findings] == ["R2"]
        assert "id(" in result.findings[0].line_content
        # all_findings keeps the pre-filter view for --update-baseline.
        assert len(result.all_findings) == 3

    def test_bare_disable_covers_every_rule(self):
        result = run_lint([FIXTURES / "suppressed.py"], PROTOCOL_ONLY)
        suppressed_lines = {
            f.line for f in result.all_findings
        } - {f.line for f in result.findings}
        assert len(suppressed_lines) == 2


class TestMultiLineSuppression:
    """Suppression anchors to whole logical statements, not one line.

    Regression tests for the extent-based matcher: a marker anywhere on
    a parenthesized multi-line statement suppresses a finding on any of
    its physical lines, while compound-statement extents stay
    header-only so body markers never leak upward.
    """

    def _lint(self, tmp_path, source):
        module = tmp_path / "mod.py"
        module.write_text(source, encoding="utf-8")
        config = LintConfig(
            scope_map=ScopeMap({"protocol": ("mod",)}), baseline_path=None
        )
        return run_lint([module], config)

    def test_marker_on_closing_line_suppresses_multiline_raise(self):
        result = self._lint(
            tmp_path=self._tmp,
            source=(
                "def fail():\n"
                "    raise ValueError(\n"
                '        "boom"\n'
                "    )  # lint: disable=R5\n"
            ),
        )
        assert result.findings == []
        assert result.suppressed_inline == 1

    def test_marker_on_opening_line_suppresses_later_finding(self):
        # The R2 finding anchors at the ``id(`` line; the marker sits on
        # the closing bracket two lines down — same statement, covered.
        result = self._lint(
            tmp_path=self._tmp,
            source=(
                "def key(counter):\n"
                "    return [\n"
                "        id(counter),\n"
                "    ]  # lint: disable=R2\n"
            ),
        )
        assert result.findings == []
        assert result.suppressed_inline == 1

    def test_body_marker_does_not_suppress_header_finding(self):
        # ``for item in {...}`` fires R2 on the header; a marker inside
        # the loop body must not reach it (header-only extents).
        result = self._lint(
            tmp_path=self._tmp,
            source=(
                "def walk():\n"
                "    out = []\n"
                "    for item in {1, 2, 3}:\n"
                "        out.append(item)  # lint: disable=R2\n"
                "    return out\n"
            ),
        )
        assert [f.rule for f in result.findings] == ["R2"]
        assert result.findings[0].line == 3
        assert result.suppressed_inline == 0

    def test_marker_scoped_to_other_rule_does_not_suppress(self):
        result = self._lint(
            tmp_path=self._tmp,
            source=(
                "def fail():\n"
                "    raise ValueError(\n"
                '        "boom"\n'
                "    )  # lint: disable=R2\n"
            ),
        )
        assert [f.rule for f in result.findings] == ["R5"]

    @pytest.fixture(autouse=True)
    def _capture_tmp(self, tmp_path):
        self._tmp = tmp_path


class TestBaseline:
    def test_round_trip_covers_and_unused(self, tmp_path):
        result = run_lint([FIXTURES / "suppressed.py"], PROTOCOL_ONLY)
        assert len(result.findings) == 1

        baseline = Baseline.from_findings(result.findings)
        path = tmp_path / "baseline.json"
        baseline.save(path)
        reloaded = Baseline.load(path)

        again = run_lint(
            [FIXTURES / "suppressed.py"], PROTOCOL_ONLY, reloaded
        )
        assert again.findings == []
        assert again.baselined == 1
        assert again.unused_baseline_entries == []
        assert again.clean

    def test_stale_entries_surface(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "rule": "R2",
                            "module": "suppressed",
                            "content": "this line no longer exists",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        baseline = Baseline.load(path)
        result = run_lint(
            [FIXTURES / "suppressed.py"], PROTOCOL_ONLY, baseline
        )
        assert len(result.findings) == 1  # nothing matched the stale entry
        assert len(result.unused_baseline_entries) == 1

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "entries": []}', encoding="utf-8")
        with pytest.raises(LintConfigError):
            Baseline.load(path)


class TestEngineMechanics:
    def test_syntax_error_becomes_finding(self):
        result = run_lint(
            [FIXTURES / "syntax_error.py"],
            LintConfig(scope_map=ScopeMap({}), baseline_path=None),
        )
        assert [f.rule for f in result.findings] == [SYNTAX_RULE]
        assert not result.clean

    def test_missing_path_is_config_error(self, tmp_path):
        with pytest.raises(LintConfigError):
            run_lint([tmp_path / "nope"], PROTOCOL_ONLY)

    def test_unscoped_module_untouched(self, tmp_path):
        victim = tmp_path / "unscoped.py"
        victim.write_text("import random\nraise_site = id(object())\n")
        result = run_lint([victim], PROTOCOL_ONLY)
        assert result.findings == []
        assert result.files_scanned == 1


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="tomllib is 3.11+"
)
class TestTomlConfig:
    def test_fixture_config_loads(self):
        config = load_config(FIXTURES / "lint.toml")
        assert config.baseline_path == "fixture-baseline.json"
        assert "r3_bad" in config.scope_map.as_dict()["crypto"]

    def test_find_config_walks_upward(self):
        assert find_config(FIXTURES / "r1_bad.py") == FIXTURES / "lint.toml"


class TestCli:
    def test_lint_fixture_tree_exits_1_with_findings(self, capsys):
        # The fixture directory deliberately contains violations.
        code = main(["lint", str(FIXTURES), "--config",
                     str(FIXTURES / "lint.toml")])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "R1" in out

    def test_injected_violation_turns_clean_tree_red(self, tmp_path, capsys):
        # A scoped tree starts clean; planting one violation flips the
        # exit code — the property the CI lint job relies on.
        pkg = tmp_path / "proj"
        pkg.mkdir()
        (pkg / "lint.toml").write_text(
            '[lint.scopes]\nprotocol = ["mod"]\n', encoding="utf-8"
        )
        target = pkg / "mod.py"
        target.write_text("VALUE = 1\n", encoding="utf-8")
        config = ["--config", str(pkg / "lint.toml")]
        if sys.version_info < (3, 11):
            pytest.skip("tomllib is 3.11+")
        assert main(["lint", str(target)] + config) == 0
        capsys.readouterr()
        target.write_text("import time\nVALUE = time.time()\n",
                          encoding="utf-8")
        assert main(["lint", str(target)] + config) == 1

    def test_json_output_matches_schema(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "lint",
                str(FIXTURES / "r2_bad.py"),
                "--config",
                str(FIXTURES / "lint.toml"),
                "--format",
                "json",
                "--output",
                str(report_path),
            ]
        )
        if sys.version_info < (3, 11):
            pytest.skip("tomllib is 3.11+")
        assert code == 1
        capsys.readouterr()
        report = json.loads(report_path.read_text(encoding="utf-8"))

        assert report["version"] == 2
        assert report["tool"] == "repro.lint"
        assert report["clean"] is False
        # Without --flow only the syntactic rules run (and are listed).
        assert set(report["rules"]) == {"R1", "R2", "R3", "R4", "R5"}
        assert report["baselined"] == []
        assert report["declassifications"] == []
        for rule in report["rules"].values():
            assert {"name", "rationale", "default_scopes",
                    "severity"} <= set(rule)
        assert report["summary"]["findings"] == len(report["findings"])
        assert report["summary"]["by_rule"].get("R2") == 6
        for finding in report["findings"]:
            assert {
                "rule", "severity", "path", "module", "line", "column",
                "message", "fingerprint",
            } <= set(finding)
            assert finding["rule"] == "R2"

    def test_update_baseline_grandfathers(self, tmp_path, capsys):
        if sys.version_info < (3, 11):
            pytest.skip("tomllib is 3.11+")
        pkg = tmp_path / "proj"
        pkg.mkdir()
        (pkg / "lint.toml").write_text(
            '[lint]\nbaseline = "bl.json"\n\n'
            '[lint.scopes]\nprotocol = ["mod"]\n',
            encoding="utf-8",
        )
        target = pkg / "mod.py"
        target.write_text("import time\nVALUE = time.time()\n",
                          encoding="utf-8")
        args = ["lint", str(target), "--config", str(pkg / "lint.toml")]
        assert main(args) == 1
        assert main(args + ["--update-baseline"]) == 0
        assert (pkg / "bl.json").is_file()
        assert main(args) == 0  # grandfathered now
        capsys.readouterr()


class TestJsonReportFunction:
    def test_clean_run_report(self):
        result = run_lint([FIXTURES / "r2_good.py"], PROTOCOL_ONLY)
        report = json_report(result, PROTOCOL_ONLY, ["r2_good.py"])
        assert report["clean"] is True
        assert report["findings"] == []
        assert report["summary"]["errors"] == 0


class TestLockGraph:
    def test_find_cycles_detects_inversion(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a")]
        cycles = find_cycles(edges)
        assert len(cycles) == 1
        assert set(cycles[0]) == {"a", "b", "c"}

    def test_find_cycles_quiet_on_dag(self):
        assert find_cycles([("a", "b"), ("a", "c"), ("b", "c")]) == []

    def test_factory_records_nesting_edges(self):
        factory = OrderedLockFactory()
        outer = factory.lock("outer")
        inner = factory.lock("inner")
        with outer:
            with inner:
                pass
        assert ("outer", "inner") in factory.edges()
        assert factory.acquisition_counts() == {"outer": 1, "inner": 1}

    def test_factory_sees_cross_thread_inversion(self):
        factory = OrderedLockFactory()
        a = factory.lock("a")
        b = factory.lock("b")

        with a:
            with b:
                pass

        def inverted():
            with b:
                with a:
                    pass

        worker = threading.Thread(target=inverted)
        worker.start()
        worker.join()

        cycles = combined_cycles([], factory.edges())
        assert cycles, "a↔b inversion must surface as a cycle"

    def test_static_plus_runtime_union(self):
        # Static analysis saw a→b; runtime observed b→a: deadlock risk.
        assert combined_cycles([("a", "b")], [("b", "a")])
        assert combined_cycles([("a", "b")], [("a", "b")]) == []

    def test_shim_delegates_everything_else(self):
        shim = OrderedLockFactory().shim()
        lock = shim.Lock()
        assert hasattr(lock, "acquire")
        assert shim.Event is threading.Event
        assert shim.Thread is threading.Thread
