"""R6/R7/R8 fixture tests: the whole-program taint rules fire on the
``bad`` flowpkg tree, stay quiet on the ``good`` twin, and pin the
declassification inventory exactly.

The fixture ships its own ``lint.toml`` with ``replace = true`` so the
taint model under test is the miniature flowpkg policy, not the
repro-specific defaults.
"""

from __future__ import annotations

import pathlib
import shutil

import pytest

from repro.errors import LintConfigError
from repro.lint.config import LintConfig, load_config
from repro.lint.engine import run_lint
from repro.lint.flow.model import (
    DEFAULT_SOURCES,
    TaintModel,
)
from repro.lint.flow.rules import find_declassify_marker
from repro.lint.reporting import json_report

FLOW = pathlib.Path(__file__).parent / "fixtures" / "lint" / "flow"
CONFIG = load_config(FLOW / "lint.toml")


def lint_tree(name: str):
    return run_lint([FLOW / name], CONFIG)


def lines_by_file(findings, rule):
    grouped = {}
    for finding in findings:
        if finding.rule != rule:
            continue
        stem = pathlib.Path(finding.path).name
        grouped.setdefault(stem, set()).add(finding.line)
    return grouped


class TestBadFixture:
    """The planted violations, pinned to exact lines."""

    def test_r6_secret_leaks(self):
        result = lint_tree("bad")
        assert lines_by_file(result.findings, "R6") == {
            # print(col) direct; print(payload) reached via log_helper
            "enclave.py": {21, 25},
            # metrics_push(direct): interprocedural genotype -> metrics
            "host.py": {16},
        }

    def test_r6_via_chain_names_the_intermediate(self):
        result = lint_tree("bad")
        lifted = [
            f
            for f in result.findings
            if f.rule == "R6" and f.line == 25
        ]
        assert len(lifted) == 1
        assert "via" in lifted[0].message
        assert "log_helper" in lifted[0].message
        assert "genotype" in lifted[0].message
        assert "stdout" in lifted[0].message

    def test_r7_boundary_crossings(self):
        result = lint_tree("bad")
        assert lines_by_file(result.findings, "R7") == {
            # direct call and string-dispatched ecall("export_column")
            "host.py": {12, 13},
        }
        for finding in result.findings:
            if finding.rule == "R7":
                assert "export_column" in finding.message
                assert "enclave" in finding.message

    def test_r7_declared_ecall_result_is_allowed(self):
        # enc.ecall("declared_result") on host.py:14 must NOT fire.
        result = lint_tree("bad")
        assert 14 not in lines_by_file(result.findings, "R7").get(
            "host.py", set()
        )

    def test_r8_unmarked_declassifier_call(self):
        result = lint_tree("bad")
        assert lines_by_file(result.findings, "R8") == {"host.py": {15}}
        (finding,) = [f for f in result.findings if f.rule == "R8"]
        assert "declassify" in finding.message

    def test_declassification_inventory(self):
        result = lint_tree("bad")
        inventory = result.artifacts["declassifications"]
        assert len(inventory) == 1
        (entry,) = inventory
        assert entry["target"] == (
            "flowpkg.enclave.MiniEnclave.release_stats"
        )
        assert entry["caller"] == "flowpkg.host.run"
        assert entry["module"] == "flowpkg.host"
        assert entry["path"].endswith("host.py")
        assert entry["line"] == 15
        assert entry["reason"] is None
        assert entry["marked"] is False

    def test_flow_artifacts(self):
        result = lint_tree("bad")
        callgraph = result.artifacts["callgraph"]
        assert callgraph["functions"] >= 10
        edges = set(map(tuple, callgraph["edges"]))
        # The dispatcher edge resolved through the string literal.
        assert (
            "flowpkg.host.run",
            "flowpkg.enclave.MiniEnclave.export_column",
        ) in edges
        flow = result.artifacts["flow"]
        # Store.load minted genotype in leak_column, audit,
        # export_column and declared_result.
        assert len(flow["source_calls"]) == 4
        assert {c["kind"] for c in flow["source_calls"]} == {"genotype"}
        assert (
            "flowpkg.enclave.MiniEnclave.export_column"
            in flow["tainted_returns"]
        )

    def test_rules_run_is_exactly_the_flow_set(self):
        result = lint_tree("bad")
        assert result.rules_run == ["R6", "R7", "R8"]


class TestGoodFixture:
    def test_no_findings(self):
        result = lint_tree("good")
        assert result.findings == [], [
            f.render() for f in result.findings
        ]

    def test_inventory_pins_the_marked_release(self):
        result = lint_tree("good")
        inventory = result.artifacts["declassifications"]
        assert len(inventory) == 1
        (entry,) = inventory
        assert entry["line"] == 9
        assert entry["reason"] == "stats are the study output"
        assert entry["marked"] is True
        assert "orphan" not in entry


class TestStaticMethods:
    """A ``@staticmethod`` called through ``self`` binds no receiver:
    each argument's taint lands on the parameter it is passed to."""

    def test_taint_lands_on_the_passed_parameter(self):
        result = lint_tree("static")
        # describe(col, "column") prints only its label: no finding at
        # line 16; shout(col, "column") prints the genotype at line 21.
        assert lines_by_file(result.findings, "R6") == {"enclave.py": {21}}


class TestReportSchema:
    """Satellite: the JSON report carries the flow payloads."""

    def test_flow_json_report(self):
        result = lint_tree("bad")
        report = json_report(result, CONFIG, ["bad"])
        assert report["version"] == 2
        assert set(report["rules"]) == {"R6", "R7", "R8"}
        assert report["clean"] is False
        assert len(report["declassifications"]) == 1
        assert report["declassifications"][0]["marked"] is False
        by_rule = report["summary"]["by_rule"]
        assert by_rule == {"R6": 3, "R7": 2, "R8": 1}

    def test_flow_rules_absent_without_flow(self):
        result = run_lint([FLOW / "bad"], LintConfig())
        assert "R6" not in result.rules_run
        assert not any(
            f.rule in {"R6", "R7", "R8"} for f in result.findings
        )
        report = json_report(result, LintConfig(), ["bad"])
        assert report["declassifications"] == []


class TestMarkersAndModel:
    def test_orphan_marker_is_inventoried(self, tmp_path):
        stale = tmp_path / "stale.py"
        stale.write_text(
            "X = 1  # lint: declassify(kept for review)\n",
            encoding="utf-8",
        )
        result = run_lint([stale], CONFIG)
        assert result.findings == []
        inventory = result.artifacts["declassifications"]
        assert len(inventory) == 1
        assert inventory[0]["orphan"] is True
        assert inventory[0]["reason"] == "kept for review"
        assert inventory[0]["target"] is None

    def test_each_call_in_one_statement_keeps_its_own_marker(self, tmp_path):
        package = tmp_path / "flowpkg"
        shutil.copytree(FLOW / "good" / "flowpkg", package)
        (package / "host.py").write_text(
            "from .enclave import MiniEnclave\n"
            "\n"
            "\n"
            "def run():\n"
            "    enc = MiniEnclave()\n"
            "    stats = (\n"
            "        enc.release_stats(),  # lint: declassify(first release)\n"
            "        enc.release_stats(),  # lint: declassify(second release)\n"
            "    )\n"
            "    return stats\n",
            encoding="utf-8",
        )
        result = run_lint([tmp_path], CONFIG)
        assert result.findings == []
        inventory = result.artifacts["declassifications"]
        assert [(e["line"], e["reason"]) for e in inventory] == [
            (7, "first release"),
            (8, "second release"),
        ]

    def test_find_declassify_marker(self):
        match = find_declassify_marker(
            "x = release()  # lint: declassify(published by design)"
        )
        assert match is not None
        assert match.group("reason") == "published by design"

    def test_marker_ignores_quoted_mentions(self):
        assert (
            find_declassify_marker("msg = '# lint: declassify(doc)'")
            is None
        )
        assert (
            find_declassify_marker('"""# lint: declassify(doc)"""')
            is None
        )

    def test_model_replace_drops_defaults(self):
        model = TaintModel.from_config(
            {"replace": True, "sources": {"m.f": "key"}}
        )
        assert dict(model.sources) == {"m.f": "key"}
        assert model.sanctioned == ()

    def test_model_extends_defaults_by_default(self):
        model = TaintModel.from_config({"sources": {"m.f": "key"}})
        assert model.sources["m.f"] == "key"
        for pattern, kind in DEFAULT_SOURCES.items():
            assert model.sources[pattern] == kind

    def test_model_rejects_bad_tables(self):
        with pytest.raises(LintConfigError):
            TaintModel.from_config({"sources": ["not-a-table"]})
        with pytest.raises(LintConfigError):
            TaintModel.from_config({"sanctioned": "not-a-list"})
        with pytest.raises(LintConfigError):
            TaintModel.from_config({"leak_sinks": {"print": 3}})
