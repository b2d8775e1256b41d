"""Per-rule fixture tests: every rule fires on its bad fixture and
stays quiet on its good twin.

The acceptance contract for ``repro.lint``: R1–R5 are each demonstrated
by at least one failing and one passing fixture, with the exact
violation inventory pinned so rule regressions surface as diffs here.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.lint.config import LintConfig, ScopeMap
from repro.lint.engine import run_lint

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint"

#: Fixture stems mapped into the scopes their rules patrol (the
#: file-based twin lives in tests/fixtures/lint/lint.toml).
SCOPE_MAP = ScopeMap(
    {
        "enclave": ("r1_bad", "r1_good"),
        "protocol": ("r2_bad", "r2_good", "r5_bad", "r5_good", "suppressed"),
        "stats": (),
        "crypto": ("r3_bad", "r3_good"),
        "tee": (),
        "net": ("r4_bad", "r4_good"),
        "resilience": (),
    }
)

CONFIG = LintConfig(scope_map=SCOPE_MAP, baseline_path=None)


def lint_fixture(name: str):
    path = FIXTURES / name
    assert path.is_file(), f"missing fixture {name}"
    return run_lint([path], CONFIG)


class TestRuleFires:
    """Each rule's bad fixture produces exactly the planted findings."""

    @pytest.mark.parametrize(
        "fixture, rule, expected_lines",
        [
            # import random, import socket, time.time, print,
            # random.random, os.urandom, open, socket.gethostname
            ("r1_bad.py", "R1", {4, 5, 10, 11, 12, 13, 14, 16}),
            # list(set), for-over-set, comprehension-over-set, id(),
            # time.time, random.choice
            ("r2_bad.py", "R2", {8, 9, 11, 12, 13, 14}),
            # literal SESSION_KEY, tag ==, digest !=, truncation,
            # key=..., nonce=...
            ("r3_bad.py", "R3", {6, 10, 12, 18, 22, 22}),
            # self-deadlock in stuck(); cycle closed by backward()
            ("r4_bad.py", "R4", {19, 24}),
            # ValueError, RuntimeError
            ("r5_bad.py", "R5", {6, 8}),
        ],
    )
    def test_bad_fixture_fires(self, fixture, rule, expected_lines):
        result = lint_fixture(fixture)
        found = [f for f in result.findings if f.rule == rule]
        assert found, f"{rule} did not fire on {fixture}"
        assert {f.line for f in found} == set(expected_lines)

    @pytest.mark.parametrize(
        "fixture",
        ["r1_good.py", "r2_good.py", "r3_good.py", "r4_good.py", "r5_good.py"],
    )
    def test_good_fixture_is_quiet(self, fixture):
        result = lint_fixture(fixture)
        assert result.findings == [], [f.render() for f in result.findings]

    def test_every_shipped_rule_has_fixture_coverage(self):
        from repro.lint.rules import REGISTRY

        # R1-R5 are pinned here; the flow rules R6-R8 are pinned by the
        # flowpkg fixture trees in tests/test_lint_flow.py.
        covered = {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"}
        assert covered == set(REGISTRY), (
            "rule registry and fixture coverage drifted: add fixtures "
            "and an inventory entry for every new rule"
        )


class TestRuleDetails:
    def test_r3_cycle_message_names_both_locks(self):
        result = lint_fixture("r4_bad.py")
        cycle = [f for f in result.findings if "cycle" in f.message]
        assert len(cycle) == 1
        assert "Worker._alpha_lock" in cycle[0].message
        assert "Worker._beta_lock" in cycle[0].message

    def test_r5_quiet_outside_scope(self):
        # The same raise in an unscoped module is not flagged.
        config = LintConfig(
            scope_map=ScopeMap({"protocol": ()}), baseline_path=None
        )
        result = run_lint([FIXTURES / "r5_bad.py"], config)
        assert result.findings == []

    def test_r1_message_points_at_sanctioned_api(self):
        result = lint_fixture("r1_bad.py")
        messages = " ".join(f.message for f in result.findings)
        assert "repro.crypto.rng" in messages

    def test_findings_sorted_and_located(self):
        result = lint_fixture("r2_bad.py")
        lines = [f.line for f in result.findings]
        assert lines == sorted(lines)
        for finding in result.findings:
            assert finding.path.endswith("r2_bad.py")
            assert finding.module == "r2_bad"
            assert finding.column >= 1
            assert finding.line_content  # content captured for baselining
