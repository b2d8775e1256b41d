"""Self-hosting: the shipped ``src/`` tree passes its own linter.

This is the enforcement test behind the CI lint job — if a change
introduces a non-baselined R1–R5 violation anywhere in ``src/``, it
fails here before it fails in CI.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.lint.baseline import Baseline
from repro.lint.config import DEFAULT_SCOPES, LintConfig, ScopeMap, load_config
from repro.lint.engine import run_lint

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _repo_config() -> LintConfig:
    if sys.version_info >= (3, 11):
        return load_config(REPO_ROOT / "lint.toml")
    # Pre-tomllib interpreters fall back to the built-in scope map,
    # which lint.toml mirrors.
    return LintConfig()


def test_shipped_tree_is_lint_clean():
    config = _repo_config()
    baseline_path = REPO_ROOT / (config.baseline_path or "lint-baseline.json")
    baseline = (
        Baseline.load(baseline_path) if baseline_path.is_file() else Baseline()
    )
    result = run_lint([SRC], config, baseline)
    assert result.clean, "\n".join(f.render() for f in result.findings)
    assert result.files_scanned > 50  # whole tree, not a subset


def test_shipped_tree_passes_the_flow_rules():
    # The acceptance bar for R6-R8: zero unbaselined flow findings over
    # src/, every declassifier call site carries a marker, and no
    # marker is orphaned.
    config = _repo_config().with_flow(True)
    result = run_lint([SRC], config)
    flow_findings = [
        f for f in result.findings if f.rule in {"R6", "R7", "R8"}
    ]
    assert flow_findings == [], "\n".join(
        f.render() for f in flow_findings
    )
    inventory = result.artifacts["declassifications"]
    assert inventory, "expected a non-empty declassification inventory"
    assert all(entry["marked"] for entry in inventory)
    assert not any(entry.get("orphan") for entry in inventory)
    # Call-graph artifact covers the whole tree.
    assert result.artifacts["callgraph"]["functions"] > 500


def test_baseline_is_empty():
    # All grandfathered violations have been fixed; keep it that way.
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    assert not baseline.entries


def test_default_scopes_cover_core_packages():
    scope_map = ScopeMap(DEFAULT_SCOPES)
    assert "enclave" in scope_map.scopes_for("repro.tee.channel")
    assert "protocol" in scope_map.scopes_for("repro.core.phases")
    assert "crypto" in scope_map.scopes_for("repro.crypto.mac")
    assert "resilience" in scope_map.scopes_for("repro.net.network")
    assert "obs" in scope_map.scopes_for("repro.obs.tracing")
    assert "faults" in scope_map.scopes_for("repro.faults.plan")
    assert not scope_map.scopes_for("repro.genomics.genotype")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is 3.11+")
def test_repo_lint_toml_matches_builtin_defaults():
    # lint.toml exists so CI and editors agree with the library default;
    # the two must not drift silently.
    config = load_config(REPO_ROOT / "lint.toml")
    assert config.scope_map.as_dict() == ScopeMap(DEFAULT_SCOPES).as_dict()
