"""Documentation stays consistent with the code it describes."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
#: A backticked dotted name such as `repro.stats.ld.MomentTable`.
_CODE_REFERENCE = re.compile(r"`(repro(?:\.\w+)+)`")
#: The module of a command such as `python -m repro.lint`.
_MODULE_COMMAND = re.compile(r"python3? -m (repro(?:\.\w+)*)")


def _resolves(dotted: str) -> bool:
    """Whether ``repro.x.y`` names a module or an attribute chain in one.

    The longest importable prefix is imported and the rest is looked up
    with ``getattr``, so modules, classes, functions and methods count.
    """
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        name = ".".join(parts[:split])
        try:
            target = importlib.import_module(name)
        except ModuleNotFoundError as exc:
            if exc.name != name:
                raise
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def _module_exists(name: str) -> bool:
    """Whether ``python -m name`` would find a module to run."""
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:  # a parent package is missing
        return False


@pytest.fixture(scope="module")
def repo_files():
    return {
        str(path.relative_to(ROOT))
        for path in ROOT.rglob("*")
        if path.is_file() and ".git" not in path.parts
    }


class TestDocsExist:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
         "docs/PROTOCOL.md"],
    )
    def test_required_documents_present(self, name):
        assert (ROOT / name).is_file()

    def test_design_confirms_paper_identity(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "10.1145/3528535.3565253" in text
        assert "correct paper" in text


class TestCrossReferences:
    def test_design_experiment_index_names_real_benches(self):
        text = (ROOT / "DESIGN.md").read_text()
        for bench in re.findall(r"benchmarks/(bench_\w+\.py)", text):
            assert (ROOT / "benchmarks" / bench).is_file(), bench

    def test_experiments_index_names_real_benches(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for bench in re.findall(r"`(bench_\w+\.py)`", text):
            assert (ROOT / "benchmarks" / bench).is_file(), bench

    def test_readme_examples_table_names_real_scripts(self):
        text = (ROOT / "README.md").read_text()
        for script in re.findall(r"\| `(\w+\.py)` \|", text):
            assert (ROOT / "examples" / script).is_file(), script

    def test_readme_modules_exist(self):
        text = (ROOT / "README.md").read_text()
        for module in re.findall(r"`repro\.([a-z_.]+)`", text):
            path = ROOT / "src" / "repro" / (module.replace(".", "/"))
            assert (
                path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()
            ), module

    def test_docs_code_references_resolve(self):
        docs = [
            ROOT / "DESIGN.md",
            ROOT / "EXPERIMENTS.md",
            *sorted((ROOT / "docs").glob("*.md")),
        ]
        unresolved = [
            f"{doc.relative_to(ROOT)}: {name}"
            for doc in docs
            for name in sorted(set(_CODE_REFERENCE.findall(doc.read_text())))
            if not _resolves(name)
        ]
        assert not unresolved

    def test_module_commands_name_real_modules(self):
        """Every ``python -m repro...`` in the docs and CI can run."""
        sources = [
            ROOT / "README.md",
            ROOT / "DESIGN.md",
            ROOT / "EXPERIMENTS.md",
            *sorted((ROOT / "docs").glob("*.md")),
            ROOT / ".github" / "workflows" / "ci.yml",
        ]
        stale = [
            f"{path.relative_to(ROOT)}: {name}"
            for path in sources
            for name in sorted(set(_MODULE_COMMAND.findall(path.read_text())))
            if not _module_exists(name)
        ]
        assert not stale

    def test_protocol_doc_names_real_components(self):
        text = (ROOT / "docs" / "PROTOCOL.md").read_text()
        for module in re.findall(r"`repro\.([a-z_.]+)\.[A-Za-z_]+`", text):
            path = ROOT / "src" / "repro" / (module.replace(".", "/"))
            assert (
                path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()
            ), module

    def test_every_benchmark_is_indexed_in_experiments(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for bench in (ROOT / "benchmarks").glob("bench_*.py"):
            assert bench.name in text, f"{bench.name} missing from EXPERIMENTS.md"
