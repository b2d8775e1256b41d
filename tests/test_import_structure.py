"""Every name is imported from the module that defines it.

Package ``__init__`` files only document (``repro`` resolves its public
names on first use), so importing a module loads what that module
imports and nothing more.  The trusted module's import closure is
pinned here, and the lint engine must not pull in the runtime checkers
or the protocol.  Imports that name a defining module are also what
the flow analysis' call graph resolves, so an import through a package
would hide calls from rules R6-R8.
"""

from __future__ import annotations

import ast
import functools
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"

#: Every ``repro`` module that ``import repro.core.enclave_logic`` loads.
ENCLAVE_CLOSURE = {
    "repro",
    "repro.core",
    "repro.core.enclave_logic",
    "repro.core.pipeline",
    "repro.core.shard",
    "repro.crypto",
    "repro.crypto.authenticated",
    "repro.crypto.dh",
    "repro.crypto.kdf",
    "repro.crypto.rng",
    "repro.crypto.signing",
    "repro.crypto.stream",
    "repro.errors",
    "repro.genomics",
    "repro.genomics.genotype",
    "repro.genomics.population",
    "repro.genomics.snp",
    "repro.genomics.synthetic",
    "repro.genomics.vcf",
    "repro.net",
    "repro.net.serialization",
    "repro.obs",
    "repro.obs.span",
    "repro.obs.tracer",
    "repro.stats",
    "repro.stats.chisq",
    "repro.stats.ld",
    "repro.stats.lr_test",
    "repro.stats.maf",
    "repro.tee",
    "repro.tee.attestation",
    "repro.tee.channel",
    "repro.tee.enclave",
    "repro.tee.measurement",
    "repro.tee.resources",
    "repro.tee.sealing",
    "repro.tee.storage",
}


def _loaded_by(statement: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    script = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(done.stdout))


def test_enclave_import_closure_is_pinned():
    assert _loaded_by("import repro.core.enclave_logic") == ENCLAVE_CLOSURE


def test_lint_engine_loads_neither_runtime_checker_nor_protocol():
    loaded = _loaded_by("import repro.lint.engine")
    assert not loaded & {"repro.lint.runtime", "repro.lint.flow.runtime"}
    assert not [m for m in loaded if m.startswith(("repro.core", "repro.serve"))]


def _module_path(module: str) -> pathlib.Path:
    """The package directory or ``.py`` file of a dotted module name."""
    path = SRC.joinpath(*module.split("."))
    return path if path.is_dir() else path.with_suffix(".py")


#: Package paths perfbench imports, kept by those packages' ``__init__``.
PACKAGE_EXPORTS = {
    "repro.genomics.SyntheticSpec",
    "repro.genomics.generate_cohort",
    "repro.serve.FederationService",
    "repro.serve.ServiceConfig",
}


@functools.lru_cache(maxsize=None)
def _defined_names(module: str) -> frozenset:
    """Top-level names ``module`` itself defines (def, class, assignment)."""
    path = _module_path(module)
    if path.is_dir():
        path = path / "__init__.py"
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return frozenset(names)


def _python_files():
    """The program's modules, then every test, benchmark and example."""
    yield from sorted((SRC / "repro").rglob("*.py"))
    for top in ("tests", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if FIXTURES not in path.parents:
                yield path


def test_src_imports_name_defining_modules():
    """``from M import name`` with ``M`` a ``repro`` module imports a
    submodule of ``M`` or a name ``M`` itself defines, never a name
    ``M`` only imports — in the program, the tests, the benchmarks and
    the examples alike."""
    pass_through = []
    for path in _python_files():
        base = SRC if SRC in path.parents else ROOT
        package = ".".join(path.relative_to(base).parts[:-1])
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package
            )
            if source.partition(".")[0] != "repro":
                continue
            for alias in node.names:
                name = f"{source}.{alias.name}"
                if not (
                    alias.name in _defined_names(source)
                    or _module_path(name).exists()
                    or name in PACKAGE_EXPORTS
                ):
                    where = path.relative_to(ROOT)
                    pass_through.append(f"{where}:{node.lineno} {name}")
    assert pass_through == []


@pytest.mark.parametrize("name", repro.__all__)
def test_public_name_resolves_to_its_defining_module(name):
    value = getattr(repro, name)
    if name != "__version__":
        assert value.__module__ == repro._EXPORTS[name]


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(repro, "no_such_name")


def test_package_paths_the_benchmark_imports():
    from repro.genomics import SyntheticSpec, generate_cohort
    from repro.serve import FederationService, ServiceConfig

    assert SyntheticSpec.__module__ == "repro.genomics.synthetic"
    assert generate_cohort.__module__ == "repro.genomics.synthetic"
    assert FederationService.__module__ == "repro.serve.service"
    assert ServiceConfig.__module__ == "repro.serve.config"
