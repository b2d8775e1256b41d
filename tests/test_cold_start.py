"""The runtime path starts without scipy, the analyser or the fuzzer.

scipy is the tests' oracle only: ``repro run`` must work in an
interpreter where importing it fails.  ``repro lint`` and ``repro
fuzz`` import their packages when their subcommand is parsed, so no
other command pays for them.  Both checks run in a fresh interpreter,
because this test process has long imported all three.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

IMPORTS = """
import sys
import repro.cli
print(sorted(m for m in ("scipy", "repro.lint", "repro.fuzz") if m in sys.modules))
"""

RUN_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError

from repro.cli import main, save_cohort_bundle
from repro.config import StudyConfig
from repro.core.pipeline import run_local_pipeline
from repro.genomics import SyntheticSpec, generate_cohort

bundle, out = sys.argv[1], sys.argv[2]
cohort, _truth = generate_cohort(
    SyntheticSpec(num_snps=150, num_case=120, num_control=110, seed=4)
)
save_cohort_bundle(bundle, cohort)
code = main(["run", "--cohort", bundle, "--members", "3", "--json", out])
thresholds = StudyConfig(snp_count=150).thresholds
local = run_local_pipeline(
    cohort.case.array(),
    cohort.reference.array(),
    maf_cutoff=thresholds.maf_cutoff,
    ld_cutoff=thresholds.ld_cutoff,
    alpha=thresholds.false_positive_rate,
    beta=thresholds.power_threshold,
)
print(json.dumps({
    "code": code,
    "local": [list(local.l_prime), list(local.l_double_prime), list(local.l_safe)],
}))
"""


def _python(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_importing_the_cli_loads_neither_scipy_nor_lint_nor_fuzz():
    completed = _python(IMPORTS)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == "[]"


def test_repro_run_needs_no_scipy(tmp_path):
    out = tmp_path / "result.json"
    completed = _python(RUN_WITHOUT_SCIPY, str(tmp_path / "cohort.npz"), str(out))
    assert completed.returncode == 0, completed.stderr[-2000:]
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    released = json.loads(out.read_text(encoding="utf-8"))
    assert [
        released["l_prime"], released["l_double_prime"], released["l_safe"]
    ] == report["local"]
