"""``BENCH_perfbench.json``, the committed performance trajectory.

One row per performance change, appended and never rewritten.  A row
names the parent and change commits, the seeds and the measuring host,
and, per workload and end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles over the alternating pairs plus the number
of pairs the change won, and both sides' values on the held-out seed.
These checks keep the rows comparable: the same keys everywhere and
only metric and workload names the benchmark declares.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROW_KEYS = {
    "parent", "change", "title", "seeds", "seconds", "host", "workloads", "held_out"
}
HOST_KEYS = {"nproc", "affinity", "python", "numpy", "scipy", "machine"}
SIDE_KEYS = {"median", "q1", "q3"}


def _load(name: str) -> dict:
    return json.loads((ROOT / name).read_text(encoding="utf-8"))


ROWS = _load("BENCH_perfbench.json")["rows"]
SPEC = _load("BENCHMARK.json")


def test_trajectory_has_rows():
    assert ROWS


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row["change"][:12])
def test_row_is_complete_and_uses_declared_names(row):
    assert ROW_KEYS <= row.keys()
    assert row["parent"] != row["change"]
    assert HOST_KEYS <= row["host"].keys()
    pairs = row["seeds"]["pairs"]
    assert pairs and len(set(pairs)) == len(pairs)
    workloads = {w["name"] for w in SPEC["workloads"]}
    metrics = {m["name"] for m in SPEC["end_to_end"]}
    assert row["workloads"] and set(row["workloads"]) <= workloads
    for table in row["workloads"].values():
        assert table and set(table) <= metrics
        for cell in table.values():
            for side in ("parent", "change"):
                assert SIDE_KEYS <= cell[side].keys()
                assert cell[side]["q1"] <= cell[side]["median"] <= cell[side]["q3"]
            assert 0 <= cell["pairs_won"] <= len(pairs)
    assert row["seeds"]["held_out"] and not set(row["seeds"]["held_out"]) & set(pairs)
    assert set(row["held_out"]) <= workloads
    for table in row["held_out"].values():
        assert set(table) <= metrics
        assert all(cell.keys() == {"parent", "change"} for cell in table.values())
