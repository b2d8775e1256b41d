"""``BENCH_perfbench.json``, the committed performance trajectory.

One row per performance change, appended and never rewritten.  A row
names the parent and change commits, the seeds and the measuring host,
and, per workload and end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles over the alternating pairs plus the number
of pairs the change won, and both sides' values on the held-out seed.
These checks keep the rows comparable: the same keys everywhere and
only metric and workload names the benchmark declares.  A row whose
workloads ran on different seeds names each one's pairs in
``pairs_by_workload``; its claimed cell must meet the rule the
Measured sections of docs/PERFORMANCE.md apply.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROW_KEYS = {
    "parent", "change", "title", "claim", "seeds", "seconds", "host", "workloads",
    "held_out",
}
HOST_KEYS = {"nproc", "affinity", "python", "numpy", "scipy", "machine"}
SIDE_KEYS = {"median", "q1", "q3"}


def _load(name: str) -> dict:
    return json.loads((ROOT / name).read_text(encoding="utf-8"))


ROWS = _load("BENCH_perfbench.json")["rows"]
SPEC = _load("BENCHMARK.json")
#: Share of a workload's pairs a claimed gain must win.
CLAIM_WIN_SHARE = 0.9


def _pairs(row: dict, workload: str) -> list:
    """The seeds of the pairs ``workload`` ran in ``row``."""
    return row.get("pairs_by_workload", {}).get(workload, row["seeds"]["pairs"])


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
    for workload, table in row["workloads"].items():
        assert table and set(table) <= metrics
        assert set(_pairs(row, workload)) <= set(pairs)
        for cell in table.values():
            for side in ("parent", "change"):
                assert SIDE_KEYS <= cell[side].keys()
                assert cell[side]["q1"] <= cell[side]["median"] <= cell[side]["q3"]
            assert 0 <= cell["pairs_won"] <= len(_pairs(row, workload))
    assert row["seeds"]["held_out"] and not set(row["seeds"]["held_out"]) & set(pairs)
    assert set(row["held_out"]) <= workloads
    for table in row["held_out"].values():
        assert set(table) <= metrics
        assert all(cell.keys() == {"parent", "change"} for cell in table.values())


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row["change"][:12])
def test_claimed_cell_meets_the_claim_rule(row):
    """Won 9 of 10 of its workload's pairs, by more than the parent's spread."""
    workload, metric = row["claim"]["workload"], row["claim"]["metric"]
    cell = row["workloads"][workload][metric]
    assert cell["pairs_won"] >= CLAIM_WIN_SHARE * len(_pairs(row, workload))
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}[metric]
    parent, change = cell["parent"], cell["change"]
    gain = parent["median"] - change["median"]
    if better == "higher":
        gain = -gain
    assert gain > parent["q3"] - parent["q1"]
