"""Ablation — wide-area network sensitivity.

The paper evaluates computation on one host; a real federation spans
continents.  GenDPR trades bulk genome transfer for *rounds* of small
messages, so its WAN cost is latency-bound while the centralized
baseline's is bandwidth-bound.  This ablation replays both systems'
actual traffic through the simulated network's latency/bandwidth model
and reports the transfer-time component each deployment would add on a
research WAN (10 ms one-way latency, 100 MB/s).
"""

from __future__ import annotations

from repro.bench.reporting import render_table
from repro.bench.workloads import PAPER_CASE_FULL, PAPER_THRESHOLDS, paper_cohort
from repro.config import NetworkProfile, StudyConfig
from repro.core.baseline import run_centralized_study
from repro.core.protocol import run_study
from repro.net.network import SimulatedNetwork

SNPS = 2_500
LATENCY_S = 0.010
BANDWIDTH = 100e6


def _config(study_id: str) -> StudyConfig:
    return StudyConfig(
        snp_count=SNPS, thresholds=PAPER_THRESHOLDS, study_id=study_id
    )


def test_ablation_wan_transfer_time(benchmark, save_result):
    cohort, _ = paper_cohort(PAPER_CASE_FULL, SNPS)
    profile = NetworkProfile(latency_s=LATENCY_S, bandwidth_bytes_per_s=BANDWIDTH)

    def run_all():
        rows = []
        for gdos in (3, 7):
            network = SimulatedNetwork(profile)
            result = run_study(
                cohort, _config(f"wan-gendpr-{gdos}"), gdos, network=network
            )
            rows.append(
                (
                    f"GenDPR, {gdos} GDOs",
                    result.network_messages,
                    result.network_bytes,
                    network.simulated_time,
                )
            )
        network = SimulatedNetwork(profile)
        result = run_centralized_study(
            cohort, _config("wan-central"), 3, network=network
        )
        rows.append(
            (
                "Centralized, 3 GDOs",
                result.network_messages,
                result.network_bytes,
                network.simulated_time,
            )
        )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = render_table(
        ["Deployment", "Messages", "Bytes", "WAN transfer (s)"],
        [
            [name, f"{messages:,}", f"{size:,}", f"{seconds:.2f}"]
            for name, messages, size, seconds in rows
        ],
    )
    save_result(
        "ablation_wan",
        "Ablation: simulated WAN transfer time "
        f"(latency {LATENCY_S * 1000:.0f} ms, {BANDWIDTH / 1e6:.0f} MB/s).\n"
        + table
        + "\nGenDPR's WAN cost is message-round-bound; the centralized "
        "baseline's is genome-volume-bound.",
    )
    # Every deployment accumulated simulated transfer time.
    assert all(seconds > 0 for _, _, _, seconds in rows)
