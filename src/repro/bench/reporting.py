"""Render experiment rows in the paper's table/figure formats.

Pure text rendering: every function takes the row dicts produced by
:mod:`repro.bench.runner` and returns a string laid out like the
corresponding artifact of the paper, so EXPERIMENTS.md can place the
reproduction next to the original numbers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.timing import ALL_LABELS


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Monospace-align a generic table."""
    cells = [[str(h) for h in headers]] + [
        [str(value) for value in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for line_number, row in enumerate(cells):
        lines.append(
            "  ".join(value.ljust(widths[i]) for i, value in enumerate(row)).rstrip()
        )
        if line_number == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt_ms(value: object) -> str:
    return f"{float(value):,.1f}"


def render_resource_table(rows: List[Dict[str, object]]) -> str:
    """Table 3: average resource utilisation per configuration.

    The "Member" columns average over non-leader GDO enclaves — the
    paper's "federation members' TEE" figure; the leader enclave, which
    aggregates and runs the LR-test search, is shown separately.
    """
    body = [
        [
            f"{row['gdos']} GDOs / {row['snps']:,} SNPs",
            f"{100.0 * float(row['member_cpu_utilization']):.1f}%",
            f"{float(row['member_peak_memory_kib']):,.0f} KB",
            f"{float(row['leader_peak_memory_kib']):,.0f} KB",
            f"{int(row['network_bytes']):,}",
            f"{int(row['network_messages']):,}",
        ]
        for row in rows
    ]
    return "Table 3: GenDPR's average resource utilization.\n" + render_table(
        [
            "Configuration",
            "Member CPU",
            "Member memory",
            "Leader memory",
            "Net bytes",
            "Messages",
        ],
        body,
    )


def render_runtime_figure(rows: List[Dict[str, object]], caption: str) -> str:
    """Figures 5/6: per-task running time per deployment."""
    headers = ["Deployment"] + list(ALL_LABELS) + ["Total (ms)"]
    body = []
    for row in rows:
        name = (
            "Centralized"
            if row["system"] == "Centralized"
            else f"{row['gdos']} GDOs"
        )
        body.append(
            [name]
            + [_fmt_ms(row[label]) for label in ALL_LABELS]
            + [_fmt_ms(row["model_ms"])]
        )
    return f"{caption}\n" + render_table(headers, body)


def render_selection_table(rows: List[Dict[str, object]]) -> str:
    """Table 4: retained SNPs per phase for the three systems."""
    grouped: Dict[tuple, Dict[str, Dict[str, object]]] = {}
    for row in rows:
        key = (row["genomes"], row["snps"])
        grouped.setdefault(key, {})[str(row["system"])] = row

    def counts(row: Dict[str, object] | None) -> str:
        if row is None:
            return "-"
        return f"MAF {row['maf']:,} / LD {row['ld']:,} / LR {row['lr']:,}"

    body = []
    for (genomes, snps), systems in sorted(grouped.items()):
        body.append(
            [
                f"{genomes:,} / {snps:,}",
                counts(systems.get("Centralized")),
                counts(systems.get("GenDPR")),
                counts(systems.get("Naive distributed")),
            ]
        )
    return (
        "Table 4: SNPs retained after each verification phase.\n"
        + render_table(
            ["# genomes / SNPs", "Centralized", "GenDPR", "Naive distributed"],
            body,
        )
    )


def render_collusion_table(rows: List[Dict[str, object]]) -> str:
    """Table 5: collusion-tolerant GenDPR outcomes."""
    body = [
        [
            str(row["setting"]),
            f"{row['safe_with_tolerance']} ({float(row['safe_pct']):.1f}%)",
            f"{row['vulnerable']} ({float(row['vulnerable_pct']):.1f}%)",
            _fmt_ms(row["model_ms"]),
            str(row["combinations"]),
        ]
        for row in rows
    ]
    return (
        "Table 5: collusion-tolerant GenDPR.\n"
        + render_table(
            [
                "Settings",
                "# safe released SNPs",
                "# vulnerable SNPs",
                "Running time (ms)",
                "Combinations",
            ],
            body,
        )
    )
