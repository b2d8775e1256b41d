"""The benchmark's catalogue: workloads, metrics, bounds and run length.

``BENCHMARK.json`` at the checkout root is generated from this module
(``python3 perfbench/run.py --write-spec``), and the result lines the
benchmark prints carry exactly the metrics named here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
#: Seconds one run's timed phase lasts.  The measuring host's speed
#: drifts by about 20% between 10-second windows, so a run spans
#: several of them; much longer runs would not fit tens of runs per
#: workload into an hour.
RUN_SECONDS = 25

#: The study shape every workload runs: the paper cohort (1,486 cases,
#: 1,304 controls at scale 0.1) over L = 1000 SNPs, split over G = 5.
SNPS = 1000
SCALE = 0.1
MEMBERS = 5
#: Cohorts drawn from one workload seed; studies cycle through them.
#: Study time depends on the cohort (how many SNPs survive MAF, how
#: many LD rounds the walk needs), so a single cohort per run would
#: make the spread across seeds that of one draw.
COHORTS = 8
#: Setups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: name -> why it is in the benchmark (one line each): the workloads of
#: BENCHMARK.json.
WORKLOADS: Dict[str, str] = {
    "serve-warm": (
        "two closed-loop clients on a warm FederationService: only "
        "bind_study plus the four phases, with sessions sharing the "
        "round gate and the GIL"
    ),
    "collusion-sharded": (
        "f=1, 4 shards, parallel fan-out, supervised, integrity on: the "
        "only path through checkpoints, tree combine, echo and transcript "
        "rounds, f=1 pooling and a fresh 10-channel mesh"
    ),
}

#: Workloads that ``run.py --workload`` runs but BENCHMARK.json leaves
#: out.  cold-cli starts a fresh interpreter for every study, which
#: makes it the workload most exposed to the host's slow periods.  On
#: the measuring host, two sets of 10 runs made 25 minutes apart had
#: wall_ms_p50 medians 28% apart, with a within-set spread of 0.14.
#: No bound can absorb that.
MANUAL_WORKLOADS: Dict[str, str] = {
    "cold-cli": (
        "a fresh python -m repro run per study pays interpreter start, "
        "imports and star provisioning every time, as every CLI user and "
        "CI job does"
    ),
}

#: (name, unit, better, bound) of the end-to-end metrics.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("wall_ms_p50", "ms", "lower", 0.25),
    ("wall_ms_tail", "ms", "lower", 0.25),
    ("model_ms_p50", "ms", "lower", 0.25),
    ("studies_per_s", "1/s", "higher", 0.25),
    ("wire_bytes_per_study", "bytes", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
]

#: ECALLs that take at least 1% of traced study wall on some workload;
#: every other ECALL is folded into ``ecall.other``.
ECALLS = (
    "lead_run_ld",
    "answer_ld",
    "checkpoint_state",
    "lead_finish_shard_task",
    "ingest_shard_task",
    "shard_emit_partial",
)

#: Round kinds of ``StudyResult.ocall_rounds`` (``:`` written as ``.``,
#: the four ``transcript:*`` stages folded into one); any other kind is
#: ``other``.
ROUND_KINDS = (
    "summary",
    "retained",
    "ld",
    "lr",
    "shard-task",
    "shard.counts",
    "shard.moments",
    "transcript",
    "other",
)

#: Envelope tags on the simulated network; any other tag is ``other``.
NET_TAGS = (
    "summary",
    "retained",
    "ld",
    "lr",
    "shard",
    "shard-task",
    "echo",
    "transcript",
    "other",
)

KERNELS = ("pair_moments", "window_pairs", "rank_pvalues", "lr_matrix")
PURPOSES = ("frame", "storage", "checkpoint")


def _per_layer() -> List[Tuple[str, str]]:
    rows: List[Tuple[str, str]] = [
        ("startup.interpreter_s", "s"),
        ("startup.import_s", "s"),
        ("startup.import_scipy_s", "s"),
        ("startup.import_numpy_s", "s"),
        ("startup.import_repro_self_s", "s"),
        ("provision.substrate_s", "s"),
        ("provision.channels", "count"),
        ("provision.channel_s", "s"),
        ("provision.bind_s", "s"),
    ]
    for name in ECALLS + ("other",):
        rows += [(f"ecall.{name}.calls", "count"), (f"ecall.{name}.self_s", "s")]
    rows += [(f"rounds.{kind}", "count") for kind in ROUND_KINDS]
    rows += [
        ("rounds.total", "count"),
        ("ld.lookahead_misses", "count"),
        ("exchange.wait_s", "s"),
        ("exchange.worker_busy_s", "s"),
        ("ld.comparisons", "count"),
        ("ld.prune_self_s", "s"),
        ("ld.pairs_fetched", "count"),
        ("ld.useful_ratio", "ratio"),
    ]
    for kernel in KERNELS:
        rows += [
            (f"kernel.{kernel}.calls", "count"),
            (f"kernel.{kernel}.elements", "count"),
            (f"kernel.{kernel}.self_s", "s"),
        ]
    for verb in ("seal", "open"):
        for purpose in PURPOSES:
            rows += [
                (f"crypto.{verb}.{purpose}_s", "s"),
                (f"crypto.{verb}.{purpose}_bytes", "bytes"),
            ]
    rows += [
        ("crypto.kdf_calls", "count"),
        ("crypto.kdf_s", "s"),
        ("channel.protect_self_s", "s"),
        ("channel.open_self_s", "s"),
    ]
    for purpose in PURPOSES:
        rows += [
            (f"wire.encode.{purpose}_s", "s"),
            (f"wire.encode.{purpose}_bytes", "bytes"),
        ]
    rows.append(("wire.decode_s", "s"))
    for tag in NET_TAGS:
        rows += [(f"net.messages.{tag}", "count"), (f"net.bytes.{tag}", "bytes")]
    rows += [
        ("net.send_s", "s"),
        ("net.receive_s", "s"),
        ("storage.column_reads", "count"),
        ("storage.columns_self_s", "s"),
        ("storage.seal_s", "s"),
        ("checkpoint.calls", "count"),
        ("checkpoint.bytes", "bytes"),
        ("checkpoint.s", "s"),
        ("serve.queue_wait_s", "s"),
        ("serve.round_wait_s", "s"),
        ("serve.rounds_gated", "count"),
        ("serve.warm_hit_rate", "ratio"),
        ("other.self_s", "s"),
        ("trace.study_wall_s", "s"),
        ("trace.studies", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return rows


#: (name, unit) of the per-layer metrics, per traced study unless the
#: name says otherwise (``startup.*`` are per process start).
PER_LAYER: List[Tuple[str, str]] = _per_layer()

#: Layer metrics whose value is not a per-study mean.
NOT_PER_STUDY = frozenset(
    {"ld.useful_ratio", "serve.warm_hit_rate", "trace.studies", "trace.overhead_ratio"}
)


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": _better(n)} for n, u in PER_LAYER
        ],
    }


def _better(name: str) -> str:
    higher = ("ld.useful_ratio", "serve.warm_hit_rate", "trace.studies")
    return "higher" if name in higher else "lower"
