"""Command-line interface.

Five subcommands cover the adoption path of a federation operator:

* ``repro generate`` — create a synthetic study cohort and save it as a
  ``.npz`` bundle (or import one produced elsewhere with the same keys).
* ``repro run`` — execute a GenDPR study over a saved cohort, printing
  the per-phase selection, timings and traffic, optionally with
  collusion tolerance and a JSON result dump.  ``--trace out.jsonl``
  records a span trace and ``--report report.json`` a full RunReport
  (see ``docs/OBSERVABILITY.md``).
* ``repro report`` — pretty-print a saved RunReport, optionally
  converting its spans to Chrome ``about://tracing`` format.
* ``repro serve`` — run a batch of studies through the long-lived
  federation service (warm enclave pools, fair round scheduler,
  admission control; see ``docs/SERVICE.md``), with optional scheduler
  metrics and per-study result artifacts.
* ``repro submit`` — submit a single study through the service request
  path (admission → warm slot → per-request RunReport).
* ``repro attack`` — evaluate the LR membership detector against an
  arbitrary SNP set of a saved cohort (e.g. to double-check a release).
* ``repro info`` — describe a saved cohort bundle.
* ``repro lint`` — run the domain-aware static analyser over the
  source tree (enclave-boundary, determinism, crypto-misuse, lock and
  error-taxonomy rules; see ``docs/STATIC_ANALYSIS.md``).

Installed as ``python -m repro`` (see ``repro/__main__.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Optional, Sequence

import numpy as np

from .attacks.evaluation import evaluate_attack
from .config import (
    CollusionPolicy,
    FaultConfig,
    IntegrityConfig,
    ObservabilityConfig,
    PrivacyThresholds,
    ResilienceConfig,
    ShardingConfig,
    StudyConfig,
)
from .core.protocol import run_study
from .errors import ReproError, ServiceOverloadedError
from .genomics.genotype import GenotypeMatrix
from .genomics.population import Cohort
from .genomics.snp import SnpPanel
from .genomics.synthetic import SyntheticSpec, generate_cohort
from .obs.export import write_chrome_trace, write_jsonl
from .obs.report import RunReport
from .serve.config import ServiceConfig
from .serve.service import FederationService

_BUNDLE_KEYS = ("case", "control")


def save_cohort_bundle(path: str, cohort: Cohort) -> None:
    """Persist a cohort as a compressed ``.npz`` bundle."""
    np.savez_compressed(
        path,
        case=cohort.case.array(),
        control=cohort.control.array(),
    )


def load_cohort_bundle(path: str) -> Cohort:
    """Load a cohort bundle written by :func:`save_cohort_bundle`."""
    with np.load(path) as bundle:
        missing = [key for key in _BUNDLE_KEYS if key not in bundle]
        if missing:
            raise ReproError(f"cohort bundle misses arrays: {missing}")
        case = GenotypeMatrix(bundle["case"])
        control = GenotypeMatrix(bundle["control"])
    panel = SnpPanel.synthetic(case.num_snps)
    return Cohort.control_as_reference(panel, case, control)


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        num_snps=args.snps,
        num_case=args.case,
        num_control=args.control,
        num_sites=args.sites,
        site_effect_sd=args.site_effect,
        case_drift_sd=args.drift,
        seed=args.seed,
    )
    cohort, _ = generate_cohort(spec)
    save_cohort_bundle(args.out, cohort)
    print(f"wrote {args.out}: {cohort.describe()}")
    return 0


def _collusion_policy(value: Optional[str], members: int) -> CollusionPolicy:
    if value is None:
        return CollusionPolicy.none()
    if value == "conservative":
        return CollusionPolicy.conservative(members)
    return CollusionPolicy(tuple(int(f) for f in value.split(",")))


def _cmd_run(args: argparse.Namespace) -> int:
    cohort = load_cohort_bundle(args.cohort)
    thresholds = PrivacyThresholds(
        maf_cutoff=args.maf_cutoff,
        ld_cutoff=args.ld_cutoff,
        false_positive_rate=args.alpha,
        power_threshold=args.beta,
    )
    observe = bool(args.trace or args.report)
    faults = FaultConfig.off()
    if args.chaos_seed is not None:
        faults = FaultConfig.chaos(
            args.chaos_seed, intensity=args.chaos_intensity
        )
    # An armed fault plan without the supervised runtime would fail
    # unmasked, so a chaos seed implies supervision.
    supervised = args.supervised or args.chaos_seed is not None
    config = StudyConfig(
        snp_count=cohort.num_snps,
        thresholds=thresholds,
        collusion=_collusion_policy(args.collusion, args.members),
        sharding=ShardingConfig.over(args.shards),
        seed=args.seed,
        study_id=args.study_id,
        observability=(
            ObservabilityConfig.tracing() if observe else ObservabilityConfig.off()
        ),
        integrity=(
            IntegrityConfig.on() if args.integrity else IntegrityConfig.off()
        ),
        faults=faults,
        resilience=(
            ResilienceConfig.supervised()
            if supervised
            else ResilienceConfig.off()
        ),
    )
    result = run_study(cohort, config, args.members)

    print(result.summary())
    for label, ms in result.timings.as_milliseconds().items():
        print(f"  {label:<30s} {ms:10.1f} ms")
    print(f"  network: {result.network_bytes:,} bytes "
          f"/ {result.network_messages} messages")
    if result.collusion is not None:
        vulnerable = result.collusion.vulnerable_snps(tuple(result.l_safe))
        print(f"  collusion: {result.collusion.combinations_evaluated} "
              f"combinations, {len(vulnerable)} vulnerable SNPs withheld")
    if result.observability is not None:
        repair = result.observability.meta.get("sharding", {}).get("repair")
        if repair:
            print(f"  resilience: tree repaired {repair['repairs']}x "
                  f"(layout epoch {repair['epoch']})")

    if args.json:
        payload = {
            "study_id": result.study_id,
            "leader": result.leader_id,
            "members": result.num_members,
            "l_des": result.l_des,
            "l_prime": result.l_prime,
            "l_double_prime": result.l_double_prime,
            "l_safe": result.l_safe,
            "release_power": result.release_power,
            "timings_ms": result.timings.as_milliseconds(),
            "network_bytes": result.network_bytes,
        }
        if result.collusion is not None:
            payload["collusion"] = {
                "baseline_safe": list(result.collusion.baseline_safe),
                "vulnerable": list(
                    result.collusion.vulnerable_snps(tuple(result.l_safe))
                ),
                "combinations": result.collusion.combinations_evaluated,
            }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"  result written to {args.json}")

    if result.observability is not None:
        if args.trace:
            count = write_jsonl(result.observability.spans, args.trace)
            print(f"  trace written to {args.trace} ({count} spans)")
        if args.report:
            result.observability.save(args.report)
            print(f"  run report written to {args.report}")
    return 0


def _study_config(args: argparse.Namespace, cohort: Cohort, study_id: str) -> StudyConfig:
    thresholds = PrivacyThresholds(
        maf_cutoff=args.maf_cutoff,
        ld_cutoff=args.ld_cutoff,
        false_positive_rate=args.alpha,
        power_threshold=args.beta,
    )
    return StudyConfig(
        snp_count=cohort.num_snps,
        thresholds=thresholds,
        collusion=_collusion_policy(args.collusion, args.members),
        sharding=ShardingConfig.over(getattr(args, "shards", 1)),
        seed=args.seed,
        study_id=study_id,
    )


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        num_members=args.members,
        pool_size=args.pool_size,
        max_active=args.max_active,
        queue_limit=args.queue_limit,
        max_concurrent_rounds=args.max_rounds,
        enclave_memory_budget_bytes=args.memory_budget,
        seed=args.seed,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    cohort = load_cohort_bundle(args.cohort)
    outcomes = {}
    with FederationService(_service_config(args)) as service:
        submitted = []
        for index in range(args.studies):
            config = _study_config(
                args, cohort, f"{args.study_prefix}-{index}"
            )
            while True:
                try:
                    submitted.append(service.submit(cohort, config))
                    break
                except ServiceOverloadedError:
                    # Backpressure: wait for the queue to drain a bit.
                    time.sleep(0.05)
        for study_id in submitted:
            try:
                result = service.result(study_id, timeout=args.timeout)
            except ReproError as exc:
                status = service.status(study_id)
                status["error_message"] = str(exc)
                outcomes[study_id] = status
                continue
            status = service.status(study_id)
            status.update(
                l_safe=result.l_safe,
                release_power=result.release_power,
                leader=result.leader_id,
            )
            outcomes[study_id] = status
        metrics = service.metrics()

    done = sum(1 for o in outcomes.values() if o["status"] == "done")
    print(
        f"served {len(outcomes)} studies ({done} done) over "
        f"{int(metrics['pool_slots'])} warm slots: "
        f"{int(metrics['warm_hits'])} warm hits / "
        f"{int(metrics['cold_provisions'])} cold provisions, "
        f"{int(metrics['rounds_admitted'])} rounds scheduled"
    )
    for study_id, outcome in outcomes.items():
        line = (
            f"  {study_id:<20s} {outcome['status']:<10s} "
            f"wait {outcome['wait_seconds'] * 1000:8.1f} ms  "
            f"run {outcome['run_seconds'] * 1000:8.1f} ms"
        )
        if "l_safe" in outcome:
            line += (
                f"  |L_safe|={len(outcome['l_safe'])} "
                f"power={outcome['release_power']:.3f}"
            )
        print(line)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, default=str)
        print(f"  scheduler metrics written to {args.metrics}")
    if args.results:
        with open(args.results, "w", encoding="utf-8") as handle:
            json.dump(outcomes, handle, indent=2, default=str)
        print(f"  per-study results written to {args.results}")
    return 0 if done == len(outcomes) else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    cohort = load_cohort_bundle(args.cohort)
    config = _study_config(args, cohort, args.study_id)
    service_config = ServiceConfig(
        num_members=args.members, pool_size=1, max_active=1, seed=args.seed
    )
    with FederationService(service_config) as service:
        study_id = service.submit(cohort, config)
        result = service.result(study_id, timeout=args.timeout)
        status = service.status(study_id)
    print(result.summary())
    print(
        f"  service: slot {status['slot']} "
        f"({'warm' if status['warm'] else 'cold'}), "
        f"{status['rounds']} gated rounds, "
        f"run {status['run_seconds'] * 1000:.1f} ms"
    )
    if args.report and result.observability is not None:
        result.observability.save(args.report)
        print(f"  per-request run report written to {args.report}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = RunReport.load(args.report)
    print(report.render())
    if args.chrome:
        write_chrome_trace(report.spans, args.chrome)
        print(f"\nchrome trace written to {args.chrome} "
              "(load via about://tracing or ui.perfetto.dev)")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    cohort = load_cohort_bundle(args.cohort)
    if args.release:
        with open(args.release, encoding="utf-8") as handle:
            snps = json.load(handle)["l_safe"]
    elif args.snps:
        snps = [int(s) for s in args.snps.split(",")]
    else:
        snps = list(range(cohort.num_snps))
    evaluation = evaluate_attack(cohort, snps, alpha=args.alpha)  # lint: declassify(aggregate attack power and false-positive rate are what this command reports)
    print(f"LR membership attack over {len(snps)} SNPs "
          f"(alpha={args.alpha}):")
    print(f"  power:               {evaluation.power:.3f}")
    print(f"  false-positive rate: {evaluation.false_positive_rate:.3f}")
    print(f"  advantage:           {evaluation.advantage:.3f}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    cohort = load_cohort_bundle(args.cohort)
    print(cohort.describe())
    # This used to echo the case panel's raw min/median/max MAF.  Raw
    # per-cohort allele frequencies are exactly what the LR membership
    # attack consumes (R6 flagged the flow source->stdout), so the
    # summary now sticks to dimensions; DP-protected statistics come
    # from running the protocol.
    print("case minor-allele frequency: withheld "
          "(raw MAFs enable membership inference; use 'run' for "
          "DP-protected statistics)")
    return 0


class _SubcommandParser(argparse.ArgumentParser):
    """Subcommand parser whose options may be attached on first parse.

    ``repro lint`` and ``repro fuzz`` take their options from their own
    packages; importing those only when the subcommand is parsed keeps
    the analyser and the fuzzer out of every other command's start-up.
    """

    def __init__(
        self,
        *args,
        configure: Optional[Callable[[argparse.ArgumentParser], None]] = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self._configure = configure

    def parse_known_args(self, args=None, namespace=None):
        if self._configure is not None:
            configure, self._configure = self._configure, None
            configure(self)
        return super().parse_known_args(args, namespace)


def _configure_lint(parser: argparse.ArgumentParser) -> None:
    from .lint.cli import configure_parser

    configure_parser(parser)


def _configure_fuzz(parser: argparse.ArgumentParser) -> None:
    from .fuzz.cli import configure_parser

    configure_parser(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GenDPR: distributed assessment of privacy-preserving "
        "GWAS releases (Middleware '22 reproduction)",
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic cohort bundle"
    )
    generate.add_argument("--snps", type=int, default=1000)
    generate.add_argument("--case", type=int, default=1500)
    generate.add_argument("--control", type=int, default=1300)
    generate.add_argument("--sites", type=int, default=1)
    generate.add_argument("--site-effect", type=float, default=0.0)
    generate.add_argument("--drift", type=float, default=0.085)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=_cmd_generate)

    run = subparsers.add_parser("run", help="run a GenDPR study")
    run.add_argument("--cohort", required=True)
    run.add_argument("--members", type=int, default=3)
    run.add_argument(
        "--collusion",
        help="comma-separated f values, or 'conservative' for f=1..G-1",
    )
    run.add_argument("--maf-cutoff", type=float, default=0.05)
    run.add_argument("--ld-cutoff", type=float, default=1e-5)
    run.add_argument("--alpha", type=float, default=0.1)
    run.add_argument("--beta", type=float, default=0.9)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split the SNP axis into this many ranges aggregated over "
        "the combine tree (docs/PERFORMANCE.md); 1 disables sharding",
    )
    run.add_argument("--study-id", default="cli-study")
    run.add_argument("--json", help="write the result as JSON to this path")
    run.add_argument(
        "--trace", help="record spans and write a JSONL trace to this path"
    )
    run.add_argument(
        "--report",
        help="write the machine-readable RunReport JSON to this path",
    )
    run.add_argument(
        "--integrity",
        action="store_true",
        help="enable Byzantine-integrity checks: broadcast-consistency "
        "echo, channel-transcript cross-checks and checkpoint freshness "
        "(docs/RESILIENCE.md)",
    )
    run.add_argument(
        "--supervised",
        action="store_true",
        help="run under the protocol supervisor: checkpoints, leader "
        "failover and (sharded) tree repair (docs/RESILIENCE.md)",
    )
    run.add_argument(
        "--chaos-seed",
        type=int,
        help="arm the seeded drop/duplicate/delay/corrupt fault plan "
        "with this seed; implies --supervised",
    )
    run.add_argument(
        "--chaos-intensity",
        type=float,
        default=0.15,
        help="total fault probability per sent envelope for --chaos-seed",
    )
    run.set_defaults(func=_cmd_run)

    def add_study_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--cohort", required=True)
        sub.add_argument("--members", type=int, default=3)
        sub.add_argument(
            "--collusion",
            help="comma-separated f values, or 'conservative' for f=1..G-1",
        )
        sub.add_argument("--maf-cutoff", type=float, default=0.05)
        sub.add_argument("--ld-cutoff", type=float, default=1e-5)
        sub.add_argument("--alpha", type=float, default=0.1)
        sub.add_argument("--beta", type=float, default=0.9)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--shards",
            type=int,
            default=1,
            help="split the SNP axis into this many ranges aggregated "
            "over the combine tree; 1 disables sharding",
        )
        sub.add_argument(
            "--timeout",
            type=float,
            default=600.0,
            help="seconds to wait for each study's result",
        )

    serve = subparsers.add_parser(
        "serve",
        help="run studies through the long-lived federation service "
        "(docs/SERVICE.md)",
    )
    add_study_options(serve)
    serve.add_argument(
        "--studies", type=int, default=8,
        help="number of studies to submit",
    )
    serve.add_argument("--study-prefix", default="serve")
    serve.add_argument(
        "--pool-size", type=int, default=2, help="warm substrates to keep"
    )
    serve.add_argument(
        "--max-active", type=int, default=2,
        help="studies executing concurrently",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=8,
        help="submissions allowed to wait before rejection",
    )
    serve.add_argument(
        "--max-rounds", type=int, default=2,
        help="protocol rounds in flight across all sessions",
    )
    serve.add_argument(
        "--memory-budget", type=int, default=0,
        help="pool-wide trusted-memory admission ceiling in bytes "
        "(0 disables)",
    )
    serve.add_argument(
        "--metrics", help="write scheduler/queue/pool metrics JSON here"
    )
    serve.add_argument(
        "--results", help="write per-study outcome JSON here"
    )
    serve.set_defaults(func=_cmd_serve)

    submit = subparsers.add_parser(
        "submit",
        help="submit one study through the service request path",
    )
    add_study_options(submit)
    submit.add_argument("--study-id", default="submitted-study")
    submit.add_argument(
        "--report",
        help="write the per-request RunReport JSON to this path",
    )
    submit.set_defaults(func=_cmd_submit)

    report = subparsers.add_parser(
        "report", help="pretty-print a RunReport written by 'run --report'"
    )
    report.add_argument("report", help="RunReport JSON path")
    report.add_argument(
        "--chrome", help="also convert the spans to Chrome trace JSON here"
    )
    report.set_defaults(func=_cmd_report)

    attack = subparsers.add_parser(
        "attack", help="evaluate the LR membership attack on a SNP set"
    )
    attack.add_argument("--cohort", required=True)
    attack.add_argument("--snps", help="comma-separated SNP indices")
    attack.add_argument(
        "--release", help="JSON result file from 'repro run --json'"
    )
    attack.add_argument("--alpha", type=float, default=0.1)
    attack.set_defaults(func=_cmd_attack)

    info = subparsers.add_parser("info", help="describe a cohort bundle")
    info.add_argument("--cohort", required=True)
    info.set_defaults(func=_cmd_info)

    subparsers.add_parser(
        "lint",
        help="run the domain-aware static analyser "
        "(docs/STATIC_ANALYSIS.md)",
        configure=_configure_lint,
    )

    subparsers.add_parser(
        "fuzz",
        help="coverage-guided chaos fuzzing over fault plans "
        "(docs/FUZZING.md)",
        configure=_configure_fuzz,
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        failure = getattr(exc, "report", None)
        if failure is not None and hasattr(failure, "to_dict"):
            # Classified aborts carry a FailureReport; surface it as
            # JSON so operators (and CI) can triage without a debugger.
            print(
                json.dumps(failure.to_dict(), indent=2, default=str),
                file=sys.stderr,
            )
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream consumer (e.g. ``head``) closed stdout early.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
