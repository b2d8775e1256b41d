"""Whole-program secret-taint analysis over the enclave trust boundary.

The per-file rules (R1-R5) check *syntactic* invariants; this package
checks a *semantic* one — the paper's core claim (Pascoal et al., §5)
that raw genotype data, per-SNP counts and key material never leave the
attested enclave except through sanctioned cryptographic sinks.  It
layers four stages on top of the AST engine:

1. :mod:`~repro.lint.flow.callgraph` — a function index and call graph
   over every scanned module, including the string-dispatched
   ``enclave.ecall("name", ...)`` boundary calls;
2. :mod:`~repro.lint.flow.model` — the configurable taint model:
   *sources* (genotype/phenotype column reads, key material, sealed
   loads, shard leaf partials), *sanctioned sinks* (authenticated
   channel encryption, sealing), *leak sinks* (logging, metrics,
   tracer annotations, run reports, wire sends outside the channel
   wrapper, exception payloads, CLI output) and *declassifiers*;
3. :mod:`~repro.lint.flow.analysis` — per-function def-use summaries
   and a worklist-based interprocedural taint propagator;
4. :mod:`~repro.lint.flow.rules` — the R6 (secret-leak), R7
   (boundary-crossing) and R8 (declassification-audit) rules riding on
   the propagator, enabled with ``repro lint --flow``.

:mod:`~repro.lint.flow.runtime` is the dynamic half: a debug-mode
taint-tag wrapper over :class:`~repro.tee.storage.ColumnReader` and
sealed-store loads that records every *observed* secret escape at test
time, cross-checked against the statically known declassification
sites (zero statically-unknown escapes is the acceptance bar).
"""
