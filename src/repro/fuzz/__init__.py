"""Coverage-guided chaos fuzzing over fault-plan genomes.

The subsystem that replaced the fixed seed sweeps (``repro fuzz``):

* :mod:`~repro.fuzz.genome` — the structured input space
  (:class:`~repro.fuzz.genome.PlanGenome`: a fault config plus run
  axes) with canonical JSON, digests and threat-model normalization;
* :mod:`~repro.fuzz.mutator` — typed, deterministic mutation operators;
* :mod:`~repro.fuzz.coverage` — behaviour keys: fired
  ``faults.*``/``integrity.*``/``shard.repair.*`` counters unioned
  with arc coverage of the detection modules;
* :mod:`~repro.fuzz.oracle` — the single decision-invariant harness
  shared with the chaos test tiers;
* :mod:`~repro.fuzz.corpus` — the deduplicated minimal-covering pool,
  persisted under ``tests/fuzz_corpus/``;
* :mod:`~repro.fuzz.shrink` — greedy reduction of violating genomes;
* :mod:`~repro.fuzz.seeds` — the 42 legacy sweep seeds as genomes;
* :mod:`~repro.fuzz.engine` — the session loop tying it together;
* :mod:`~repro.fuzz.cli` — ``repro fuzz`` (the only module with I/O).

See ``docs/FUZZING.md`` for the genome format, behaviour keys, corpus
lifecycle and how to triage a shrunk reproducer.
"""
