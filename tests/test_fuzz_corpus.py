"""Corpus pool: minimal covering example per behaviour unit.

Mirrors the hypofuzz pool tests: adding examples maintains the
invariants (every cover points at a stored genome, every stored genome
minimally covers something, credited units were actually produced),
simpler genomes evict baroque incumbents, and pruning drops genomes
that stopped covering anything.  The wire format round-trips and
rejects malformed documents.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import FaultConfig
from repro.errors import ConfigError, CorpusInvariantError
from repro.fuzz.corpus import CORPUS_FORMAT, CorpusPool, merge_behaviours
from repro.fuzz.coverage import Behaviour
from repro.fuzz.genome import PlanGenome

CORPUS_PATH = Path(__file__).parent / "fuzz_corpus" / "corpus.json"


def _genome(**faults) -> PlanGenome:
    return PlanGenome(faults=FaultConfig(enabled=True, seed=1, **faults))


def _behaviour(*counters, arcs=()) -> Behaviour:
    return Behaviour(
        counters=frozenset(counters), arcs=frozenset(arcs)
    )


SIMPLE = _genome(drop_rate=0.01)
RICHER = _genome(drop_rate=0.05, delay_rate=0.05)
BAROQUE = _genome(
    drop_rate=0.2,
    delay_rate=0.12,
    crash_points=(("gdo-0", 4),),
)


def test_new_units_are_adopted_and_keys_tracked():
    pool = CorpusPool()
    assert pool.add(SIMPLE, _behaviour("faults.drops", "outcome.completed"))
    assert pool.units() == {"faults.drops", "outcome.completed"}
    assert len(pool) == 1
    assert pool.cover_of("faults.drops") == SIMPLE
    assert len(pool.behaviour_keys()) == 1


def test_empty_behaviour_changes_nothing():
    pool = CorpusPool()
    assert not pool.add(SIMPLE, _behaviour())
    assert len(pool) == 0
    # ... but the behaviour key is still recorded for the frontier.
    assert len(pool.behaviour_keys()) == 1


def test_simpler_genome_evicts_incumbent_cover():
    pool = CorpusPool()
    pool.add(BAROQUE, _behaviour("faults.drops"))
    assert pool.cover_of("faults.drops") == BAROQUE
    assert pool.add(SIMPLE, _behaviour("faults.drops"))
    assert pool.cover_of("faults.drops") == SIMPLE
    # The baroque genome covered nothing anymore: pruned.
    assert len(pool) == 1


def test_baroque_genome_kept_only_for_its_novel_units():
    pool = CorpusPool()
    pool.add(SIMPLE, _behaviour("faults.drops"))
    assert pool.add(
        BAROQUE, _behaviour("faults.drops", "faults.crashes")
    )
    assert pool.cover_of("faults.drops") == SIMPLE
    assert pool.cover_of("faults.crashes") == BAROQUE
    assert len(pool) == 2


def test_duplicate_add_is_a_no_op():
    pool = CorpusPool()
    behaviour = _behaviour("faults.drops")
    assert pool.add(SIMPLE, behaviour)
    assert not pool.add(SIMPLE, behaviour)
    assert len(pool) == 1


def test_equally_complex_genome_does_not_thrash():
    pool = CorpusPool()
    pool.add(SIMPLE, _behaviour("faults.drops"))
    other = _genome(duplicate_rate=0.01)
    changed = pool.add(other, _behaviour("faults.drops"))
    # One of the two wins by the deterministic tiebreak and stays.
    assert pool.cover_of("faults.drops") in (SIMPLE, other)
    pool._check_invariants()
    assert len(pool) == 1
    assert changed in (True, False)


def test_arc_units_and_counter_units_are_separated():
    pool = CorpusPool()
    pool.add(
        SIMPLE,
        _behaviour(
            "faults.drops", arcs=(("repro.faults.plan", 10, 11),)
        ),
    )
    assert pool.counter_units() == {"faults.drops"}
    assert pool.arc_units() == {"arc:repro.faults.plan:10:11"}


def test_genomes_listed_simplest_first():
    pool = CorpusPool()
    pool.add(BAROQUE, _behaviour("faults.crashes"))
    pool.add(SIMPLE, _behaviour("faults.drops"))
    pool.add(RICHER, _behaviour("faults.delays"))
    assert pool.genomes() == [SIMPLE, RICHER, BAROQUE]


def test_invariant_checker_trips_on_corrupted_state():
    pool = CorpusPool()
    pool.add(SIMPLE, _behaviour("faults.drops"))
    pool._covers["faults.ghost"] = "no-such-digest"
    with pytest.raises(CorpusInvariantError):
        pool._check_invariants()


def test_invariant_checker_trips_on_uncredited_unit():
    pool = CorpusPool()
    pool.add(SIMPLE, _behaviour("faults.drops"))
    digest = SIMPLE.digest()
    pool._covers["faults.never_produced"] = digest
    with pytest.raises(CorpusInvariantError):
        pool._check_invariants()


def test_wire_format_roundtrip_and_rejection():
    pool = CorpusPool()
    pool.add(
        SIMPLE,
        _behaviour(
            "faults.drops", arcs=(("repro.faults.plan", 10, 11),)
        ),
    )
    doc = pool.to_json_dict()
    assert doc["format"] == CORPUS_FORMAT
    assert doc["summary"]["genomes"] == 1
    pairs = CorpusPool.entries_from_json(doc)
    assert len(pairs) == 1
    genome, summary = pairs[0]
    assert genome == SIMPLE
    assert summary["counters"] == ["faults.drops"]
    assert summary["arc_count"] == 1
    with pytest.raises(ConfigError):
        CorpusPool.entries_from_json({"format": 999, "entries": []})
    with pytest.raises(ConfigError):
        CorpusPool.entries_from_json(
            {"format": CORPUS_FORMAT, "entries": [{"behaviour": {}}]}
        )


def test_merge_behaviours_unions_units():
    merged = merge_behaviours(
        [
            _behaviour("a"),
            _behaviour("b", arcs=(("m", 1, 2),)),
        ]
    )
    assert merged == {"a", "b", "arc:m:1:2"}


def test_committed_entries_reencode_to_their_documents():
    """Decoding a committed genome and encoding it again reproduces the
    committed document and digest byte for byte."""
    doc = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    assert doc["entries"]
    for entry in doc["entries"]:
        genome = PlanGenome.from_json_dict(entry["genome"])
        assert genome.to_json_dict() == entry["genome"]
        assert genome.digest() == entry["digest"]
