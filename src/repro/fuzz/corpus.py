"""The deduplicated corpus: minimal covering genome per behaviour unit.

Follows the hypofuzz pool design: the corpus is an index from each
*behaviour unit* — one fired ``faults.*``/``integrity.*``/
``shard.repair.*`` counter, or one executed arc of the detection
modules — to the simplest genome known to reach it (simplest under
:meth:`~repro.fuzz.genome.PlanGenome.sort_key`).  Adding a genome that
covers a new unit, or covers a known unit more simply, updates the
index; genomes that stop being the minimal cover of *any* unit are
pruned.  ``_check_invariants`` asserts the internal consistency after
every mutation, mirroring hypofuzz's corpus tests.

The pool serialises to a committed JSON artifact
(``tests/fuzz_corpus/corpus.json``).  Arc units are interpreter- and
version-dependent (they embed line numbers), so the artifact stores
each genome plus a *summary* of the behaviour it was kept for
(counter names, arc-set digest, arc count) and seeding a new session
re-establishes units by replaying the genomes — the committed file is
the corpus, not a coverage database.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..errors import ConfigError, CorpusInvariantError
from .coverage import Behaviour
from .genome import PlanGenome

#: Version tag of the corpus wire format.
CORPUS_FORMAT = 1


class CorpusPool:
    """Coverage-keyed pool of minimal covering genomes."""

    def __init__(self) -> None:
        #: unit -> digest of the minimal genome covering it.
        self._covers: Dict[str, str] = {}
        #: digest -> genome, for genomes that minimally cover >= 1 unit.
        self._genomes: Dict[str, PlanGenome] = {}
        #: digest -> the behaviour observed when the genome was added.
        self._behaviours: Dict[str, Behaviour] = {}
        #: every distinct behaviour key ever observed (for the report).
        self._keys_seen: set = set()

    def __len__(self) -> int:
        return len(self._genomes)

    def __contains__(self, digest: str) -> bool:
        return digest in self._genomes

    # -- queries --------------------------------------------------------------

    def genomes(self) -> List[PlanGenome]:
        """Pool genomes, simplest first (deterministic order)."""
        return sorted(self._genomes.values(), key=lambda g: g.sort_key())

    def units(self) -> FrozenSet[str]:
        return frozenset(self._covers)

    def counter_units(self) -> FrozenSet[str]:
        return frozenset(
            u for u in self._covers if not u.startswith("arc:")
        )

    def arc_units(self) -> FrozenSet[str]:
        return frozenset(u for u in self._covers if u.startswith("arc:"))

    def behaviour_keys(self) -> FrozenSet[str]:
        return frozenset(self._keys_seen)

    def cover_of(self, unit: str) -> Optional[PlanGenome]:
        digest = self._covers.get(unit)
        return self._genomes.get(digest) if digest is not None else None

    # -- mutation -------------------------------------------------------------

    def add(self, genome: PlanGenome, behaviour: Behaviour) -> bool:
        """Fold one executed genome into the pool.

        Returns ``True`` when the pool *changed*: the genome covered a
        unit nobody had reached, or covered a known unit more simply
        than the incumbent.  Either way the observed behaviour key is
        recorded for the coverage frontier.
        """
        self._keys_seen.add(behaviour.key())
        units = behaviour.units()
        if not units:
            return False
        digest = genome.digest()
        key = genome.sort_key()
        won: List[str] = []
        for unit in sorted(units):
            incumbent = self._covers.get(unit)
            if incumbent is None:
                won.append(unit)
                continue
            if incumbent == digest:
                continue
            if key < self._genomes[incumbent].sort_key():
                won.append(unit)
        if not won:
            return False
        for unit in won:
            self._covers[unit] = digest
        self._genomes[digest] = genome
        self._behaviours[digest] = behaviour
        self._prune()
        self._check_invariants()
        return True

    def _prune(self) -> None:
        """Drop genomes that minimally cover nothing anymore."""
        covering = set(self._covers.values())
        for digest in list(self._genomes):
            if digest not in covering:
                del self._genomes[digest]
                del self._behaviours[digest]

    def _check_invariants(self) -> None:
        """Internal-consistency assertions (hypofuzz-style).

        * every cover points at a genome the pool still stores;
        * every stored genome is the minimal cover of >= 1 unit;
        * every unit a genome is credited with is one its recorded
          behaviour actually produced.
        """
        covering = set(self._covers.values())
        for unit, digest in self._covers.items():
            if digest not in self._genomes:
                raise CorpusInvariantError(
                    f"corpus cover of {unit!r} points at evicted genome"
                )
            if unit not in self._behaviours[digest].units():
                raise CorpusInvariantError(
                    f"genome {digest[:12]} credited with unit {unit!r} "
                    "its behaviour never produced"
                )
        for digest in self._genomes:
            if digest not in covering:
                raise CorpusInvariantError(
                    f"genome {digest[:12]} stored but covers nothing"
                )
        if set(self._behaviours) != set(self._genomes):
            raise CorpusInvariantError(
                "behaviour map diverged from genome map"
            )

    # -- persistence ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The committed-artifact form: genomes + behaviour summaries."""
        entries = []
        for genome in self.genomes():
            digest = genome.digest()
            behaviour = self._behaviours[digest]
            entries.append(
                {
                    "digest": digest,
                    "genome": genome.to_json_dict(),
                    "behaviour": behaviour.to_json_dict(),
                    "units_covered": sum(
                        1 for d in self._covers.values() if d == digest
                    ),
                }
            )
        return {
            "format": CORPUS_FORMAT,
            "entries": entries,
            "summary": {
                "genomes": len(self._genomes),
                "units": len(self._covers),
                "counter_units": len(self.counter_units()),
                "arc_units": len(self.arc_units()),
                "behaviour_keys_seen": len(self._keys_seen),
            },
        }

    @staticmethod
    def entries_from_json(doc: dict) -> List[Tuple[PlanGenome, dict]]:
        """Decode a corpus artifact into (genome, behaviour-summary) pairs.

        The pairs feed :meth:`~repro.fuzz.engine.FuzzEngine.seed_corpus`,
        which replays each genome to re-establish its units under the
        current interpreter before re-adding it to a fresh pool.
        """
        if doc.get("format") != CORPUS_FORMAT:
            raise ConfigError(
                f"unsupported corpus format {doc.get('format')!r} "
                f"(expected {CORPUS_FORMAT})"
            )
        pairs = []
        try:
            for entry in doc["entries"]:
                pairs.append(
                    (
                        PlanGenome.from_json_dict(entry["genome"]),
                        dict(entry.get("behaviour", {})),
                    )
                )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed corpus document: {exc}")
        return pairs


def merge_behaviours(behaviours: Iterable[Behaviour]) -> FrozenSet[str]:
    """Union of the units a set of behaviours covers."""
    units: set = set()
    for behaviour in behaviours:
        units |= behaviour.units()
    return frozenset(units)
