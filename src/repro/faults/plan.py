"""Deterministic fault plans.

A :class:`FaultPlan` is a *pure function* from protocol coordinates to
fault decisions.  There is no mutable schedule and no shared random
stream: the action applied to the ``i``-th envelope on a link is
derived by hashing ``(seed, sender, receiver, i)`` through
:class:`~repro.crypto.rng.DeterministicRng`.  Two properties follow:

* **Replayability** — re-running a study with the same
  :class:`~repro.config.FaultConfig` injects exactly the same faults,
  so any chaos-suite failure reproduces from its seed alone.
* **Schedule determinism under concurrency** — per-link message indices
  are deterministic even when the parallel execution engine services
  members on worker threads (each worker owns its member's links), so
  thread interleaving cannot change which envelopes are hit.

This mirrors the seeded-exploration idea of coverage-guided fuzzers
(deterministic, replayable schedules instead of ad-hoc sleeps) applied
to a distributed protocol.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..config import ENVELOPE_RATE_FIELDS, FaultConfig
from ..crypto.rng import DeterministicRng

#: Fault actions an envelope can draw.  ``None`` (no fault) is implied.
DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"
CORRUPT = "corrupt"
#: Byzantine actions: valid frames played adversarially.
REPLAY = "replay"
WITHHOLD = "withhold"
EQUIVOCATE = "equivocate"

#: Envelope actions, drawn with the rates of
#: :data:`~repro.config.ENVELOPE_RATE_FIELDS` in the same order.
ACTIONS = (DROP, DUPLICATE, DELAY, CORRUPT, REPLAY, WITHHOLD)

#: Resolution of the per-envelope uniform draw.
_DRAW_RESOLUTION = 1_000_000


class FaultPlan:
    """The seeded fault draws of one protocol run.

    Every setting is read from :attr:`config`; the plan adds only the
    draws, so the config's document (``config.to_json_dict()``) is the
    plan's complete, replayable description.
    """

    def __init__(self, config: FaultConfig):
        self.config = config
        # Pre-computed cumulative thresholds on the integer draw.
        self._thresholds: List[Tuple[int, str]] = []
        cumulative = 0.0
        for action, name in zip(ACTIONS, ENVELOPE_RATE_FIELDS):
            cumulative += getattr(config, name)
            self._thresholds.append((int(cumulative * _DRAW_RESOLUTION), action))

    def _draw(self, *coordinates: object) -> int:
        label = "faultplan/" + "/".join(str(c) for c in coordinates)
        rng = DeterministicRng(f"{label}#{self.config.seed}")
        return rng.randbelow(_DRAW_RESOLUTION)

    def action_for(
        self, sender: str, receiver: str, link_index: int
    ) -> Optional[str]:
        """The fault applied to the ``link_index``-th envelope on a link.

        Returns one of :data:`ACTIONS` or ``None``.  Pure and
        order-independent: the answer depends only on the seed and the
        coordinates, never on previously asked questions.
        """
        draw = self._draw("send", sender, receiver, link_index)
        for threshold, action in self._thresholds:
            if draw < threshold:
                return action
        return None

    def corrupt_offset(
        self, sender: str, receiver: str, link_index: int, body_len: int
    ) -> int:
        """Deterministic byte offset to flip when corrupting a frame."""
        if body_len <= 0:
            return 0
        return self._draw("corrupt", sender, receiver, link_index) % body_len

    def equivocate_for(self, stage: str, member: str, attempt: int) -> bool:
        """Whether the compromised broadcaster equivocates toward a member.

        Drawn per ``(stage, member, attempt)``: the same broadcast
        attempt always replays identically, while a post-failover re-run
        (a new attempt) draws afresh — so a detected equivocation can
        resolve into a clean, bit-identical completion.
        """
        draw = self._draw("equivocate", stage, member, attempt)
        return draw < int(self.config.equivocate_rate * _DRAW_RESOLUTION)

    def shard_flip_for(self, kind: str, shard: int, attempt: int) -> bool:
        """Whether the compromised module falsifies this leaf emission.

        Drawn per ``(kind, shard, attempt)``: each emission of the same
        shard task (including the integrity layer's verification re-run,
        which is a fresh attempt) draws afresh, which is exactly what
        lets the dual-run commitment comparison expose the lie.
        """
        draw = self._draw("shardflip", kind, shard, attempt)
        return draw < int(self.config.shard_flip_rate * _DRAW_RESOLUTION)

    def digest(self) -> str:
        """SHA-256 over the config's canonical document.

        Chaos-report records carry this digest next to the document, so
        a record is traceable to the exact faults that produced it.
        """
        return self.config.digest()
