"""Partition-aware peer scheduling for anti-entropy rounds.

Picking a uniformly random peer every round means a long partition
burns a message per round into a black hole.  The scheduler keeps
per-directed-pair state: an exchange that times out (no ACK) backs the
pair off exponentially — ``base * 2^failures`` up to
``base * max_backoff_factor`` — and an exchange that completes resets
it.  Backoff expiry doubles as the
**recovery probe**: an unreachable peer is retried exactly when its
backoff lapses, so healed partitions and recovered crashes are
discovered within one capped backoff period instead of being hammered
every round.

All randomness comes from the injected ``random.Random`` (the cluster's
seeded ``gossip`` stream) — never the module-global ``random`` — so
seeded runs stay reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass
class _PairState:
    failures: int = 0
    next_eligible: float = 0.0


@dataclass
class SchedulerStats:
    successes: int = 0
    failures: int = 0
    #: rounds where every peer was backing off (nothing was sent).
    starved_rounds: int = 0
    #: attempts against peers that had failed at least once before —
    #: i.e. recovery probes.
    probes: int = 0
    backoff_by_pair: Dict[Tuple[int, int], int] = field(default_factory=dict)


class PeerScheduler:
    """Per-directed-pair exponential backoff with recovery probes."""

    def __init__(
        self,
        rng: random.Random,
        base_backoff: float,
        max_backoff_factor: float = 8.0,
    ):
        if base_backoff <= 0:
            raise ValueError("base backoff must be positive")
        if max_backoff_factor < 1:
            raise ValueError("max backoff factor must be >= 1")
        self.rng = rng
        self.base_backoff = base_backoff
        self.max_backoff_factor = max_backoff_factor
        self.stats = SchedulerStats()
        self._pairs: Dict[Tuple[int, int], _PairState] = {}

    def _state(self, node: int, peer: int) -> _PairState:
        return self._pairs.setdefault((node, peer), _PairState())

    def failures(self, node: int, peer: int) -> int:
        return self._state(node, peer).failures

    def eligible(self, node: int, peer: int, now: float) -> bool:
        return self._state(node, peer).next_eligible <= now

    def pick(
        self,
        node: int,
        peers: Sequence[int],
        now: float,
        fanout: int = 1,
    ) -> List[int]:
        """Up to ``fanout`` distinct eligible peers for this round.

        Peers still in backoff are skipped; if *every* peer is backing
        off the round is starved (recorded, nothing returned) — the
        partition-aware behavior that keeps unreachable peers off the
        wire."""
        eligible = [p for p in peers if self.eligible(node, p, now)]
        if not eligible:
            if peers:
                self.stats.starved_rounds += 1
            return []
        chosen = self.rng.sample(eligible, min(fanout, len(eligible)))
        for peer in chosen:
            if self._state(node, peer).failures:
                self.stats.probes += 1
        return chosen

    def success(self, node: int, peer: int, now: float) -> None:
        state = self._state(node, peer)
        state.failures = 0
        state.next_eligible = now
        self.stats.successes += 1

    def failure(self, node: int, peer: int, now: float) -> None:
        state = self._state(node, peer)
        state.failures += 1
        delay = min(
            self.base_backoff * (2.0 ** state.failures),
            self.base_backoff * self.max_backoff_factor,
        )
        state.next_eligible = now + delay
        self.stats.failures += 1
        pair = (node, peer)
        self.stats.backoff_by_pair[pair] = (
            self.stats.backoff_by_pair.get(pair, 0) + 1
        )
