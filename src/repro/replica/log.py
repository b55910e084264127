"""The canonical timestamp-ordered update log kept at every replica.

Each entry records one transaction's update part plus the metadata needed
to reconstruct the formal execution afterwards: the transaction, its
origin node, its timestamp, the set of transaction ids its decision
saw, and its group (the object it updates under partial replication,
``None`` under full).  Because messages can arrive out of timestamp
order, insertion may land anywhere — triggering the undo/redo
machinery in :mod:`repro.replica.engine`.

This is the *single* copy of the sequence: merge engines are views over
it (see :class:`repro.replica.engine.LogUpdateSource`) and never shadow
the records.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Tuple

from ..core.transaction import Transaction
from ..core.update import Update
from .timestamps import Timestamp


@dataclass(frozen=True)
class UpdateRecord:
    """One broadcast unit: an update tagged with its global timestamp."""

    ts: Timestamp
    txid: int
    transaction: Transaction
    update: Update
    origin: int
    real_time: float
    seen_txids: FrozenSet[int]
    #: the object (gossip group) this record updates; ``None``: all.
    group: object = None

    def __lt__(self, other: "UpdateRecord") -> bool:
        return self.ts < other.ts


class SystemLog:
    """A list of update records kept sorted by timestamp."""

    def __init__(self) -> None:
        self._records: List[UpdateRecord] = []
        self._ids: set = set()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[UpdateRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> UpdateRecord:
        return self._records[index]

    def __contains__(self, txid: int) -> bool:
        return txid in self._ids

    @property
    def txids(self) -> FrozenSet[int]:
        return frozenset(self._ids)

    def insert(self, record: UpdateRecord) -> Optional[int]:
        """Insert in timestamp order; returns the position, or None if the
        record was already present (duplicate delivery)."""
        if record.txid in self._ids:
            return None
        position = bisect.bisect_left(self._records, record)
        self._records.insert(position, record)
        self._ids.add(record.txid)
        return position

    def records(self) -> Tuple[UpdateRecord, ...]:
        return tuple(self._records)

    def truncate(self, length: int) -> Tuple[UpdateRecord, ...]:
        """Drop every record past the first ``length``; returns the lost
        suffix (in timestamp order).

        Models a crash losing volatile state: the prefix up to the last
        stable checkpoint survives, the rest is gone and must be
        re-fetched via anti-entropy.
        """
        if not 0 <= length <= len(self._records):
            raise ValueError(
                f"truncate length {length} outside [0, {len(self._records)}]"
            )
        lost = tuple(self._records[length:])
        del self._records[length:]
        self._ids.difference_update(r.txid for r in lost)
        return lost

    def max_timestamp(self) -> Optional[Timestamp]:
        return self._records[-1].ts if self._records else None
