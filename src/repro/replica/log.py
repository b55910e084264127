"""The canonical timestamp-ordered update log kept at every replica.

Each entry records one transaction's update part plus the metadata needed
to reconstruct the formal execution afterwards: the transaction, its
origin node, its timestamp, the set of transaction ids its decision
saw, and its group (the object it updates under partial replication,
``None`` under full).  Because messages can arrive out of timestamp
order, insertion may land anywhere — triggering the undo/redo
machinery in :mod:`repro.replica.engine`.

Beside the timestamp order the log keeps the *arrival sequence* of its
txids, append-only between truncations.  A decision's seen-set (the
paper's prefix subsequence, Section 3.3) is then a :class:`SeenView`
of the first ``n`` arrivals: O(1) to take, with no copy, where a
``frozenset`` of the log's txids costs O(log length) per transaction.
A seen-set decoded off the wire is a :class:`RunSet`: the same txids as
a few runs of consecutive ints, which is what a prefix of each origin's
txids is.

This is the *single* copy of the sequence: merge engines are views over
it (see :class:`repro.replica.engine.LogUpdateSource`) and never shadow
the records.
"""

from __future__ import annotations

import bisect
from collections.abc import Set as AbcSet
from dataclasses import dataclass
from itertools import chain, islice
from numbers import Real
from typing import AbstractSet, Dict, Iterator, List, Optional, Tuple

from ..core.transaction import Transaction
from ..core.update import Update
from .timestamps import Timestamp


class SeenView(AbcSet):
    """The txids of the first ``n`` arrivals of a log's arrival
    sequence ``seq`` (``index``: txid -> arrival position), as an
    immutable set.

    A log only appends to a sequence, and starts a fresh one when it
    truncates, so ``seq[:n]`` never changes.  It equals, hashes, pickles
    and wire-encodes as the ``frozenset`` of the same txids; set
    operators return ``frozenset``.  Readers that know the layout (the
    causal gate) use ``seq`` and ``n`` directly.
    """

    __slots__ = ("seq", "index", "n", "_hash")

    def __init__(self, seq: List[int], index: Dict[int, int], n: int):
        self.seq = seq
        self.index = index
        self.n = n
        self._hash: Optional[int] = None

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        return frozenset(iterable)

    def __len__(self) -> int:
        return self.n

    def __contains__(self, txid: object) -> bool:
        position = self.index.get(txid)
        return position is not None and position < self.n

    def __iter__(self) -> Iterator[int]:
        return islice(self.seq, self.n)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SeenView) and other.seq is self.seq:
            return other.n == self.n
        return AbcSet.__eq__(self, other)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self))
        return self._hash

    def __reduce__(self):
        return (frozenset, (tuple(self),))

    def __repr__(self) -> str:
        return f"SeenView({sorted(self)!r})"


class RunSet(AbcSet):
    """The ints of the inclusive runs ``bounds = (lo1, hi1, lo2, hi2,
    ...)``, as an immutable set.

    The bounds are ascending and the runs are non-empty and not
    adjacent, as :func:`repro.runtime.wire.decode` checks before it
    builds one; so a set costs O(runs) however many ints it holds.
    ``len`` is O(1), ``in`` a bisection, and iteration ascends.  It
    equals, hashes, pickles and wire-encodes as the ``frozenset`` of
    the same ints; set operators return ``frozenset``.  Readers that
    know the layout (the causal gate, the codec) use ``bounds``
    directly.
    """

    __slots__ = ("bounds", "_len", "_hash")

    def __init__(self, bounds: Tuple[int, ...]):
        self.bounds = bounds
        self._len = sum(bounds[1::2]) - sum(bounds[::2]) + len(bounds) // 2
        self._hash: Optional[int] = None

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        return frozenset(iterable)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, member: object) -> bool:
        # only an integral value can equal a member (1.0 and True do).
        if type(member) is not int and not (
            isinstance(member, Real) and member % 1 == 0
        ):
            return False
        bounds = self.bounds
        i = bisect.bisect_left(bounds, member)
        # odd: strictly inside a run, or its hi; even: a lo, or a gap.
        return i % 2 == 1 or (i < len(bounds) and bounds[i] == member)

    def __iter__(self) -> Iterator[int]:
        bounds = self.bounds
        return chain.from_iterable(
            map(range, bounds[::2], map((1).__add__, bounds[1::2]))
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RunSet):
            return other.bounds == self.bounds
        return AbcSet.__eq__(self, other)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self))
        return self._hash

    def __reduce__(self):
        return (frozenset, (tuple(self),))

    def __repr__(self) -> str:
        return f"RunSet({self.bounds!r})"


@dataclass(frozen=True)
class UpdateRecord:
    """One broadcast unit: an update tagged with its global timestamp."""

    ts: Timestamp
    txid: int
    transaction: Transaction
    update: Update
    origin: int
    real_time: float
    #: the txids the decision saw: a :class:`SeenView` when initiated
    #: here, a :class:`RunSet` when decoded off the wire; equal either
    #: way, and to the ``frozenset`` of the same txids.
    seen_txids: AbstractSet[int]
    #: the object (gossip group) this record updates; ``None``: all.
    group: object = None

    def __lt__(self, other: "UpdateRecord") -> bool:
        return self.ts < other.ts


class SystemLog:
    """A list of update records kept sorted by timestamp, plus the
    arrival sequence of their txids."""

    def __init__(self) -> None:
        self._records: List[UpdateRecord] = []
        #: txids in arrival order; appended to, never edited in place.
        self._arrivals: List[int] = []
        #: txid -> its position in ``_arrivals``.
        self._arrival_of: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[UpdateRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> UpdateRecord:
        return self._records[index]

    def __contains__(self, txid: int) -> bool:
        return txid in self._arrival_of

    @property
    def txids(self) -> SeenView:
        """The txids in the log now, as an O(1) view (no copy)."""
        return SeenView(self._arrivals, self._arrival_of, len(self._arrivals))

    def insert(self, record: UpdateRecord) -> Optional[int]:
        """Insert in timestamp order; returns the position, or None if the
        record was already present (duplicate delivery)."""
        if record.txid in self._arrival_of:
            return None
        position = bisect.bisect_left(self._records, record)
        self._records.insert(position, record)
        self._arrival_of[record.txid] = len(self._arrivals)
        self._arrivals.append(record.txid)
        return position

    def records(self) -> Tuple[UpdateRecord, ...]:
        return tuple(self._records)

    def truncate(self, length: int) -> Tuple[UpdateRecord, ...]:
        """Drop every record past the first ``length``; returns the lost
        suffix (in timestamp order).

        Models a crash losing volatile state: the prefix up to the last
        stable checkpoint survives, the rest is gone and must be
        re-fetched via anti-entropy.

        The survivors start a fresh arrival sequence (in their arrival
        order): views taken earlier keep the old one, unedited.
        """
        if not 0 <= length <= len(self._records):
            raise ValueError(
                f"truncate length {length} outside [0, {len(self._records)}]"
            )
        lost = tuple(self._records[length:])
        del self._records[length:]
        if lost:
            gone = {r.txid for r in lost}
            self._arrivals = [t for t in self._arrivals if t not in gone]
            self._arrival_of = {t: i for i, t in enumerate(self._arrivals)}
        return lost

    def max_timestamp(self) -> Optional[Timestamp]:
        return self._records[-1].ts if self._records else None
