"""The canonical timestamp-ordered update log kept at every replica.

Each entry records one transaction's update part plus the metadata needed
to reconstruct the formal execution afterwards: the transaction, its
origin node, its timestamp, the set of transaction ids its decision
saw, and its group (the object it updates under partial replication,
``None`` under full).  Because messages can arrive out of timestamp
order, insertion may land anywhere — triggering the undo/redo
machinery in :mod:`repro.replica.engine`.

Beside the timestamp order the log keeps its txids as sorted runs of
consecutive ints.  A decision's seen-set (the paper's prefix
subsequence, Section 3.3) is then a :class:`RunSet` of those runs,
whether taken here or decoded off the wire: under causal delivery it
is a prefix of each issuer's consecutive txids, so it costs O(runs),
where a ``frozenset`` of the log's txids costs O(log length) per
transaction.  The run arithmetic here is shared: the gossip service
keeps each node's delivered keys as runs with the same insert, and
reconciles two nodes by run difference and intersection, and
:func:`missing_positions` derives each record's missing positions.

This is the *single* copy of the sequence: merge engines are views over
it (see :class:`repro.replica.engine.LogUpdateSource`) and never shadow
the records.
"""

from __future__ import annotations

import bisect
from collections.abc import Set as AbcSet
from dataclasses import dataclass
from itertools import chain
from numbers import Real
from typing import (
    AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from ..core.transaction import Transaction
from ..core.update import Update
from .timestamps import Timestamp


def _in_runs(bounds, member) -> bool:
    """Whether the int ``member`` lies in a run of sorted ``bounds``."""
    i = bisect.bisect_left(bounds, member)
    # odd: strictly inside a run, or its hi; even: a lo, or a gap.
    return i % 2 == 1 or (i < len(bounds) and bounds[i] == member)


# -- run arithmetic --------------------------------------------------------
#
# A set of ints as the flat inclusive bounds ``(lo1, hi1, lo2, hi2,
# ...)`` of its maximal runs: ascending, non-empty, not adjacent.  Every
# operation below reads and returns that layout in O(runs), however many
# ints the runs stand for.


def add_to_runs(bounds: List[int], member: int) -> bool:
    """Add the int ``member`` to ``bounds`` in place; False if it is
    there already.  O(log runs) to find, O(runs) to shift."""
    i = bisect.bisect_left(bounds, member)
    if i % 2 == 1 or (i < len(bounds) and bounds[i] == member):
        return False
    # i is even: member falls in the gap between runs i/2 - 1 and i/2.
    left = i > 0 and bounds[i - 1] == member - 1
    right = i < len(bounds) and bounds[i] == member + 1
    if left and right:  # it closes the gap: join the two runs
        del bounds[i - 1:i + 1]
    elif left or right:  # it extends the run it touches
        bounds[i - 1 if left else i] = member
    else:
        bounds[i:i] = (member, member)
    return True


def runs_of(members: Iterable[int]) -> List[int]:
    """Distinct ints -> the bounds of their maximal runs.  Raises
    ``TypeError`` unless every member is an int."""
    ordered = sorted(members)
    if not set(map(type, ordered)) <= {int}:
        raise TypeError("run members must be ints")
    runs: List[int] = []
    start, n = 0, len(ordered)
    while start < n:
        # members are distinct ints, so ordered[i] - i never decreases
        # and is constant exactly along a run: gallop, then bisect, to
        # its end, in steps logarithmic in the run's length.
        base, lo, step = ordered[start] - start, start, 1
        while lo + step < n and ordered[lo + step] - (lo + step) == base:
            lo += step
            step *= 2
        hi = min(lo + step, n) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if ordered[mid] - mid == base:
                lo = mid
            else:
                hi = mid - 1
        runs += (ordered[start], ordered[lo])
        start = lo + 1
    return runs


def runs_union(*parts: Sequence[int]) -> Tuple[int, ...]:
    """The bounds of the union of every ``parts`` bounds."""
    pairs = sorted(
        pair for bounds in parts for pair in zip(bounds[::2], bounds[1::2])
    )
    out: List[int] = []
    for lo, hi in pairs:
        if out and lo <= out[-1] + 1:
            if hi > out[-1]:
                out[-1] = hi
        else:
            out += (lo, hi)
    return tuple(out)


def runs_difference(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    """The bounds of the ints of ``a`` not in ``b``."""
    out: List[int] = []
    j, nb = 0, len(b)
    for i in range(0, len(a), 2):
        lo, hi = a[i], a[i + 1]
        while j < nb and b[j + 1] < lo:  # b's runs wholly below this one
            j += 2
        k = j
        while k < nb and b[k] <= hi:
            if b[k] > lo:
                out += (lo, b[k] - 1)
            lo = max(lo, b[k + 1] + 1)
            k += 2
        if lo <= hi:
            out += (lo, hi)
    return tuple(out)


def runs_intersection(
    a: Sequence[int], b: Sequence[int]
) -> Tuple[int, ...]:
    """The bounds of the ints in both ``a`` and ``b``: O(runs of ``a``
    times log runs of ``b``), plus the runs returned."""
    out: List[int] = []
    j, nb = 0, len(b)
    for i in range(0, len(a), 2):
        lo, hi = a[i], a[i + 1]
        # skip b's runs wholly below this one: the first bound at or
        # above lo is a run's lo (even) or the hi of a run holding lo.
        j = bisect.bisect_left(b, lo, j)
        j -= j % 2
        while j < nb and b[j] <= hi:
            out += (max(lo, b[j]), min(hi, b[j + 1]))
            j += 2
        if j:  # b's last run read may reach into a's next run
            j -= 2
    return tuple(out)


class RunSet(AbcSet):
    """The ints of the inclusive runs ``bounds = (lo1, hi1, lo2, hi2,
    ...)``, as an immutable set.

    The bounds are ascending and the runs are non-empty and not
    adjacent, as :class:`SystemLog` keeps them and
    :func:`repro.runtime.wire.decode` checks; so a set costs O(runs)
    however many ints it holds.
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
        return _in_runs(self.bounds, member)

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
    #: the txids the decision saw: a :class:`RunSet` (initiated here or
    #: decoded), equal to the ``frozenset`` of the same txids.
    seen_txids: AbstractSet[int]
    #: the object (gossip group) this record updates; ``None``: all.
    group: object = None

    def __lt__(self, other: "UpdateRecord") -> bool:
        return self.ts < other.ts


def missing_positions(
    ordered: Sequence[UpdateRecord],
) -> List[Optional[Tuple[int, ...]]]:
    """Per record of ``ordered`` (timestamp order): the positions below
    it whose txids its seen-set lacks, ascending — the visibility of
    both the formal execution and the checker history.  ``None`` where
    the seen-set names the record itself or a later one, which no
    missing set below it can express.  Seen txids that are no record's
    (dangling) are simply not positions.

    A node's log only grows between two of its decisions, so record
    ``i`` is derived from ``p``, the previous representable record of
    the same origin, whatever the txid layout:

    * ``D`` = seen(i) − seen(p), as runs;
    * ``|seen(i)| = |seen(p)| + |D|`` proves seen(p) ⊆ seen(i) by count;
    * every record txid in ``D`` lies below ``i``;
    * then missing(i) = (missing(p) ∪ [p, i)) − positions(D): only
      p's missing set and the records since p are re-tested.

    That is O(runs + |missing(p)| + (i − p)) per record, so O(runs + k)
    amortised plus the number of origins.  A record with no such ``p``
    (its origin's first, the first after a volatile-state crash shrank
    the log, or a seen-set that is not a set of ints) is enumerated
    instead, as if ``p`` were position 0 and seen(p) empty.
    """
    index_of = {r.txid: i for i, r in enumerate(ordered)}
    #: origin → (position, seen bounds, seen count, missing) of its
    #: last representable record.
    last: Dict[int, Tuple[int, Sequence[int], int, Tuple[int, ...]]] = {}
    out: List[Optional[Tuple[int, ...]]] = []
    for i, record in enumerate(ordered):
        seen = record.seen_txids
        if isinstance(seen, RunSet):
            bounds: Optional[Sequence[int]] = seen.bounds
        else:
            try:
                bounds = runs_of(seen)
            except TypeError:
                bounds = None
        base = last.get(record.origin) if bounds is not None else None
        if base is not None:
            p, prev_bounds, prev_count, prev_missing = base
            gain = RunSet(runs_difference(bounds, prev_bounds))
            if len(seen) != prev_count + len(gain):
                base = None  # not a superset: the log shrank
        if base is None:
            p, prev_missing, gain = 0, (), seen
        gained = {index_of[t] for t in gain if t in index_of}
        missing: Optional[Tuple[int, ...]] = None
        if not gained or max(gained) < i:
            missing = tuple(
                m for m in prev_missing if m not in gained
            ) + tuple(j for j in range(p, i) if j not in gained)
        out.append(missing)
        if missing is None or bounds is None:
            last.pop(record.origin, None)
        else:
            last[record.origin] = (i, bounds, len(seen), missing)
    return out


class SystemLog:
    """A list of update records kept sorted by timestamp, plus their
    txids as sorted runs."""

    def __init__(self) -> None:
        self._records: List[UpdateRecord] = []
        #: the txids held, as inclusive run bounds ``[lo1, hi1, ...]``.
        self._bounds: List[int] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[UpdateRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> UpdateRecord:
        return self._records[index]

    def __contains__(self, txid: int) -> bool:
        return _in_runs(self._bounds, txid)

    @property
    def txids(self) -> RunSet:
        """The txids in the log now: O(runs) to take, and unmoved by
        later inserts and truncations."""
        return RunSet(tuple(self._bounds))

    def insert(self, record: UpdateRecord) -> Optional[int]:
        """Insert in timestamp order; returns the position, or None if the
        record was already present (duplicate delivery)."""
        if not add_to_runs(self._bounds, record.txid):
            return None
        position = bisect.bisect_left(self._records, record)
        self._records.insert(position, record)
        return position

    def records(self) -> Tuple[UpdateRecord, ...]:
        return tuple(self._records)

    def truncate(self, length: int) -> Tuple[UpdateRecord, ...]:
        """Drop every record past the first ``length``; returns the lost
        suffix (in timestamp order).

        Models a crash losing volatile state: the prefix up to the last
        stable checkpoint survives, the rest is gone and must be
        re-fetched via anti-entropy.  The runs are rebuilt from the
        survivors; seen-sets taken earlier keep their own.
        """
        if not 0 <= length <= len(self._records):
            raise ValueError(
                f"truncate length {length} outside [0, {len(self._records)}]"
            )
        lost = tuple(self._records[length:])
        del self._records[length:]
        if lost:
            self._bounds = runs_of(record.txid for record in self._records)
        return lost

    def max_timestamp(self) -> Optional[Timestamp]:
        return self._records[-1].ts if self._records else None
