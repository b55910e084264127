"""Timestamp-range digests over a node's known update set.

A digest is a compact, comparable summary of everything a node has
delivered: the timestamp axis is cut into fixed-width ranges ("cells"),
and each non-empty cell carries a count and an order-independent
fingerprint (XOR of per-key hashes).  Two nodes whose digests agree hold
the same set (up to 64-bit fingerprint collisions, which we accept for a
simulation); where cells disagree, the anti-entropy delta protocol
(:mod:`repro.gossip.protocol`) reconciles exactly those ranges instead
of shipping the entire history.

The index is maintained *incrementally*: every delivered key is folded
into its cell in O(1), and a rendered digest is cached until the next
insertion.  A **tail summary** (the maximum timestamp seen) rides along;
insertions that land strictly below the tail — the same out-of-order
arrivals that trigger undo/redo in the replica layer — are counted as
``out_of_order_adds`` and invalidate the cached rendering, mirroring how
the merge view invalidates snapshots past the insertion point.

Cells are optionally tagged with a *group* (the object key under partial
replication) so a digest can be restricted to the objects two peers
share.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

#: A cell identifier: (group, range start).  ``group`` is None for the
#: fully replicated case and the object key under partial replication.
Cell = Tuple[object, int]

#: A timestamp as the digest sees it: (counter, tiebreak).
TsPair = Tuple[int, int]

#: timestamp-counter width of one digest cell.
BUCKET_WIDTH = 32


def fingerprint(key: object) -> int:
    """A stable 64-bit hash of a key (independent of PYTHONHASHSEED)."""
    data = repr(key).encode("utf-8", "backslashreplace")
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


def _cell_sort_key(cell: Tuple) -> Tuple[str, int]:
    # groups may mix None and strings; sort on repr for determinism.
    return (repr(cell[0]), cell[1])


@dataclass(frozen=True)
class RangeDigest:
    """The wire form of a digest: sorted non-empty cells plus the tail.

    ``cells`` entries are ``(group, lo, count, fingerprint)`` where
    ``lo`` is the start of a ``width``-wide timestamp-counter range.
    """

    width: int
    cells: Tuple[Tuple[object, int, int, int], ...]
    tail: Optional[TsPair]

    @property
    def n_cells(self) -> int:
        return len(self.cells)


class DigestIndex:
    """Incrementally maintained digest + per-cell membership for one node.

    Membership (which keys live in which cell) never crosses the wire —
    it is what lets the delta protocol answer "which of my keys fall in
    this differing range" without scanning the whole known set.
    """

    def __init__(self, width: int = BUCKET_WIDTH):
        if width < 1:
            raise ValueError("digest cell width must be >= 1")
        self.width = width
        self._cells: Dict[Cell, List[int]] = {}  # cell -> [count, fp]
        self._members: Dict[Cell, Set[object]] = {}
        #: the rendered ``(group, lo, count, fp)`` rows in wire order,
        #: updated in place as cells change; None once a cell is created
        #: or deleted, re-sorted on the next rendering.
        self._rows: Optional[List[Tuple[object, int, int, int]]] = None
        #: cell -> its position in ``_rows``.
        self._row_of: Dict[Cell, int] = {}
        self._tail: Optional[TsPair] = None
        self._cached: Optional[RangeDigest] = None
        self.adds = 0
        #: insertions below the tail summary: the undo/redo arrivals.
        self.out_of_order_adds = 0
        #: full digest renderings (cache misses).
        self.renders = 0

    def cell_of(self, counter: int, group: object = None) -> Cell:
        return (group, (counter // self.width) * self.width)

    def add(self, key: object, ts: TsPair, group: object = None) -> Cell:
        """Fold a newly delivered key into its cell; returns the cell."""
        cell = self.cell_of(ts[0], group)
        slot = self._cells.get(cell)
        if slot is None:
            slot = self._cells[cell] = [0, 0]
            self._rows = None
        slot[0] += 1
        slot[1] ^= fingerprint(key)
        if self._rows is not None:
            self._rows[self._row_of[cell]] = (*cell, *slot)
        self._members.setdefault(cell, set()).add(key)
        self.adds += 1
        if self._tail is None or ts >= self._tail:
            self._tail = ts
        else:
            self.out_of_order_adds += 1
        self._cached = None  # any insertion invalidates the rendering
        return cell

    def discard(self, key: object, ts: TsPair, group: object = None) -> None:
        """Remove a previously added key from its cell (crash losing
        volatile state; see :meth:`GossipService.forget`).

        XOR-folding makes removal exact: re-XORing the key's fingerprint
        cancels it.  The tail summary is *not* recomputed — it may stay
        past the surviving maximum, which only costs accuracy on the
        ``out_of_order_adds`` counter, never correctness (cell compare
        drives reconciliation, not the tail).
        """
        cell = self.cell_of(ts[0], group)
        members = self._members.get(cell)
        if members is None or key not in members:
            raise KeyError(f"key {key!r} not present in digest cell {cell}")
        members.remove(key)
        slot = self._cells[cell]
        slot[0] -= 1
        slot[1] ^= fingerprint(key)
        if slot[0] == 0:
            del self._cells[cell]
            del self._members[cell]
            self._rows = None
        elif self._rows is not None:
            self._rows[self._row_of[cell]] = (*cell, *slot)
        self._cached = None

    @property
    def tail(self) -> Optional[TsPair]:
        return self._tail

    def keys_in(self, cell: Cell) -> FrozenSet[object]:
        return frozenset(self._members.get(cell, ()))

    def digest(
        self, groups: Optional[FrozenSet[object]] = None
    ) -> RangeDigest:
        """The current digest, optionally restricted to ``groups``.

        The unrestricted digest is cached between insertions; restricted
        renderings are cheap (one pass over non-empty cells) and not
        cached.
        """
        if groups is None:
            if self._cached is None:
                self._cached = self._render(None)
                self.renders += 1
            return self._cached
        return self._render(groups)

    def _render(self, groups: Optional[FrozenSet[object]]) -> RangeDigest:
        if self._rows is None:
            order = sorted(self._cells, key=_cell_sort_key)
            self._row_of = {cell: i for i, cell in enumerate(order)}
            self._rows = [(*cell, *self._cells[cell]) for cell in order]
        if groups is None:
            cells = tuple(self._rows)
        else:
            cells = tuple(row for row in self._rows if row[0] in groups)
        return RangeDigest(self.width, cells, self._tail)


def differing_cells(
    local: DigestIndex,
    remote: RangeDigest,
    groups: Optional[FrozenSet[object]] = None,
) -> Tuple[Cell, ...]:
    """Cells on which ``local`` and ``remote`` disagree.

    A cell differs when it is non-empty on exactly one side or when its
    (count, fingerprint) pair differs; the result is restricted to
    ``groups`` when given (both the remote's advertised cells and the
    local ones), and sorted for deterministic wire payloads.  A
    ``remote`` that is not a digest (a malformed peer payload) raises
    ``TypeError``.

    Peers in sync render identical cell tuples, which is one compare;
    otherwise every ``(group, lo, count, fp)`` entry on exactly one side
    names a differing cell.
    """
    if not isinstance(remote, RangeDigest):
        raise TypeError(
            f"expected a RangeDigest, got {type(remote).__name__}"
        )
    mine = local.digest(groups).cells
    if mine == remote.cells:
        return ()
    out = {
        (g, lo)
        for g, lo, _count, _fp in set(mine).symmetric_difference(remote.cells)
        if groups is None or g in groups
    }
    return tuple(sorted(out, key=_cell_sort_key))
