"""The gossip protocol's vocabulary and its receiver-side causal gate.

One anti-entropy exchange between A and B (run by
:class:`~repro.gossip.service.GossipService`):

1. ``gossip_syn`` — A sends its digest (O(cells), not O(history));
2. ``gossip_ack`` — B diffs the digest against its own index and replies
   with, for each differing timestamp range, the *keys* it holds there
   (an empty ACK means the peers are in sync — the ``gossip_skip``
   fast path);
3. ``gossip_delta`` — A pushes the records B's key lists show it lacks
   and pulls (via a ``want`` list of keys) the ones B has that A lacks;
   B answers a non-empty ``want`` with one final payload-only DELTA.

``gossip_rumor`` is the flood-path companion: a freshly published record
plus the publisher's digest — "rumor mongering" that piggybacks a
summary instead of the full known set.  A receiver whose index disagrees
with the rumored digest schedules a repair pull (rate-limited per peer)
back to the publisher.

Records travel as ``(key, item)`` pairs; a receiver reads an item's
group from the item itself.  :class:`CausalBuffer` is the gate the
service puts in front of delivery; it reads its node's delivered mapping
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

GOSSIP_SYN = "gossip_syn"
GOSSIP_ACK = "gossip_ack"
GOSSIP_DELTA = "gossip_delta"
GOSSIP_RUMOR = "gossip_rumor"

GOSSIP_KINDS = frozenset(
    {GOSSIP_SYN, GOSSIP_ACK, GOSSIP_DELTA, GOSSIP_RUMOR}
)

#: A record on the wire: (key, item).
WireItem = Tuple[object, object]

#: minimum clock seconds between rumor-triggered repair pulls of one pair.
REPAIR_COOLDOWN = 2.0


@dataclass
class DeltaStats:
    """Protocol-level counters (message counts live in ``WireStats``)."""

    syns: int = 0
    acks: int = 0
    deltas: int = 0
    #: exchanges that found the peers already in sync.
    skips: int = 0
    #: SYNs whose ACK never arrived before the timeout.
    timeouts: int = 0
    #: digest-mismatch pulls triggered by rumor floods.
    repair_pulls: int = 0
    #: records shipped in DELTA payloads (push + pull directions).
    delta_records: int = 0


class CausalBuffer:
    """Defers delivery of items whose declared dependencies are missing.

    The full-set piggyback of Section 3.3 made prefix subsequences
    transitive by brute force: every message carried everything its
    sender knew.  With digest rumors carrying a single record, the same
    guarantee is restored at the *receiver*: an item is buffered until
    every key it depends on (``seen_txids`` for update records) has been
    delivered, and the digest repair pull fetches the gap.  Each node's
    delivered set is therefore causally closed at all times, which is
    exactly the transitivity invariant the paper's broadcast provides.

    ``delivered`` is the owning node's *live* key -> item mapping (the
    one ``deliver`` fills and a crash scrubs), never a copy.  Two
    layouts of deps are read without touching their members one by
    one:

    * deps that name a prefix of an append-only sequence — they carry
      ``seq`` and ``n``, as a :class:`~repro.replica.log.SeenView` does —
      are checked against one cursor per sequence: how far ``seq`` is
      known delivered here;
    * deps that are runs of consecutive ints — they carry ``bounds``, as
      a decoded :class:`~repro.replica.log.RunSet` does — are checked
      against one cursor per run start: the first int past it not known
      delivered here.  Under causal delivery every seen-set from one
      (node, incarnation) starts its run at the same txid.

    Readiness advances the cursors, so each sequence and each run is
    walked once per buffer, not once per item.  Any other iterable is
    one set inclusion against the mapping's keys.  A cursor stays true
    only while ``delivered`` grows: whoever removes keys from it must
    call :meth:`clear` (``GossipService.forget`` does).
    """

    def __init__(
        self,
        delivered: Mapping[object, object],
        deliver: Callable[[object, object], None],
    ):
        self._delivered = delivered
        self._deliver = deliver
        #: key -> (item, deps, None) for a set of deps, (item, n, cursor)
        #: for the prefix ``seq[:n]`` of a sequence, or (item, bounds,
        #: the run cursors) for runs.
        self._pending: Dict[object, Tuple[object, object, object]] = {}
        #: id(seq) -> [seq, length of its prefix known delivered].
        self._cursors: Dict[int, List] = {}
        #: run start -> the first int from it not known delivered.
        self._runs: Dict[int, int] = {}
        #: items that did not deliver at once and were buffered.
        self.buffered_total = 0
        #: buffered items delivered later (never those :meth:`clear`
        #: dropped).
        self.deferred_total = 0

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, key: object) -> bool:
        return key in self._pending

    def peek(self, key: object) -> object:
        """The buffered (not yet delivered) item for ``key``."""
        return self._pending[key][0]

    def offer(self, key: object, item: object, deps: Iterable) -> None:
        """Deliver now if every key in ``deps`` is delivered, otherwise
        buffer; then flush chains."""
        if key in self._delivered or key in self._pending:
            return
        seq = getattr(deps, "seq", None)
        if seq is None:
            bounds = getattr(deps, "bounds", None)
            if bounds is None:
                self._pending[key] = (item, frozenset(deps), None)
            else:
                self._pending[key] = (item, bounds, self._runs)
        else:
            cursor = self._cursors.get(id(seq))
            if cursor is None:
                cursor = self._cursors[id(seq)] = [seq, 0]
            self._pending[key] = (item, deps.n, cursor)
        self._flush(key)
        if key in self._pending:
            self.buffered_total += 1

    def clear(self) -> int:
        """Drop everything buffered and every cursor (crash losing
        volatile state); returns how many pending items were
        discarded."""
        n = len(self._pending)
        self._pending.clear()
        self._cursors.clear()
        self._runs.clear()
        return n

    def _flush(self, offered: object) -> None:
        delivered = self._delivered
        keys = delivered.keys()
        progress = True
        while progress:
            progress = False
            for key, (item, deps, cursor) in list(self._pending.items()):
                if key not in self._pending:
                    continue
                if cursor is None:
                    if not deps <= keys:
                        continue
                elif cursor is self._runs:
                    if not self._runs_delivered(deps):
                        continue
                else:
                    seq, done = cursor
                    while done < deps and seq[done] in delivered:
                        done += 1
                    cursor[1] = done
                    if done < deps:
                        continue
                del self._pending[key]
                self._deliver(key, item)
                if key != offered:
                    self.deferred_total += 1
                progress = True

    def _runs_delivered(self, bounds: Tuple[int, ...]) -> bool:
        """Whether every run ``lo..hi`` of ``bounds`` is delivered,
        advancing each run start's cursor as far as it now reaches."""
        delivered, runs = self._delivered, self._runs
        for i in range(0, len(bounds), 2):
            lo, hi = bounds[i], bounds[i + 1]
            upto = runs.get(lo, lo)
            while upto <= hi and upto in delivered:
                upto += 1
            runs[lo] = upto
            if upto <= hi:
                return False
        return True
