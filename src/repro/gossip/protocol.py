"""The gossip protocol's vocabulary and its receiver-side causal gate.

One anti-entropy exchange between A and B (run by
:class:`~repro.gossip.service.GossipService`) sends sets of keys as
:class:`~repro.replica.log.RunSet` values: under causal delivery a
node's delivered set is a few runs of txids at any log length, and the
difference of two run-sets names exactly the keys one side lacks.

1. ``gossip_syn`` ``(syn_id, held, extra)`` — A sends the keys it holds
   (delivered or buffered) in the groups B shares;
2. ``gossip_ack`` ``(syn_id, held, extra)`` — B replies with its own,
   statelessly, in O(runs);
3. ``gossip_delta`` ``(syn_id, items, want)`` — A pushes the records of
   its runs minus B's and wants B's runs minus its own and its buffer,
   as a ``RunSet`` (no DELTA at all when both are empty — the
   ``gossip_skip`` fast path); B answers a non-empty ``want`` with one
   final payload-only DELTA of the wanted records it holds (and nothing
   if it holds none), found by run intersection, so its work is bounded
   by what it holds.

``gossip_rumor`` is the flood-path companion: a freshly published record
and nothing else, sent once to every holder of its group — the paper's
broadcast, which relies on transitivity rather than on a summary of the
sender's set.  A receiver whose causal gate buffers the record sends the
publisher one ``gossip_delta`` whose ``want`` names the record's missing
dependencies (at most :data:`MAX_GAP_WANT` of them, as a ``RunSet``),
and the publisher answers it as it answers any want: two messages,
rate-limited per peer.  A gap that no later rumor exposes (a lost rumor with no
successor, a partition) waits for the periodic anti-entropy exchange,
which alone heals it.

Records travel as ``(key, item)`` pairs; a receiver reads an item's
group from the item itself.  :class:`CausalBuffer` is the gate the
service puts in front of delivery; it reads its node's delivered mapping
directly, walks seen-sets as runs, and remembers what each item awaits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, filterfalse, islice
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Tuple

GOSSIP_SYN = "gossip_syn"
GOSSIP_ACK = "gossip_ack"
GOSSIP_DELTA = "gossip_delta"
GOSSIP_RUMOR = "gossip_rumor"

GOSSIP_KINDS = frozenset(
    {GOSSIP_SYN, GOSSIP_ACK, GOSSIP_DELTA, GOSSIP_RUMOR}
)

#: A record on the wire: (key, item).
WireItem = Tuple[object, object]

#: minimum clock seconds between gap wants of one directed pair, and
#: before a node wants one key again.
REPAIR_COOLDOWN = 2.0

#: most dependencies one gap want reads, and so names: a record's deps
#: may stand for a million keys in a few bounds, so the walk stops here
#: and anti-entropy heals whatever lies beyond.
MAX_GAP_WANT = 128

#: a pending item's blocker while no dep is known missing.
_NONE_MISSING = object()


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
    #: gap wants: DELTAs asking a rumor's sender for the missing
    #: dependencies of the record it brought.
    repair_pulls: int = 0
    #: records shipped in DELTA payloads (push + pull directions).
    delta_records: int = 0


class CausalBuffer:
    """Defers delivery of items whose declared dependencies are missing.

    The full-set piggyback of Section 3.3 made prefix subsequences
    transitive by brute force: every message carried everything its
    sender knew.  With rumors carrying a single record, the same
    guarantee is restored at the *receiver*: an item is buffered until
    every key it depends on (``seen_txids`` for update records) has been
    delivered, and the service wants the keys :meth:`missing` names
    from the rumor's sender.  Each node's delivered set is therefore
    causally closed at all times, which is exactly the transitivity
    invariant the paper's broadcast provides.

    ``delivered`` is the owning node's *live* key -> item mapping (the
    one ``deliver`` fills and a crash scrubs), never a copy.  Deps come
    in two layouts:

    * runs of consecutive ints — they carry ``bounds``, as every
      seen-set (a :class:`~repro.replica.log.RunSet`) does — are checked
      against one cursor per run start: the first int past it not known
      delivered here.  Under causal delivery the seen-sets from one
      issuer start their runs at a few shared txids, so each run is
      walked once per buffer, not once per item.  A cursor stays true
      only while ``delivered`` grows: whoever removes keys from it must
      call :meth:`clear` (``GossipService.forget`` does);
    * any other iterable is a set inclusion against the mapping's keys.

    Each pending item remembers its *blocker*, the dep a check last
    found missing, and a rescan skips it with one lookup until that key
    is delivered; run deps also drop the runs found delivered.  The
    verdicts, hence the release order, are a full check's.
    """

    def __init__(
        self,
        delivered: Mapping[object, object],
        deliver: Callable[[object, object], None],
    ):
        self._delivered = delivered
        self._deliver = deliver
        #: key -> (item, deps, blocker): deps, the bounds of the runs not
        #: known delivered or a frozenset; blocker, the dep last missing.
        self._pending: Dict[object, Tuple[object, object, object]] = {}
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

    def __iter__(self) -> Iterator[object]:
        """The buffered keys, in the order they were buffered."""
        return iter(self._pending)

    def peek(self, key: object) -> object:
        """The buffered (not yet delivered) item for ``key``."""
        return self._pending[key][0]

    def offer(self, key: object, item: object, deps: Iterable) -> None:
        """Deliver now if every key in ``deps`` is delivered, otherwise
        buffer; then flush chains."""
        if key in self._delivered or key in self._pending:
            return
        deps = getattr(deps, "bounds", None) or frozenset(deps)
        self._pending[key] = (item, deps, _NONE_MISSING)
        self._flush(key)
        if key in self._pending:
            self.buffered_total += 1

    def missing(self, keys: Iterable[object], limit: int) -> List[object]:
        """The deps of the buffered items ``keys`` that are neither
        delivered nor buffered here — what their gap is made of — among
        the first ``limit`` deps read.  Runs are read from their cursors
        up, so the delivered prefix of each run is skipped unread."""
        delivered, pending, runs = self._delivered, self._pending, self._runs

        def deps_of(key):
            deps = pending[key][1]
            if type(deps) is not tuple:
                return deps
            bounds = iter(deps)
            return chain.from_iterable(
                range(runs.get(lo, lo), hi + 1)
                for lo, hi in zip(bounds, bounds)
            )

        return [
            d for d in islice(chain.from_iterable(map(deps_of, keys)), limit)
            if d not in delivered and d not in pending
        ]

    def clear(self) -> int:
        """Drop everything buffered and every cursor (crash losing
        volatile state); returns how many pending items were
        discarded."""
        n = len(self._pending)
        self._pending.clear()
        self._runs.clear()
        return n

    def _flush(self, offered: object) -> None:
        delivered, pending = self._delivered, self._pending
        progress = True
        while progress:
            progress = False
            for key, (item, deps, blocker) in list(pending.items()):
                if key not in pending or (
                    blocker is not _NONE_MISSING and blocker not in delivered
                ):
                    continue
                if type(deps) is tuple:
                    deps = self._runs_left(deps)
                    blocker = self._runs[deps[-2]] if deps else _NONE_MISSING
                else:
                    missing = filterfalse(delivered.__contains__, deps)
                    blocker = next(missing, _NONE_MISSING)
                if blocker is not _NONE_MISSING:
                    pending[key] = (item, deps, blocker)
                    continue
                del pending[key]
                self._deliver(key, item)
                if key != offered:
                    self.deferred_total += 1
                progress = True

    def _runs_left(self, bounds: Tuple[int, ...]) -> Tuple[int, ...]:
        """``bounds`` up to its last run not all delivered (``()`` if
        none), advancing each run start's cursor as far as it reaches.
        The newest runs go first: they are the likeliest to miss."""
        delivered, runs = self._delivered, self._runs
        backwards = reversed(bounds)
        for hi, lo in zip(backwards, backwards):
            upto = runs.get(lo, lo)
            if upto > hi:
                continue
            while upto <= hi and upto in delivered:
                upto += 1
            runs[lo] = upto
            if upto <= hi:
                return bounds[:bounds.index(lo) + 2]
        return ()
