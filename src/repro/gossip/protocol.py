"""The digest-driven push–pull delta protocol (SYN → ACK → DELTA).

One anti-entropy exchange between A and B:

1. ``gossip_syn`` — A sends its digest (O(cells), not O(history));
2. ``gossip_ack`` — B diffs the digest against its own index and replies
   with, for each differing timestamp range, the *keys* it holds there
   (an empty ACK means the peers are in sync — the ``gossip_skip``
   fast path);
3. ``gossip_delta`` — A pushes the records B's key lists show it lacks
   and pulls (via a ``want`` list) the keys B has that A lacks; B
   answers a non-empty ``want`` with one final payload-only DELTA.

Only records on the symmetric difference ever cross the wire.  The
responder side is stateless; the initiator keeps one session per
outstanding SYN so a missing ACK can be timed out and reported to the
:class:`~repro.gossip.scheduler.PeerScheduler` as a failed (partitioned
or crashed) peer.

``gossip_rumor`` is the flood-path companion: a freshly published record
plus the publisher's digest — "rumor mongering" that piggybacks a
summary instead of the full known set.  A receiver whose index disagrees
with the rumored digest schedules a repair pull (rate-limited per peer)
back to the publisher.

The engine has one owner, :class:`~repro.gossip.service.GossipService`,
which is also its store — digests, diffs, items, merges, piggybacked
extras and group scoping all go through it, so one protocol serves full
and partial replication.  The engine is *transport-agnostic*: its
environment is a :class:`repro.ports.Clock` (ack timeouts, repair
cooldowns) and a send callable — the simulator and the real asyncio
runtime host the identical state machine (see :mod:`repro.ports`).

:class:`CausalBuffer` is the receiver-side gate the service puts in
front of delivery; it reads its node's delivered mapping directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..ports import Clock
from ..sim.metrics import WireStats
from .digest import RangeDigest
from .scheduler import PeerScheduler

GOSSIP_SYN = "gossip_syn"
GOSSIP_ACK = "gossip_ack"
GOSSIP_DELTA = "gossip_delta"
GOSSIP_RUMOR = "gossip_rumor"

GOSSIP_KINDS = frozenset(
    {GOSSIP_SYN, GOSSIP_ACK, GOSSIP_DELTA, GOSSIP_RUMOR}
)

#: A record on the wire: (group, key, item).  ``group`` is None for the
#: fully replicated case.
WireItem = Tuple[object, object, object]

SendFn = Callable[[int, int, object], object]
TraceFn = Callable[..., None]

#: minimum clock seconds between rumor-triggered repair pulls of one pair.
REPAIR_COOLDOWN = 2.0


def carried_records(payload: Tuple) -> Tuple[object, ...]:
    """The items a rumor or DELTA payload carries (none for SYN/ACK)."""
    kind = payload[0]
    if kind not in (GOSSIP_RUMOR, GOSSIP_DELTA):
        return ()
    items = payload[1] if kind == GOSSIP_RUMOR else payload[2]
    return tuple(item for _group, _key, item in items)


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


@dataclass
class _Session:
    node: int
    peer: int
    handle: object
    reason: str


class ExchangeEngine:
    """Drives delta sessions for every node of its store, the owning
    :class:`~repro.gossip.service.GossipService`: its ``digest_for``,
    ``diff``, ``keys_in``, ``has``, ``item_for``, ``merge_wire``,
    ``extra_for`` and ``accept_extra`` are all the node data it touches."""

    def __init__(
        self,
        clock: Clock,
        send: SendFn,
        store,
        scheduler: PeerScheduler,
        stats: DeltaStats,
        wire: WireStats,
        ack_timeout: float = 4.0,
        count_records: Optional[Callable[[int], None]] = None,
        trace: Optional[TraceFn] = None,
    ):
        if ack_timeout <= 0:
            raise ValueError("ack timeout must be positive")
        self.clock = clock
        self.send = send
        self.store = store
        self.scheduler = scheduler
        self.stats = stats
        self.wire = wire
        self.ack_timeout = ack_timeout
        self._count_records = count_records or (lambda n: None)
        self._trace = trace or (lambda kind, node, **detail: None)
        self._sessions: Dict[int, _Session] = {}
        self._next_syn = 0
        self._last_repair: Dict[Tuple[int, int], float] = {}

    @property
    def open_sessions(self) -> int:
        return len(self._sessions)

    # -- dispatch ---------------------------------------------------------

    def handle(self, node: int, src: int, payload: Tuple) -> None:
        kind = payload[0]
        if kind == GOSSIP_SYN:
            self._on_syn(node, src, payload)
        elif kind == GOSSIP_ACK:
            self._on_ack(node, src, payload)
        elif kind == GOSSIP_DELTA:
            self._on_delta(node, src, payload)
        elif kind == GOSSIP_RUMOR:
            self._on_rumor(node, src, payload)
        else:
            raise ValueError(f"unknown gossip payload kind {kind!r}")

    # -- initiator side ---------------------------------------------------

    def initiate(self, node: int, peer: int, reason: str = "anti_entropy") -> None:
        """Open a digest exchange from ``node`` to ``peer``."""
        digest = self.store.digest_for(node, peer)
        extra = self.store.extra_for(node, peer)
        syn_id = self._next_syn
        self._next_syn += 1
        handle = self.clock.schedule(
            self.ack_timeout, lambda: self._on_timeout(syn_id)
        )
        self._sessions[syn_id] = _Session(node, peer, handle, reason)
        self.stats.syns += 1
        self.wire.message(
            cells=digest.n_cells, summaries=len(extra) if extra else 0
        )
        self._trace(
            GOSSIP_SYN, node,
            peer=peer, cells=digest.n_cells, reason=reason,
        )
        self.send(node, peer, (GOSSIP_SYN, syn_id, digest, extra))

    def repair_pull(self, node: int, peer: int) -> bool:
        """A rumor-triggered pull, rate-limited per directed pair."""
        now = self.clock.now
        last = self._last_repair.get((node, peer))
        if last is not None and now - last < REPAIR_COOLDOWN:
            return False
        if not self.scheduler.eligible(node, peer, now):
            return False  # peer is backing off: wait for the probe
        self._last_repair[(node, peer)] = now
        self.stats.repair_pulls += 1
        self.initiate(node, peer, reason="repair")
        return True

    def _on_timeout(self, syn_id: int) -> None:
        session = self._sessions.pop(syn_id, None)
        if session is None:
            return
        self.stats.timeouts += 1
        self.scheduler.failure(session.node, session.peer, self.clock.now)

    def _on_ack(self, node: int, src: int, payload: Tuple) -> None:
        _, syn_id, cells, extra = payload
        self.store.accept_extra(node, src, extra)
        session = self._sessions.pop(syn_id, None)
        if session is not None:
            session.handle.cancel()
            self.scheduler.success(node, src, self.clock.now)
        if not cells:
            self.stats.skips += 1
            self._trace("gossip_skip", node, peer=src)
            return
        push: List[WireItem] = []
        want: List[Tuple[object, object]] = []
        for group, lo, their_keys in cells:
            theirs = set(their_keys)
            mine = self.store.keys_in(node, (group, lo))
            for key in sorted(mine - theirs, key=repr):
                push.append((group, key, self.store.item_for(node, group, key)))
            for key in sorted(theirs - mine, key=repr):
                if not self.store.has(node, group, key):
                    want.append((group, key))
        if not push and not want:
            # cells differed only through keys already known elsewhere.
            self.stats.skips += 1
            self._trace("gossip_skip", node, peer=src)
            return
        self._send_delta(node, src, syn_id, tuple(push), tuple(want))

    # -- responder side ---------------------------------------------------

    def _on_syn(self, node: int, src: int, payload: Tuple) -> None:
        _, syn_id, digest, extra = payload
        self.store.accept_extra(node, src, extra)
        cells = self.store.diff(node, digest, src)
        ack_cells = tuple(
            (group, lo, tuple(sorted(
                self.store.keys_in(node, (group, lo)), key=repr
            )))
            for group, lo in cells
        )
        reply_extra = self.store.extra_for(node, src)
        self.stats.acks += 1
        self.wire.message(
            keys=sum(len(keys) for _, _, keys in ack_cells),
            cells=len(ack_cells),
            summaries=len(reply_extra) if reply_extra else 0,
        )
        self.send(node, src, (GOSSIP_ACK, syn_id, ack_cells, reply_extra))

    def _on_delta(self, node: int, src: int, payload: Tuple) -> None:
        _, syn_id, items, want = payload
        if items:
            self.store.merge_wire(node, items)
        if want:
            reply = tuple(
                (group, key, self.store.item_for(node, group, key))
                for group, key in want
                if self.store.has(node, group, key)
            )
            self._send_delta(node, src, syn_id, reply, ())

    def _send_delta(
        self,
        node: int,
        dst: int,
        syn_id: int,
        items: Tuple[WireItem, ...],
        want: Tuple,
    ) -> None:
        self.stats.deltas += 1
        self.stats.delta_records += len(items)
        self._count_records(len(items))
        self.wire.message(records=len(items), keys=len(want))
        self._trace(
            GOSSIP_DELTA, node,
            peer=dst, pushed=len(items), wanted=len(want),
        )
        self.send(node, dst, (GOSSIP_DELTA, syn_id, items, want))

    # -- rumor mongering ---------------------------------------------------

    def send_rumor(
        self,
        node: int,
        peer: int,
        items: Tuple[WireItem, ...],
        digest: Optional[RangeDigest],
        extra: object = None,
    ) -> None:
        """Flood freshly published records with a piggybacked digest."""
        self._count_records(len(items))
        self.wire.message(
            records=len(items),
            cells=digest.n_cells if digest is not None else 0,
            summaries=len(extra) if extra else 0,
        )
        self.send(node, peer, (GOSSIP_RUMOR, items, digest, extra))

    def _on_rumor(self, node: int, src: int, payload: Tuple) -> None:
        _, items, digest, extra = payload
        self.store.accept_extra(node, src, extra)
        self.store.merge_wire(node, items)
        if digest is None:
            return
        if self.store.diff(node, digest, src):
            self.repair_pull(node, src)


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
    one ``deliver`` fills and a crash scrubs), never a copy: readiness
    is one set inclusion against its keys.
    """

    def __init__(
        self,
        delivered: Mapping[object, object],
        deliver: Callable[[object, object], None],
    ):
        self._delivered = delivered
        self._deliver = deliver
        #: key -> (item, the keys it must be delivered after).
        self._pending: Dict[object, Tuple[object, frozenset]] = {}
        self.buffered_total = 0

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
        self._pending[key] = (item, frozenset(deps))
        self._flush()
        if key in self._pending:
            self.buffered_total += 1

    def clear(self) -> int:
        """Drop everything buffered (crash losing volatile state);
        returns how many pending items were discarded."""
        n = len(self._pending)
        self._pending.clear()
        return n

    def _flush(self) -> None:
        delivered = self._delivered.keys()
        progress = True
        while progress:
            progress = False
            for key, (item, deps) in list(self._pending.items()):
                if key in self._pending and deps <= delivered:
                    del self._pending[key]
                    self._deliver(key, item)
                    progress = True
