"""The gossip dissemination service, for full and partial replication.

:class:`GossipService` is the reliable broadcast the paper sketches
([GLBKSS], Section 3.3): items are opaque, uniqueness comes from
caller-supplied keys.  It keeps the paper-facing contract — every item
is delivered to every attached node holding its group exactly once,
flooding gives low latency on the healthy part of the network,
anti-entropy guarantees eventual delivery — but ships only what a peer
lacks.  Rumor-mongering floods carry the new record and nothing else,
anti-entropy runs the SYN/ACK/DELTA push–pull protocol over the peers'
delivered sets, each sent as a :class:`~repro.replica.log.RunSet` of
its keys, so only missing records cross the wire, and peers are chosen
by the partition-aware :class:`~repro.gossip.scheduler.PeerScheduler`.
The paper's literal protocol, where every message carries the sender's
whole known set, is a measurement baseline only
(``benchmarks/fullset.py``).

The piggyback transitivity guarantee holds *causally* instead of by
brute force: when a ``depends_on`` hook is installed (the
shard cluster supplies ``record.seen_txids``), received items are held in
a :class:`~repro.gossip.protocol.CausalBuffer` until their dependencies
have been delivered, so every node's delivered set remains causally
closed — the invariant behind the paper's transitive prefix
subsequences.  Dependencies may be any iterable of keys; a seen-set is a
:class:`~repro.replica.log.RunSet`, which the gate checks with one
cursor per run start instead of re-reading the whole set.  When a
rumor's record is buffered, the receiver sends the rumor's sender one
DELTA whose ``want`` names exactly the dependencies it misses (the gap
want, rate-limited per pair); a gap no later rumor exposes is healed by
periodic anti-entropy alone.  With ``piggyback=False`` the gating (and
hence the gap want) is disabled, faithfully reproducing the
intransitivity the paper warns about.

**Keys are ints** (txids, in every caller), so a node's delivered keys
are kept as run bounds beside its known map, updated by the same insert
the log uses (:func:`~repro.replica.log.add_to_runs`).  Under causal
delivery that set is a few runs at any log length, and every set the
exchange sends — a SYN's, an ACK's, a want — is one
:class:`~repro.replica.log.RunSet`; what to push and what to want are
run differences, exact where a hashed summary would accept collisions.

**Groups** let one service serve both topologies (Section 6).  An
item's group is its ``group`` attribute (``None`` if absent or unset,
as on a full-replication record); a node attaches with the groups
it holds, ``None`` (the default, and every remote ``membership`` peer)
meaning all.  Floods reach only the group's holders and anti-entropy
only peers sharing a group; delivered runs are kept per group, and the
sets a node sends are restricted to the shared groups only when the
peer lacks some of the sender's.

The receive path reads top to bottom — :meth:`GossipService.receive`
picks the handler for the payload's kind, every record it carries goes
through ``_merge`` → gate → ``_deliver_one`` → the node's batch
callback — and the run-set exchange (``_initiate`` → ``_on_syn`` →
``_on_ack`` → ``_on_delta``, see :mod:`repro.gossip.protocol`) reads
the same per-node known sets, delivered runs and causal buffers.  The
owner answers the rest through hooks: ``depends_on(key, item)`` (the
keys to deliver after; enables gating), ``on_event(kind, node,
**detail)`` (tracing), ``active_filter(node)`` (False for crashed
nodes) and ``extras(node, peer)`` / ``on_extras(node, src, extra)`` (a
payload piggybacked on SYN, ACK and rumor — partial replication's
summaries; with them installed anti-entropy picks every peer).  The
owner also holds the node's transport slot and forwards gossip payloads
to :meth:`GossipService.receive`.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

from ..ports import Clock, Rng, Transport
from ..replica.log import (
    RunSet, add_to_runs, runs_difference, runs_intersection, runs_of,
    runs_union,
)
from ..sim.metrics import WireStats
from .protocol import (
    GOSSIP_ACK,
    GOSSIP_DELTA,
    GOSSIP_RUMOR,
    GOSSIP_SYN,
    MAX_GAP_WANT,
    REPAIR_COOLDOWN,
    CausalBuffer,
    DeltaStats,
    WireItem,
)
from .scheduler import PeerScheduler

#: whole-set exchanges :meth:`GossipService.settle` allows before giving up.
QUIESCE_ROUNDS = 10

#: batch of (key, item) pairs released by one merge, in delivery order.
BatchDeliverFn = Callable[[Tuple[Tuple[object, object], ...]], None]

#: hook: (key, item) -> keys this item must be delivered after.
DependsFn = Callable[[object, object], Iterable]

#: the want of a DELTA that asks for nothing.
NO_WANT = RunSet(())


def group_of(item: object) -> object:
    return getattr(item, "group", None)


def _check_run_set(value: object, what: str) -> None:
    """Raise ``TypeError`` unless ``value`` is a run-set: a peer's
    payload with anything else there (a retired digest, a key tuple) is
    malformed."""
    if not isinstance(value, RunSet):
        raise TypeError(
            f"{what} must be a RunSet, not {type(value).__name__}"
        )


@dataclass
class GossipConfig:
    """Dissemination knobs."""

    flood: bool = True
    piggyback: bool = True
    anti_entropy_interval: float = 5.0
    fanout: int = 1
    #: how long an initiator waits for an ACK before declaring the peer
    #: unreachable and backing off.
    ack_timeout: float = 4.0
    #: cap on exponential backoff, as a multiple of the anti-entropy
    #: interval; backoff expiry doubles as the recovery probe.
    max_backoff_factor: float = 8.0


@dataclass
class GossipStats:
    published: int = 0
    flood_messages: int = 0
    anti_entropy_messages: int = 0
    #: record copies shipped, across rumors and deltas — the item-copy
    #: axis the E9b/E10d bandwidth benchmarks compare.
    items_carried: int = 0
    deliveries: int = 0
    delta: DeltaStats = field(default_factory=DeltaStats)
    wire: WireStats = field(default_factory=WireStats)
    #: publish-to-deliver delay of every remote delivery of a published
    #: item (one sample per receiving node).
    delivery_delays: List[float] = field(default_factory=list)
    #: deliveries that had to wait in a causal buffer first.
    causally_deferred: int = 0


class GossipService:
    """The dissemination service shared by all nodes of a cluster."""

    def __init__(
        self,
        clock: Clock,
        transport: Transport,
        config: Optional[GossipConfig] = None,
        rng: Optional[Rng] = None,
    ):
        self.clock = clock
        self.transport = transport
        self.config = config or GossipConfig()
        if self.config.ack_timeout <= 0:
            raise ValueError("ack timeout must be positive")
        # seeded-instance default: peer choice must never touch the
        # module-global random (reproducibility satellite).
        self.rng = rng if rng is not None else random.Random(0)
        self.stats = GossipStats()
        #: the gossip universe: the node ids floods and anti-entropy
        #: target.  ``None`` (the default) means "every locally attached
        #: node" — the simulator topology, where one service hosts the
        #: whole cluster.  A per-process runtime host attaches only its
        #: own node and sets this to the full cluster membership.
        self.membership: Optional[Tuple[int, ...]] = None
        self._known: Dict[int, Dict[object, object]] = {}
        #: per attached node: the groups it holds (``None``: every group).
        self._holdings: Dict[int, Optional[FrozenSet[object]]] = {}
        #: per-node batch callbacks: every ``_merge`` hands all the items
        #: it released for a node to the callback in one call, so the
        #: replica pays a single undo/redo cycle per gossip DELTA.
        self._deliver_batch: Dict[int, BatchDeliverFn] = {}
        #: the open delivery batch per node while a ``_merge`` runs.
        self._batch_sink: Dict[int, List[Tuple[object, object]]] = {}
        #: per node: group -> its delivered keys as run bounds.
        self._runs: Dict[int, Dict[object, List[int]]] = {}
        self._buffers: Dict[int, CausalBuffer] = {}
        #: publish time per key, kept only while this service hosts more
        #: than one node: a process hosting one node never delivers its
        #: own keys remotely, so no delay could be read from it.
        self._published_at: Dict[object, float] = {}
        self._anti_entropy_started = False
        self._anti_entropy_stopped = False
        #: optional predicate: nodes for which it returns False neither
        #: gossip nor get picked as gossip targets (crashed nodes).
        self.active_filter: Optional[Callable[[int], bool]] = None
        #: optional hook installed by the owning cluster.
        self.depends_on: Optional[DependsFn] = None
        #: optional trace sink: (kind, node, **detail).
        self.on_event: Optional[Callable[..., None]] = None
        #: optional piggyback: (node, peer) -> extras for a SYN, ACK or
        #: rumor, and (node, src, extras-or-None) on receiving one.
        self.extras: Optional[Callable[[int, int], object]] = None
        self.on_extras: Optional[Callable[[int, int, object], None]] = None
        self.scheduler = PeerScheduler(
            self.rng,
            base_backoff=self.config.anti_entropy_interval,
            max_backoff_factor=self.config.max_backoff_factor,
        )
        #: open exchanges: SYN id -> (node, peer, timeout handle).
        self._sessions: Dict[int, Tuple[int, int, object]] = {}
        #: per node: peer -> (SYN id, set) of the last SYN sent to it,
        #: kept past the ACK timeout (a late ACK is still answered).
        self._last_syn: Dict[int, Dict[int, Tuple[int, RunSet]]] = {}
        self._next_syn = 0
        #: per node: peer -> clock time of the last gap want sent to it,
        #: and wanted key -> clock time it was wanted (only keys wanted
        #: within the cooldown are kept).
        self._last_want: Dict[int, Dict[int, float]] = {}
        self._wanted: Dict[int, Dict[object, float]] = {}
        self._handlers = {
            GOSSIP_SYN: self._on_syn,
            GOSSIP_ACK: self._on_ack,
            GOSSIP_DELTA: self._on_delta,
            GOSSIP_RUMOR: self._on_rumor,
        }

    # -- plumbing ---------------------------------------------------------

    def _trace(self, kind: str, node: int, **detail) -> None:
        if self.on_event is not None:
            self.on_event(kind, node, **detail)

    def _extras_for(self, node_id: int, peer: int) -> object:
        return None if self.extras is None else self.extras(node_id, peer)

    def _receive_extras(self, node_id: int, src: int, extra: object) -> None:
        if self.on_extras is not None:
            self.on_extras(node_id, src, extra)

    def _is_active(self, node_id: int) -> bool:
        return self.active_filter is None or self.active_filter(node_id)

    def _gating(self) -> bool:
        """Causal delivery gating stands in for the full-set piggyback's
        transitivity, so ``piggyback=False`` must disable it too."""
        return self.config.piggyback and self.depends_on is not None

    def _holds(self, node_id: int, group: object) -> bool:
        held = self._holdings.get(node_id)
        return held is None or group in held

    def _shares(self, node_id: int, peer: int) -> bool:
        mine = self._holdings.get(node_id)
        theirs = self._holdings.get(peer)
        return mine is None or theirs is None or not mine.isdisjoint(theirs)

    def _scope(self, node_id: int, peer: int) -> Optional[FrozenSet[object]]:
        """The groups a set or push from ``node_id`` towards ``peer``
        covers: ``None`` (all of ``node_id``'s) unless the peer lacks
        some of them, else the shared groups."""
        mine = self._holdings.get(node_id)
        theirs = self._holdings.get(peer)
        if theirs is None or (mine is not None and mine <= theirs):
            return None
        return theirs if mine is None else mine & theirs

    # -- membership -----------------------------------------------------

    def attach(
        self,
        node_id: int,
        on_deliver_batch: BatchDeliverFn,
        groups: Optional[FrozenSet[object]] = None,
    ) -> None:
        """Register a node holding ``groups`` (``None``: every group).

        Every merge (a DELTA, a flood payload, a quiescence exchange)
        hands all the items it released for the node to
        ``on_deliver_batch`` in one call, in delivery order; items of
        groups the node does not hold are never delivered to it.
        Exactly-once holds because items enter the known set the moment
        they are released.  The caller owns the node's transport slot
        and forwards gossip payloads via :meth:`receive`.
        """
        if node_id in self._known:
            raise ValueError(f"node {node_id} already attached")
        known = self._known[node_id] = {}
        self._holdings[node_id] = None if groups is None else frozenset(groups)
        self._deliver_batch[node_id] = on_deliver_batch
        self._runs[node_id] = {}
        self._last_syn[node_id] = {}
        self._last_want[node_id] = {}
        self._wanted[node_id] = {}
        self._buffers[node_id] = CausalBuffer(
            known, partial(self._deliver_one, node_id)
        )

    @contextmanager
    def delivery_batch(self, node_id: int):
        """Collect everything delivered to ``node_id`` inside the window
        — direct deliveries *and* causal-buffer flushes — and hand it to
        the node's batch callback in one call when the window closes.

        Every :meth:`_merge` runs in one.  A runtime transport wraps the
        dispatch of a whole wire frame in an outer one (nested windows
        join the outermost): one ``merge_span`` undo/redo cycle per
        frame, not per payload.
        """
        opened = node_id not in self._batch_sink
        if opened:
            self._batch_sink[node_id] = []
        try:
            yield
        finally:
            if opened:
                batch = tuple(self._batch_sink.pop(node_id))
                if batch:
                    self._deliver_batch[node_id](batch)

    def receive(
        self, node_id: int, payload: object, src: int = -1
    ) -> None:
        """Handle a dissemination payload delivered to ``node_id`` from
        ``src`` (the exchange replies to it)."""
        handler = self._handlers.get(payload[0])
        if handler is None:
            raise ValueError(f"unknown broadcast payload kind {payload[0]!r}")
        handler(node_id, src, payload)

    def known_items(self, node_id: int) -> Tuple:
        """Snapshot of (key, item) pairs known at ``node_id``."""
        return tuple(self._known[node_id].items())

    def merge_items(self, node_id: int, items) -> None:
        """Merge externally obtained items into ``node_id``'s set (used by
        the synchronized-transaction pull protocol)."""
        self._merge(node_id, items)

    @property
    def node_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._known))

    def _targets(self) -> Tuple[int, ...]:
        """The dissemination universe (see ``membership``)."""
        return (
            self.membership if self.membership is not None
            else self.node_ids
        )

    def known_keys(self, node_id: int) -> Tuple:
        return tuple(self._known[node_id])

    @property
    def open_sessions(self) -> int:
        """Anti-entropy exchanges still waiting for their ACK."""
        return len(self._sessions)

    def has(self, node_id: int, key: object) -> bool:
        """Delivered at ``node_id`` or waiting in its causal buffer."""
        return key in self._known[node_id] or key in self._buffers[node_id]

    # -- run-set views (the exchange and the synchronized pull) -----------

    def _delivered(
        self, node_id: int, scope: Optional[FrozenSet[object]] = None
    ) -> Sequence[int]:
        """The bounds of ``node_id``'s delivered keys in the groups of
        ``scope`` (``None``: every group), to read only: they may be
        the live bounds."""
        runs = self._runs[node_id]
        if scope is None and len(runs) == 1:
            return next(iter(runs.values()))
        return runs_union(*(
            bounds for group, bounds in runs.items()
            if scope is None or group in scope
        ))

    def held(self, node_id: int, peer: Optional[int] = None) -> RunSet:
        """``node_id``'s delivered and buffered keys, in the groups it
        shares with ``peer`` (see ``_scope``; every group without one):
        the set a SYN, an ACK and a sync pull carry.  O(runs) plus the
        buffer."""
        scope = None if peer is None else self._scope(node_id, peer)
        delivered = self._delivered(node_id, scope)
        buffer = self._buffers[node_id]
        if not len(buffer):
            return RunSet(tuple(delivered))
        buffered = runs_of(
            key for key in buffer
            if scope is None or group_of(buffer.peek(key)) in scope
        )
        return RunSet(runs_union(delivered, buffered))

    def records_beyond(
        self,
        node_id: int,
        theirs: RunSet,
        peer: int,
        within: Optional[RunSet] = None,
    ) -> Tuple[WireItem, ...]:
        """(key, item) for every record delivered at ``node_id``, in a
        group it shares with ``peer`` (and in ``within``, if given),
        whose key ``theirs`` lacks: run arithmetic, then one lookup per
        record returned.  Raises ``TypeError`` unless ``theirs`` is a
        run-set."""
        _check_run_set(theirs, "a peer's set")
        known = self._known[node_id]
        mine = self._delivered(node_id, self._scope(node_id, peer))
        if within is not None:
            mine = runs_intersection(mine, within.bounds)
        beyond = RunSet(runs_difference(mine, theirs.bounds))
        return tuple((key, known[key]) for key in beyond)

    # -- publishing -------------------------------------------------------

    def publish(self, node_id: int, key: object, item: object) -> None:
        """Introduce a new item at ``node_id`` and flood it (if enabled)
        to every other holder of its group.

        The publishing node "delivers" to itself immediately (its own
        database reflects its own transactions at once).  The flood is a
        rumor: the new record alone (plus any extras), instead of the
        sender's set — a receiver that cannot deliver it yet wants the
        gap back from this node (see :meth:`_on_rumor`).
        """
        self.stats.published += 1
        self._note_published(key)
        self._merge(node_id, [(key, item)])
        if not self.config.flood:
            return
        group = group_of(item)
        stats = self.stats
        items = ((key, item),)
        for dst in self._targets():
            if dst == node_id or not self._holds(dst, group):
                continue
            stats.flood_messages += 1
            extra = self._extras_for(node_id, dst)
            stats.items_carried += 1
            stats.wire.message(
                records=1, summaries=len(extra) if extra else 0
            )
            self.transport.send(node_id, dst, (GOSSIP_RUMOR, items, extra))

    def _note_published(self, key: object) -> None:
        """Remember when ``key`` was first published, where a remote
        delivery of it can be observed (see ``_published_at``)."""
        if len(self._known) > 1 and key not in self._published_at:
            self._published_at[key] = self.clock.now

    # -- anti-entropy -------------------------------------------------------

    def start_anti_entropy(self) -> None:
        """Begin the periodic gossip timers (staggered per node)."""
        if self._anti_entropy_started:
            return
        self._anti_entropy_started = True
        interval = self.config.anti_entropy_interval
        targets = self._targets()
        for node_id in self.node_ids:
            i = targets.index(node_id)
            offset = interval * (i + 1) / (len(targets) + 1)
            self.clock.schedule(offset, partial(self._gossip_tick, node_id))

    def stop_anti_entropy(self) -> None:
        """Stop the gossip timers (no further ticks are scheduled)."""
        self._anti_entropy_stopped = True

    def _gossip_tick(self, node_id: int) -> None:
        if self._anti_entropy_stopped:
            return
        self._gossip_once(node_id)
        self.clock.schedule(
            self.config.anti_entropy_interval,
            partial(self._gossip_tick, node_id),
        )

    def _gossip_once(self, node_id: int) -> None:
        if not self._is_active(node_id):
            return
        everyone = self.extras is not None
        peers = [
            n for n in self._targets()
            if n != node_id and self._is_active(n)
            and (everyone or self._shares(node_id, n))
        ]
        if not peers:
            return
        targets = self.scheduler.pick(
            node_id, peers, self.clock.now, fanout=self.config.fanout
        )
        for dst in targets:
            self.stats.anti_entropy_messages += 1
            self._initiate(node_id, dst)

    def trigger_anti_entropy(self, node_id: int) -> None:
        """Run one immediate anti-entropy exchange from ``node_id``
        (crash recovery: a rejoining node pulls itself back up to date
        without waiting for its periodic tick)."""
        self._gossip_once(node_id)

    def forget(self, node_id: int, keys) -> int:
        """Scrub ``keys`` from ``node_id``'s delivered set and runs, and
        drop anything sitting in its causal buffer, its last SYNs and
        its gap-want state (crash losing volatile state).  Returns how
        many keys were actually removed.

        The scrubbed keys look exactly like never-received items to the
        delta protocol afterwards, so anti-entropy re-fetches them from
        any peer that still holds them.
        """
        known = self._known[node_id]
        removed = sum(known.pop(key, None) is not None for key in keys)
        if removed:
            by_group: Dict[object, List[int]] = {}
            for key, item in known.items():
                by_group.setdefault(group_of(item), []).append(key)
            self._runs[node_id] = {
                group: runs_of(members) for group, members in by_group.items()
            }
        self._buffers[node_id].clear()
        self._last_syn[node_id].clear()
        self._last_want[node_id].clear()
        self._wanted[node_id].clear()
        return removed

    def exchange_all(self) -> None:
        """Synchronously push every node's set to every other node —
        each receiving only the groups it holds — bypassing timers and
        the network (used to quiesce a run after healing partitions)."""
        snapshot = {
            n: tuple(known.items()) for n, known in self._known.items()
        }
        for src, items in snapshot.items():
            for dst in self.node_ids:
                if dst != src:
                    self._merge(dst, items)

    def settle(self) -> None:
        """Exchange whole sets until converged: at most
        :data:`QUIESCE_ROUNDS` :meth:`exchange_all` rounds, re-checking
        convergence after each (the owner stops anti-entropy and drains
        its clock first)."""
        for _ in range(QUIESCE_ROUNDS):
            if self.converged():
                return
            self.exchange_all()
        if not self.converged():
            raise RuntimeError(
                f"gossip failed to converge in {QUIESCE_ROUNDS} rounds"
            )

    # -- the run-set exchange ---------------------------------------------

    def _initiate(self, node_id: int, peer: int) -> None:
        """Open an exchange from ``node_id`` to ``peer``: a SYN carrying
        the keys this node holds."""
        held = self.held(node_id, peer)
        extra = self._extras_for(node_id, peer)
        syn_id = self._next_syn
        self._next_syn += 1
        handle = self.clock.schedule(
            self.config.ack_timeout, partial(self._on_timeout, syn_id)
        )
        self._sessions[syn_id] = (node_id, peer, handle)
        self._last_syn[node_id][peer] = (syn_id, held)
        self.stats.delta.syns += 1
        self.stats.wire.message(
            keys=len(held.bounds), summaries=len(extra) if extra else 0
        )
        self._trace(
            GOSSIP_SYN, node_id,
            peer=peer, runs=len(held.bounds) // 2,
        )
        self.transport.send(node_id, peer, (GOSSIP_SYN, syn_id, held, extra))

    def _on_timeout(self, syn_id: int) -> None:
        session = self._sessions.pop(syn_id, None)
        if session is None:
            return
        node_id, peer, _handle = session
        self.stats.delta.timeouts += 1
        self.scheduler.failure(node_id, peer, self.clock.now)

    def _on_syn(self, node_id: int, src: int, payload: Tuple) -> None:
        """Responder: answer with the keys this node holds (stateless,
        O(runs) whatever the SYN's set stands for)."""
        _, syn_id, theirs, extra = payload
        _check_run_set(theirs, "a SYN's set")
        self._receive_extras(node_id, src, extra)
        held = self.held(node_id, src)
        reply_extra = self._extras_for(node_id, src)
        self.stats.delta.acks += 1
        self.stats.wire.message(
            keys=len(held.bounds),
            summaries=len(reply_extra) if reply_extra else 0,
        )
        self.transport.send(
            node_id, src, (GOSSIP_ACK, syn_id, held, reply_extra)
        )

    def _on_ack(self, node_id: int, src: int, payload: Tuple) -> None:
        """Initiator: close the session, then push the records the
        peer's set lacks and want the keys it holds that this node
        neither delivered nor buffered — one DELTA, or none when the
        two are in sync.

        With flooding on, the push is limited to what the SYN offered,
        when this ACK answers the last SYN sent to the peer: a record
        delivered here since then is most likely still on its way to
        the peer in its own rumor, and the next exchange pushes it if
        not."""
        _, syn_id, theirs, extra = payload
        last = self._last_syn[node_id].get(src)
        offered = (
            last[1] if self.config.flood and last is not None
            and last[0] == syn_id else None
        )
        push = self.records_beyond(node_id, theirs, src, offered)
        self._receive_extras(node_id, src, extra)
        session = self._sessions.pop(syn_id, None)
        if session is not None:
            session[2].cancel()
            self.scheduler.success(node_id, src, self.clock.now)
        want = runs_difference(theirs.bounds, self._delivered(node_id))
        buffer = self._buffers[node_id]
        if want and len(buffer):
            want = runs_difference(want, runs_of(buffer))
        if not push and not want:
            self.stats.delta.skips += 1
            self._trace("gossip_skip", node_id, peer=src)
            return
        self._send_delta(node_id, src, syn_id, push, RunSet(want))

    def _on_delta(self, node_id: int, src: int, payload: Tuple) -> None:
        """Merge the pushed records, then answer the ``want`` with one
        DELTA of the wanted records held here — none at all if this node
        holds none of them.

        A want is a :class:`~repro.replica.log.RunSet`, whether it
        closes an exchange or names a rumor's gap.  Its bounds may
        stand for up to ``MAX_SET`` keys, so it is never read key by
        key: it is intersected with the delivered runs, O(runs), and
        unless that covers it, each buffered key in its span is one
        probe.  The work and the reply are bounded by what this node
        holds, never by what the want claims."""
        _, syn_id, items, want = payload
        _check_run_set(want, "a want")
        if items:
            self._merge(node_id, items)
        if want:
            known = self._known[node_id]
            buffer = self._buffers[node_id]
            both = runs_intersection(want.bounds, self._delivered(node_id))
            reply = [
                (key, known[key])
                for lo, hi in zip(both[::2], both[1::2])
                for key in range(lo, hi + 1)
            ]
            if len(buffer) and both != want.bounds:  # not all delivered
                lo, hi = want.bounds[0], want.bounds[-1]
                reply += [
                    (key, buffer.peek(key)) for key in buffer
                    if lo <= key <= hi and key in want
                ]
            if reply:
                self._send_delta(node_id, src, syn_id, tuple(reply), NO_WANT)

    def _send_delta(
        self,
        node_id: int,
        dst: int,
        syn_id: int,
        items: Tuple[WireItem, ...],
        want: RunSet,
    ) -> None:
        stats = self.stats
        stats.delta.deltas += 1
        stats.delta.delta_records += len(items)
        stats.items_carried += len(items)
        stats.wire.message(records=len(items), keys=len(want.bounds))
        self._trace(
            GOSSIP_DELTA, node_id,
            peer=dst, pushed=len(items), wanted=len(want),
        )
        self.transport.send(node_id, dst, (GOSSIP_DELTA, syn_id, items, want))

    def _on_rumor(self, node_id: int, src: int, payload: Tuple) -> None:
        """Merge the rumored records; if the gate buffered any, want
        their missing dependencies from the sender, which delivered them
        all before it published."""
        _, items, extra = payload
        self._receive_extras(node_id, src, extra)
        self._merge(node_id, items)
        buffer = self._buffers[node_id]
        gapped = [key for key, _ in items if key in buffer]
        if gapped:
            self._want_gap(node_id, src, gapped)

    def _want_gap(self, node_id: int, peer: int, keys: List[object]) -> None:
        """Send ``peer`` one DELTA wanting the missing dependencies of
        the buffered ``keys`` (at most :data:`MAX_GAP_WANT` of them).
        At most once per directed pair per :data:`REPAIR_COOLDOWN`, and
        never a key this node wanted within the cooldown.  The peer's
        back-off is not consulted: the rumor just came from it."""
        now = self.clock.now
        last_want = self._last_want[node_id]
        last = last_want.get(peer)
        if last is not None and now - last < REPAIR_COOLDOWN:
            return
        wanted = {
            key: since for key, since in self._wanted[node_id].items()
            if now - since < REPAIR_COOLDOWN
        }
        self._wanted[node_id] = wanted
        want = dict.fromkeys(
            dep for dep in self._buffers[node_id].missing(keys, MAX_GAP_WANT)
            if dep not in wanted
        )
        if not want:
            return
        wanted.update(dict.fromkeys(want, now))
        last_want[peer] = now
        self.stats.delta.repair_pulls += 1
        self._send_delta(
            node_id, peer, None, (), RunSet(tuple(runs_of(want)))
        )

    # -- receipt ----------------------------------------------------------

    def _merge(self, node_id: int, items) -> None:
        known = self._known[node_id]
        held = self._holdings[node_id]
        gating = self._gating()
        buffer = self._buffers[node_id]
        deferred = buffer.deferred_total
        with self.delivery_batch(node_id):
            for key, item in items:
                if type(key) is not int:
                    raise TypeError(f"gossip keys are ints, not {key!r}")
                if key in known or (
                    held is not None and group_of(item) not in held
                ):
                    continue
                if gating:
                    buffer.offer(key, item, self.depends_on(key, item))
                else:
                    self._deliver_one(node_id, key, item)
        self.stats.causally_deferred += buffer.deferred_total - deferred

    def _deliver_one(self, node_id: int, key: object, item: object) -> None:
        """The single point where an item becomes *delivered* at a node:
        known-set, delivered runs and stats all update here, and the item
        joins the node's open delivery batch (every caller runs inside a
        :meth:`_merge`)."""
        self._known[node_id][key] = item
        runs = self._runs[node_id]
        group = group_of(item)
        bounds = runs.get(group)
        if bounds is None:
            bounds = runs[group] = []
        add_to_runs(bounds, key)
        self.stats.deliveries += 1
        published = self._published_at.get(key)
        if published is not None and self.clock.now > published:
            self.stats.delivery_delays.append(self.clock.now - published)
        self._batch_sink[node_id].append((key, item))

    # -- convergence ---------------------------------------------------------

    def converged(self) -> bool:
        """Every node knows every item of the groups it holds."""
        return not any(self.missing_counts().values())

    def missing_counts(self) -> Dict[int, int]:
        """Per node: how many globally known items of the groups it
        holds it has not yet seen."""
        universe: Dict[object, Set[object]] = {}
        for known in self._known.values():
            for key, item in known.items():
                universe.setdefault(group_of(item), set()).add(key)
        return {
            n: sum(
                len(keys) for group, keys in universe.items()
                if self._holds(n, group)
            ) - len(known)
            for n, known in self._known.items()
        }
