"""Partial replication (the Section 6 generalization).

"The inessential full replication assumption needs to be removed.  Even
with only partial replication, it should be possible to continue to
maintain the correctness conditions we describe in this paper, by
judicious assignment of data and transactions to nodes, (i.e. in such a
way that each transaction will have copies of all the data it
requires)."

This module implements exactly that discipline:

* the database is partitioned into named **objects** (e.g. one per
  flight), each with its own initial substate and its own timestamp-
  ordered log;
* a **placement** assigns each node a subset of objects; a transaction
  touches exactly one object and may only be initiated at a node holding
  it ("each transaction has copies of all the data it requires");
* updates are disseminated only to the object's holders — flooding to
  holders, and anti-entropy between *sharing* peers — so bandwidth
  scales with replication degree, not cluster size;
* anti-entropy runs the gossip subsystem's push–pull delta protocol
  over per-object digests (cells are tagged with the object key as
  their *group*, and each exchange is restricted to the objects both
  peers hold), floods are single-record rumors carrying a shared-groups
  digest, and received records are causally gated on their per-object
  seen-sets (each node's ``CausalBuffer`` reads its ``records_held``
  directly; the ``(object, txid)`` dependency set is built once per
  offered record);
* per object, everything reduces to the fully-replicated theory: the
  extracted per-object executions satisfy the prefix subsequence
  condition, and all of the paper's per-constraint results apply
  unchanged (checked by the partial-replication bench).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from ..core.execution import TimedExecution
from ..core.state import State
from ..core.transaction import Transaction
from ..gossip import (
    CausalBuffer,
    DeltaStats,
    DigestIndex,
    ExchangeEngine,
    PeerScheduler,
    RangeDigest,
    differing_cells,
)
from ..network.link import DelayModel, FixedDelay
from ..network.network import Network
from ..network.partition import PartitionSchedule
from ..replica import EngineFactory, LamportClock, Replica, UpdateRecord
from ..sim.engine import Simulator
from ..sim.metrics import WireStats
from ..sim.rng import SeededStreams
from .cluster import QUIESCE_ROUNDS
from .external import ExternalLedger
from .history import extract_execution

ObjectKey = str


@dataclass(frozen=True)
class KeyedRecord:
    """An update record tagged with the object it belongs to."""

    key: ObjectKey
    record: UpdateRecord


@dataclass
class PartialConfig:
    #: node id -> the object keys replicated there.
    placement: Dict[int, FrozenSet[ObjectKey]]
    seed: int = 0
    delay: Optional[DelayModel] = None
    partitions: Optional[PartitionSchedule] = None
    loss_probability: float = 0.0
    anti_entropy_interval: float = 5.0
    flood: bool = True
    merge_factory: Optional[EngineFactory] = None
    #: optional summary function (Section 6: "data ... present in summary
    #: form"): substate -> an opaque summary value.  When set, every
    #: message additionally carries the sender's summaries of the objects
    #: it holds, and receivers cache them for objects they do NOT hold
    #: (read via PartialNode.summary / PartialCluster.summaries).
    summarize: Optional[Callable[[State], object]] = None


@dataclass
class PartialStats:
    flood_messages: int = 0
    anti_entropy_messages: int = 0
    items_carried: int = 0
    delta: DeltaStats = field(default_factory=DeltaStats)
    wire: WireStats = field(default_factory=WireStats)


class PartialNode:
    """A node holding replicas of a subset of the objects."""

    def __init__(
        self,
        node_id: int,
        keys: FrozenSet[ObjectKey],
        initial_substates: Dict[ObjectKey, State],
        merge_factory: Optional[EngineFactory],
        ledger: ExternalLedger,
    ):
        self.node_id = node_id
        self.keys = keys
        self.clock = LamportClock(node_id)
        #: one replica (canonical log + merge view) per object held.
        self.replicas: Dict[ObjectKey, Replica] = {
            k: Replica(initial_substates[k], engine_factory=merge_factory)
            for k in keys
        }
        self.ledger = ledger
        #: digest over every held object's log; cells are grouped by
        #: object key so exchanges can be restricted to shared objects.
        self.index = DigestIndex()
        #: (object key, txid) -> record, for delta-protocol lookups.
        self.records_held: Dict[Tuple[ObjectKey, int], UpdateRecord] = {}
        #: stale summaries of objects this node does NOT hold:
        #: key -> (as-of simulated time, summary value).
        self.summaries: Dict[ObjectKey, Tuple[float, object]] = {}

    @property
    def logs(self):
        """The canonical per-object logs (view over the replicas)."""
        return {k: replica.log for k, replica in self.replicas.items()}

    @property
    def merges(self):
        """The per-object merge views (stats live here)."""
        return {k: replica.engine for k, replica in self.replicas.items()}

    def substate(self, key: ObjectKey) -> State:
        return self.replicas[key].state

    def known_txids(self, key: ObjectKey) -> FrozenSet[int]:
        return self.replicas[key].txids

    def initiate(
        self, txid: int, key: ObjectKey, transaction: Transaction, now: float
    ) -> KeyedRecord:
        if key not in self.keys:
            raise KeyError(
                f"node {self.node_id} does not hold object {key!r}"
            )
        decision = transaction.decide(self.substate(key))
        self.ledger.record(
            now, self.node_id, txid, tuple(decision.external_actions)
        )
        record = UpdateRecord(
            ts=self.clock.issue(),
            txid=txid,
            transaction=transaction,
            update=decision.update,
            origin=self.node_id,
            real_time=now,
            seen_txids=self.known_txids(key),
        )
        self._insert(key, record)
        return KeyedRecord(key, record)

    def receive(self, keyed: KeyedRecord) -> bool:
        """Merge a record for an object this node holds; drop others."""
        self.clock.observe(keyed.record.ts)
        if keyed.key not in self.keys:
            return False
        return self._insert(keyed.key, keyed.record)

    def _insert(self, key: ObjectKey, record: UpdateRecord) -> bool:
        accepted = self.replicas[key].ingest(record) is not None
        if accepted:
            self.index.add(
                record.txid,
                (record.ts.counter, record.ts.node_id),
                group=key,
            )
            self.records_held[(key, record.txid)] = record
        return accepted

    def _deliver(
        self, held_key: Tuple[ObjectKey, int], record: UpdateRecord
    ) -> None:
        """Release from the causal buffer (keyed like ``records_held``)."""
        self._insert(held_key[0], record)

    def accept_summary(
        self, key: ObjectKey, as_of: float, value: object
    ) -> None:
        """Cache a peer's summary of an object this node does not hold
        (newer as-of times win)."""
        if key in self.keys:
            return
        current = self.summaries.get(key)
        if current is None or as_of >= current[0]:
            self.summaries[key] = (as_of, value)

    def summary(self, key: ObjectKey) -> Optional[object]:
        """The cached (possibly stale) summary of a foreign object."""
        entry = self.summaries.get(key)
        return entry[1] if entry else None


class _PartialStore:
    """Store adapter driving the gossip engine over per-object groups.

    Every digest (and diff) is restricted to the objects *both* peers
    hold — non-shared objects are invisible to the exchange, which is
    how "bandwidth scales with replication degree" survives the move to
    delta gossip.  Summaries (Section 6) ride as the protocol's
    ``extra`` payloads on SYN/ACK/rumor messages.
    """

    def __init__(self, cluster: "PartialCluster"):
        self.cluster = cluster

    def _shared(self, node: int, peer: int) -> FrozenSet[ObjectKey]:
        nodes = self.cluster.nodes
        if peer not in nodes:
            return frozenset()
        return nodes[node].keys & nodes[peer].keys

    def digest_for(self, node: int, peer: int) -> RangeDigest:
        return self.cluster.nodes[node].index.digest(
            groups=self._shared(node, peer)
        )

    def diff(self, node: int, remote: RangeDigest, peer: int) -> Tuple:
        return differing_cells(
            self.cluster.nodes[node].index,
            remote,
            groups=self._shared(node, peer),
        )

    def keys_in(self, node: int, cell: Tuple):
        return self.cluster.nodes[node].index.keys_in(cell)

    def has(self, node: int, group: ObjectKey, key: int) -> bool:
        pnode = self.cluster.nodes[node]
        if group not in pnode.keys:
            return False
        if (group, key) in pnode.records_held:
            return True
        return (group, key) in self.cluster._buffers[node]

    def item_for(self, node: int, group: ObjectKey, key: int) -> UpdateRecord:
        pnode = self.cluster.nodes[node]
        record = pnode.records_held.get((group, key))
        if record is not None:
            return record
        return self.cluster._buffers[node].peek((group, key))

    def merge(self, node: int, wire_items) -> None:
        pnode = self.cluster.nodes[node]
        buffer = self.cluster._buffers[node]
        for group, txid, record in wire_items:
            pnode.clock.observe(record.ts)
            if group in pnode.keys:
                # gate on the record's per-object seen-set so each
                # replica's log stays causally closed under delta gossip
                # (a held or buffered record never runs the generator).
                buffer.offer(
                    (group, txid),
                    record,
                    ((group, dep) for dep in record.seen_txids),
                )

    def extra_for(self, node: int, peer: int):
        return self.cluster._summaries_from(node) or None

    def accept_extra(self, node: int, src: int, extra) -> None:
        if not extra:
            return
        pnode = self.cluster.nodes[node]
        for key, as_of, value in extra:
            pnode.accept_summary(key, as_of, value)


class PartialCluster:
    """A partially replicated SHARD deployment."""

    def __init__(
        self,
        initial_substates: Dict[ObjectKey, State],
        config: PartialConfig,
    ):
        for node_id, keys in config.placement.items():
            missing = keys - set(initial_substates)
            if missing:
                raise ValueError(
                    f"node {node_id} placed for unknown objects {missing}"
                )
        self.initial_substates = dict(initial_substates)
        self.config = config
        self.sim = Simulator()
        self.streams = SeededStreams(config.seed)
        self.network = Network(
            self.sim,
            delay=config.delay or FixedDelay(1.0),
            partitions=config.partitions or PartitionSchedule.always_connected(),
            loss_probability=config.loss_probability,
            rng=self.streams.stream("network"),
        )
        self.ledger = ExternalLedger()
        self.stats = PartialStats()
        self.nodes: Dict[int, PartialNode] = {}
        self._buffers: Dict[int, CausalBuffer] = {}
        for node_id, keys in sorted(config.placement.items()):
            node = PartialNode(
                node_id, frozenset(keys), self.initial_substates,
                config.merge_factory, self.ledger,
            )
            self.nodes[node_id] = node
            self._buffers[node_id] = CausalBuffer(
                node.records_held, node._deliver
            )
        self._next_txid = 0
        self.records: Dict[int, KeyedRecord] = {}
        self.scheduler = PeerScheduler(
            self.streams.stream("gossip"),
            base_backoff=config.anti_entropy_interval,
        )
        self.engine = ExchangeEngine(
            self.sim,
            lambda src, dst, payload: self.network.send(src, dst, payload),
            _PartialStore(self),
            self.scheduler,
            self.stats.delta,
            self.stats.wire,
            count_records=self._count_records,
        )
        for node_id in self.nodes:
            self.network.register(node_id, partial(self.engine.handle, node_id))
        self._anti_entropy_stopped = False
        self._start_anti_entropy()

    def _count_records(self, n: int) -> None:
        self.stats.items_carried += n

    # -- topology helpers ---------------------------------------------------

    def holders(self, key: ObjectKey) -> Tuple[int, ...]:
        return tuple(
            node_id
            for node_id, node in sorted(self.nodes.items())
            if key in node.keys
        )

    def sharing_peers(self, node_id: int) -> Tuple[int, ...]:
        mine = self.nodes[node_id].keys
        return tuple(
            other
            for other, node in sorted(self.nodes.items())
            if other != node_id and node.keys & mine
        )

    # -- dissemination --------------------------------------------------------

    def _summaries_from(self, node_id: int) -> Tuple:
        """Summaries of every object the sender holds, stamped now."""
        if self.config.summarize is None:
            return ()
        node = self.nodes[node_id]
        return tuple(
            (key, self.sim.now, self.config.summarize(node.substate(key)))
            for key in sorted(node.keys)
        )

    def _start_anti_entropy(self) -> None:
        interval = self.config.anti_entropy_interval
        for i, node_id in enumerate(sorted(self.nodes)):
            offset = interval * (i + 1) / (len(self.nodes) + 1)
            self.sim.schedule(offset, self._make_gossip_tick(node_id))

    def _make_gossip_tick(self, node_id: int) -> Callable[[], None]:
        def tick() -> None:
            if self._anti_entropy_stopped:
                return
            self._gossip_once(node_id)
            self.sim.schedule(
                self.config.anti_entropy_interval,
                self._make_gossip_tick(node_id),
            )

        return tick

    def _gossip_once(self, node_id: int) -> None:
        if self.config.summarize is not None:
            # with summaries on, gossip reaches every peer (summaries are
            # the cross-placement information channel).
            peers = tuple(n for n in sorted(self.nodes) if n != node_id)
        else:
            peers = self.sharing_peers(node_id)
        if not peers:
            return
        for peer in self.scheduler.pick(node_id, peers, self.sim.now):
            self.stats.anti_entropy_messages += 1
            self.engine.initiate(node_id, peer)

    def _items_for(
        self, node_id: int, keys: FrozenSet[ObjectKey]
    ) -> Tuple[KeyedRecord, ...]:
        node = self.nodes[node_id]
        return tuple(
            KeyedRecord(key, record)
            for key in sorted(keys)
            for record in node.replicas[key].log
        )

    # -- submission --------------------------------------------------------------

    def submit(
        self,
        node_id: int,
        key: ObjectKey,
        transaction: Transaction,
        at: Optional[float] = None,
    ) -> None:
        """Initiate at a holder of ``key`` (raises if the node lacks it)."""
        if key not in self.nodes[node_id].keys:
            raise KeyError(f"node {node_id} does not hold {key!r}")

        def fire() -> None:
            txid = self._next_txid
            self._next_txid += 1
            keyed = self.nodes[node_id].initiate(
                txid, key, transaction, self.sim.now
            )
            self.records[txid] = keyed
            if self.config.flood:
                # rumor mongering: the new record plus a digest of the
                # shared objects (digest-mismatch triggers a repair
                # pull); causal gating at receivers stands in for the
                # full-log piggyback's per-object transitivity.
                record = keyed.record
                for holder in self.holders(key):
                    if holder != node_id:
                        self.stats.flood_messages += 1
                        self.engine.send_rumor(
                            node_id,
                            holder,
                            ((key, record.txid, record),),
                            self.nodes[node_id].index.digest(
                                groups=self.nodes[node_id].keys
                                & self.nodes[holder].keys
                            ),
                            extra=self._summaries_from(node_id) or None,
                        )

        self.sim.schedule_at(self.sim.now if at is None else at, fire)

    def route_submit(
        self,
        key: ObjectKey,
        transaction: Transaction,
        rng: random.Random,
        at: Optional[float] = None,
    ) -> int:
        """Submit at a uniformly chosen holder of ``key``; returns it."""
        holders = self.holders(key)
        if not holders:
            raise KeyError(f"no node holds object {key!r}")
        node_id = rng.choice(holders)
        self.submit(node_id, key, transaction, at=at)
        return node_id

    # -- running / convergence -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def converged(self) -> bool:
        """Every object's holders agree on its log."""
        for key in self.initial_substates:
            holders = self.holders(key)
            if not holders:
                continue
            reference = self.nodes[holders[0]].known_txids(key)
            for other in holders[1:]:
                if self.nodes[other].known_txids(key) != reference:
                    return False
        return True

    def quiesce(self) -> None:
        self._anti_entropy_stopped = True
        self.sim.run()
        for _ in range(QUIESCE_ROUNDS):
            if self.converged():
                return
            for node_id in sorted(self.nodes):
                for peer in self.sharing_peers(node_id):
                    shared = self.nodes[node_id].keys & self.nodes[peer].keys
                    for keyed in self._items_for(node_id, shared):
                        self.nodes[peer].receive(keyed)
        if not self.converged():
            raise RuntimeError("partial cluster failed to converge")

    def mutually_consistent(self) -> bool:
        """Holders of each object hold identical substates when their
        logs agree — checked pairwise by grouping holders on log
        content, not just against the first holder."""
        for key in self.initial_substates:
            groups: Dict[FrozenSet[int], State] = {}
            for holder in self.holders(key):
                node = self.nodes[holder]
                txids = node.known_txids(key)
                reference = groups.setdefault(txids, node.substate(key))
                if node.substate(key) != reference:
                    return False
        return True

    def summary_view(self, node_id: int) -> Dict[ObjectKey, object]:
        """The node's view of every object: exact substate summaries for
        objects it holds, cached (possibly stale) summaries for the rest
        (None when nothing has been heard yet)."""
        if self.config.summarize is None:
            raise RuntimeError("configure PartialConfig.summarize first")
        node = self.nodes[node_id]
        view: Dict[ObjectKey, object] = {}
        for key in self.initial_substates:
            if key in node.keys:
                view[key] = self.config.summarize(node.substate(key))
            else:
                view[key] = node.summary(key)
        return view

    # -- history -------------------------------------------------------------------------

    def extract_execution(
        self, key: ObjectKey, verify: bool = True
    ) -> TimedExecution:
        """The formal execution of one object's transactions.

        Per object, the run is exactly a fully-replicated SHARD run over
        the object's holders, so the single-database theory applies."""
        records = [
            keyed.record
            for keyed in self.records.values()
            if keyed.key == key
        ]
        return extract_execution(
            self.initial_substates[key], records, verify=verify
        )
