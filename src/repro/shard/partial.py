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
* dissemination is the one :class:`~repro.gossip.GossipService` full
  replication uses, with each node attached for the objects it holds
  (an object key is its records' gossip *group*): rumors, the push–pull
  delta protocol and causal gating on each record's per-object seen-set
  all run there, restricted to the objects the peers share; the cluster
  adds only receipt-time clock observation and the summary piggyback;
* per object, everything reduces to the fully-replicated theory: the
  extracted per-object executions satisfy the prefix subsequence
  condition, and all of the paper's per-constraint results apply
  unchanged (checked by the partial-replication bench).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from ..core.execution import TimedExecution
from ..core.state import State
from ..core.transaction import Transaction
from ..gossip import GossipConfig, GossipService, GossipStats, carried_records
from ..network.link import FixedDelay
from ..network.network import Network
from ..network.partition import PartitionSchedule
from ..replica import LamportClock, Replica, Timestamp, UpdateRecord
from ..sim.engine import Simulator
from ..sim.rng import SeededStreams
from .external import ExternalLedger
from .history import extract_execution

ObjectKey = str


@dataclass(frozen=True)
class KeyedRecord:
    """An update record tagged with the object it belongs to."""

    key: ObjectKey
    record: UpdateRecord

    @property
    def group(self) -> ObjectKey:
        return self.key

    @property
    def ts(self) -> Timestamp:
        return self.record.ts


def _seen_txids(txid: int, keyed: KeyedRecord):
    """Per-object causal gating: a txid belongs to exactly one object,
    so the record's seen-set is its dependency set as it stands."""
    return keyed.record.seen_txids


@dataclass
class PartialConfig:
    #: node id -> the object keys replicated there.
    placement: Dict[int, FrozenSet[ObjectKey]]
    seed: int = 0
    partitions: Optional[PartitionSchedule] = None
    anti_entropy_interval: float = 5.0
    flood: bool = True
    #: optional summary function (Section 6: "data ... present in summary
    #: form"): substate -> an opaque summary value.  When set, every
    #: message additionally carries the sender's summaries of the objects
    #: it holds, and receivers cache them for objects they do NOT hold
    #: (read via PartialNode.summary / PartialCluster.summary_view).
    summarize: Optional[Callable[[State], object]] = None


class PartialNode:
    """A node holding replicas of a subset of the objects."""

    def __init__(
        self,
        node_id: int,
        keys: FrozenSet[ObjectKey],
        initial_substates: Dict[ObjectKey, State],
        ledger: ExternalLedger,
    ):
        self.node_id = node_id
        self.keys = keys
        self.clock = LamportClock(node_id)
        #: one replica (canonical log + merge view) per object held.
        self.replicas: Dict[ObjectKey, Replica] = {
            k: Replica(initial_substates[k]) for k in keys
        }
        self.ledger = ledger
        #: stale summaries of objects this node does NOT hold:
        #: key -> (as-of simulated time, summary value).
        self.summaries: Dict[ObjectKey, Tuple[float, object]] = {}

    @property
    def logs(self):
        """The canonical per-object logs (view over the replicas)."""
        return {k: replica.log for k, replica in self.replicas.items()}

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
        self.replicas[key].ingest(record)
        return KeyedRecord(key, record)

    def receive(self, keyed: KeyedRecord) -> bool:
        """Merge a record for an object this node holds; drop others."""
        self.clock.observe(keyed.record.ts)
        if keyed.key not in self.keys:
            return False
        return self.replicas[keyed.key].ingest(keyed.record) is not None

    def receive_batch(self, batch) -> None:
        """One gossip delivery batch of ``(txid, keyed record)`` pairs,
        merged one record at a time in delivery order."""
        for _txid, keyed in batch:
            self.receive(keyed)

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


class PartialCluster:
    """A partially replicated SHARD deployment: one gossip service whose
    nodes attach with their placements, plus routing, summaries and
    per-object history."""

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
            delay=FixedDelay(1.0),
            partitions=config.partitions or PartitionSchedule.always_connected(),
            rng=self.streams.stream("network"),
        )
        self.broadcast = GossipService(
            self.sim,
            self.network,
            GossipConfig(
                flood=config.flood,
                anti_entropy_interval=config.anti_entropy_interval,
            ),
            rng=self.streams.stream("gossip"),
        )
        self.broadcast.depends_on = _seen_txids
        if config.summarize is not None:
            self.broadcast.extras = self._summaries_from
            self.broadcast.on_extras = self._accept_summaries
        self.stats: GossipStats = self.broadcast.stats
        self.ledger = ExternalLedger()
        self.nodes: Dict[int, PartialNode] = {}
        for node_id, keys in sorted(config.placement.items()):
            node = PartialNode(
                node_id, frozenset(keys), self.initial_substates, self.ledger
            )
            self.nodes[node_id] = node
            self.broadcast.attach(
                node_id, node.receive_batch, groups=node.keys
            )
            self.network.register(node_id, partial(self._dispatch, node_id))
        self._next_txid = 0
        self.records: Dict[int, KeyedRecord] = {}
        self.broadcast.start_anti_entropy()

    def _dispatch(self, node_id: int, src: int, payload: Tuple) -> None:
        """Observe at receipt: the node's Lamport clock passes every
        record a rumor or DELTA carries before the service gates it, so
        a record still waiting in the causal buffer already bounds the
        next timestamp issued here."""
        clock = self.nodes[node_id].clock
        for keyed in carried_records(payload):
            clock.observe(keyed.ts)
        self.broadcast.receive(node_id, payload, src=src)

    # -- topology helpers --------------------------------------------------

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

    # -- summaries ---------------------------------------------------------

    def _summaries_from(self, node_id: int, peer: int) -> Optional[Tuple]:
        """Summaries of every object the sender holds, stamped now."""
        node = self.nodes[node_id]
        return tuple(
            (key, self.sim.now, self.config.summarize(node.substate(key)))
            for key in sorted(node.keys)
        ) or None

    def _accept_summaries(self, node_id: int, src: int, extra) -> None:
        for key, as_of, value in extra or ():
            self.nodes[node_id].accept_summary(key, as_of, value)

    # -- submission --------------------------------------------------------

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
            self.broadcast.publish(node_id, txid, keyed)

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

    # -- running / convergence ---------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def converged(self) -> bool:
        """Every object's holders agree on its log."""
        return self.broadcast.converged()

    def quiesce(self) -> None:
        self.broadcast.stop_anti_entropy()
        self.sim.run()
        self.broadcast.settle()

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

    # -- history -----------------------------------------------------------

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
