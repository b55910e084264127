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
* a node is the :class:`~repro.shard.host.NodeHost` full replication
  builds, holding one replica per object placed on it (an object key
  is its records' ``group``), and dissemination is the one
  :class:`~repro.gossip.GossipService`, restricted to the objects peers
  share — so bandwidth scales with replication degree, not cluster
  size.  The cluster adds only placement, routing, the summary
  piggyback and per-object history: a one-object cluster placed on
  every node runs exactly like a :class:`~repro.shard.cluster.ShardCluster`;
* per object, everything reduces to the fully-replicated theory: the
  extracted per-object executions satisfy the prefix subsequence
  condition, and all of the paper's per-constraint results apply
  unchanged (checked by the partial-replication bench).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from ..core.execution import TimedExecution
from ..core.state import State
from ..core.transaction import Transaction
from ..gossip import GossipConfig, GossipService, GossipStats
from ..network.link import FixedDelay
from ..network.network import Network
from ..network.partition import PartitionSchedule
from ..replica import UpdateRecord
from ..sim.engine import Simulator
from ..sim.rng import SeededStreams
from .external import ExternalLedger
from .history import extract_execution
from .host import NodeHost
from .node import ShardNode

ObjectKey = str


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
    #: (read via PartialCluster.summary / PartialCluster.summary_view).
    summarize: Optional[Callable[[State], object]] = None


class PartialCluster:
    """A partially replicated SHARD deployment: one
    :class:`~repro.shard.host.NodeHost` per node, holding the replicas
    of its placement, on one gossip service — plus routing, summaries
    and per-object history."""

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
        if config.summarize is not None:
            self.broadcast.extras = self._summaries_from
            self.broadcast.on_extras = self._accept_summaries
        self.stats: GossipStats = self.broadcast.stats
        self.ledger = ExternalLedger()
        self.hosts: Dict[int, NodeHost] = {
            node_id: NodeHost(
                node_id,
                {key: self.initial_substates[key] for key in sorted(keys)},
                broadcast=self.broadcast,
                trace=lambda kind, node=None, **detail: None,  # untraced
                ledger=self.ledger,
            )
            for node_id, keys in sorted(config.placement.items())
        }
        self.nodes: Dict[int, ShardNode] = {
            node_id: host.node for node_id, host in self.hosts.items()
        }
        #: per node, stale summaries of the objects it does NOT hold:
        #: key -> (as-of simulated time, summary value).
        self.summaries: Dict[int, Dict[ObjectKey, Tuple[float, object]]] = {
            node_id: {} for node_id in self.nodes
        }
        self._next_txid = 0
        self.records: Dict[int, UpdateRecord] = {}
        self.broadcast.start_anti_entropy()

    # -- topology helpers --------------------------------------------------

    def holders(self, key: ObjectKey) -> Tuple[int, ...]:
        return tuple(
            node_id
            for node_id, node in sorted(self.nodes.items())
            if key in node.replicas
        )

    def sharing_peers(self, node_id: int) -> Tuple[int, ...]:
        mine = self.nodes[node_id].replicas.keys()
        return tuple(
            other
            for other, node in sorted(self.nodes.items())
            if other != node_id and not mine.isdisjoint(node.replicas)
        )

    # -- summaries ---------------------------------------------------------

    def _summaries_from(self, node_id: int, peer: int) -> Optional[Tuple]:
        """Summaries of every object the sender holds, stamped now."""
        replicas = self.nodes[node_id].replicas
        return tuple(
            (key, self.sim.now, self.config.summarize(replicas[key].state))
            for key in sorted(replicas)
        ) or None

    def _accept_summaries(self, node_id: int, src: int, extra) -> None:
        for key, as_of, value in extra or ():
            self.accept_summary(node_id, key, as_of, value)

    def accept_summary(
        self, node_id: int, key: ObjectKey, as_of: float, value: object
    ) -> None:
        """Cache a peer's summary of an object ``node_id`` does not hold
        (newer as-of times win)."""
        if key in self.nodes[node_id].replicas:
            return
        cache = self.summaries[node_id]
        current = cache.get(key)
        if current is None or as_of >= current[0]:
            cache[key] = (as_of, value)

    def summary(self, node_id: int, key: ObjectKey) -> Optional[object]:
        """``node_id``'s cached (possibly stale) summary of a foreign
        object."""
        entry = self.summaries[node_id].get(key)
        return entry[1] if entry else None

    # -- submission --------------------------------------------------------

    def submit(
        self,
        node_id: int,
        key: ObjectKey,
        transaction: Transaction,
        at: Optional[float] = None,
    ) -> None:
        """Initiate at a holder of ``key`` (raises if the node lacks it)."""
        host = self.hosts[node_id]
        if key not in host.node.replicas:
            raise KeyError(f"node {node_id} does not hold {key!r}")

        def fire() -> None:
            txid = self._next_txid
            self._next_txid += 1
            self.records[txid] = host.initiate(txid, transaction, key)

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
                replica = self.nodes[holder].replicas[key]
                reference = groups.setdefault(replica.txids, replica.state)
                if replica.state != reference:
                    return False
        return True

    def summary_view(self, node_id: int) -> Dict[ObjectKey, object]:
        """The node's view of every object: exact substate summaries for
        objects it holds, cached (possibly stale) summaries for the rest
        (None when nothing has been heard yet)."""
        if self.config.summarize is None:
            raise RuntimeError("configure PartialConfig.summarize first")
        replicas = self.nodes[node_id].replicas
        return {
            key: (
                self.config.summarize(replicas[key].state)
                if key in replicas else self.summary(node_id, key)
            )
            for key in self.initial_substates
        }

    # -- history -----------------------------------------------------------

    def extract_execution(
        self, key: ObjectKey, verify: bool = True
    ) -> TimedExecution:
        """The formal execution of one object's transactions.

        Per object, the run is exactly a fully-replicated SHARD run over
        the object's holders, so the single-database theory applies."""
        records = [r for r in self.records.values() if r.group == key]
        return extract_execution(
            self.initial_substates[key], records, verify=verify
        )
