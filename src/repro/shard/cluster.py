"""The assembled SHARD system: nodes + network + reliable broadcast.

A :class:`ShardCluster` owns the simulator, the partition-aware network,
the broadcast layer and the nodes.  Transactions are submitted to a node
at a simulated time; the node runs the decision part against its local
copy immediately (this is the availability story — no cross-node
coordination on the critical path), and the update propagates via
flooding and anti-entropy.

Every node is a full replica unless :attr:`ClusterConfig.placement`
gives it named objects (Section 6's partial replication); per object, a
run is then a fully replicated run over the object's holders.

After a run, :meth:`quiesce` heals everything and drains dissemination so
that mutual consistency can be asserted, and
:meth:`extract_execution` rebuilds the paper's formal execution object
from the run for analysis by the core/theorem machinery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..core.execution import TimedExecution
from ..core.state import State
from ..core.transaction import Transaction
from ..gossip import GossipConfig, GossipService
from ..network.link import DelayModel, FixedDelay
from ..network.network import Network
from ..network.partition import PartitionSchedule
from ..replica import EngineFactory, Replica, UpdateRecord
from ..sim.engine import Simulator
from ..sim.rng import SeededStreams
from ..sim.trace import NULL_TRACER, Tracer
from .agent import TOKEN_GRANT, TOKEN_REQUEST, TokenAgent
from .external import ExternalLedger
from .history import extract_execution
from .host import NodeHost
from .node import ShardNode
from .sync import SYNC_PULL, SYNC_PUSH, SyncManager


@dataclass
class ClusterConfig:
    n_nodes: int = 3
    seed: int = 0
    delay: Optional[DelayModel] = None
    partitions: Optional[PartitionSchedule] = None
    loss_probability: float = 0.0
    broadcast: Optional[GossipConfig] = None
    #: per-node merge engine; ``None`` is the replica layer's default.
    merge_factory: Optional[EngineFactory] = None
    tracer: Optional[Tracer] = None
    #: node id -> the groups (objects) it holds; ``None``: full replicas
    #: of group ``None``.  It must place nodes ``0 .. n_nodes - 1`` (else
    #: ``ValueError``), and the cluster then takes ``{group: State}``.
    placement: Optional[Mapping[int, FrozenSet[object]]] = None


#: txids per group: the i-th of ``initial_states`` draws from i * this.
GROUP_TXIDS = 10**9


class NodeDownError(RuntimeError):
    """Raised when a transaction is initiated at a crashed node."""

    def __init__(self, node_id: int):
        super().__init__(f"node {node_id} is down")
        self.node_id = node_id


class ShardCluster:
    """A SHARD deployment in one simulator: N placed
    :class:`~repro.shard.host.NodeHost`\\ s sharing one gossip service
    and one sync manager on the simulated clock and network."""

    def __init__(self, initial_state, config: Optional[ClusterConfig] = None):
        self.config = config or ClusterConfig()
        n_nodes = self.config.n_nodes
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.initial_state = initial_state  # or {group: State}
        placement = self.config.placement
        if placement is None:
            self.initial_states: Dict[object, State] = {None: initial_state}
            placement = dict.fromkeys(range(n_nodes), {None})
        elif set(placement) != set(range(n_nodes)):
            raise ValueError("placement must place nodes 0 .. n_nodes - 1")
        else:
            self.initial_states = dict(initial_state)
        for node_id, groups in placement.items():
            if groups - self.initial_states.keys():
                raise ValueError(f"node {node_id} placed for unknown objects")
        self.sim = Simulator()
        self.streams = SeededStreams(self.config.seed)
        # note: Tracer defines __len__, so an empty tracer is falsy —
        # test identity, not truthiness.
        self.tracer = (
            self.config.tracer if self.config.tracer is not None
            else NULL_TRACER
        )
        self.network = Network(
            self.sim,
            delay=self.config.delay or FixedDelay(1.0),
            partitions=self.config.partitions
            or PartitionSchedule.always_connected(),
            loss_probability=self.config.loss_probability,
            rng=self.streams.stream("network"),
        )
        self.broadcast = GossipService(
            self.sim,
            self.network,
            self.config.broadcast or GossipConfig(),
            rng=self.streams.stream("gossip"),
        )
        self.ledger = ExternalLedger()
        self.sync = SyncManager(self.broadcast, apply=self.initiate_now)
        self.agents: Dict[str, TokenAgent] = {}
        self.hosts: List[NodeHost] = [
            NodeHost(
                node_id,
                {group: self.initial_states[group]
                 for group in sorted(placement[node_id])},
                broadcast=self.broadcast,
                trace=self._trace,
                merge_factory=self.config.merge_factory,
                ledger=self.ledger,
                handlers={
                    SYNC_PULL: self.sync.handle,
                    SYNC_PUSH: self.sync.handle,
                    TOKEN_REQUEST: self._on_token,
                    TOKEN_GRANT: self._on_token,
                },
            )
            for node_id in range(n_nodes)
        ]
        self.nodes: List[ShardNode] = [host.node for host in self.hosts]
        self.broadcast.start_anti_entropy()
        #: group -> its next txid: consecutive per group, so a seen-set
        #: stays a few runs under any placement (group ``None``: 0, 1, ...).
        self._next_txid: Dict[object, int] = {
            group: i * GROUP_TXIDS
            for i, group in enumerate(self.initial_states)
        }
        self.records: Dict[int, UpdateRecord] = {}
        self.rejected_submissions = 0
        self.broadcast.active_filter = lambda n: self.nodes[n].online

    def _trace(self, kind: str, node: Optional[int] = None, **detail) -> None:
        """The single guarded path to the tracer: every event the cluster
        emits goes through here, so enabling/disabling is uniform."""
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, kind, node, **detail)

    def _on_token(self, node_id: int, src: int, payload: Tuple) -> None:
        self.agents[payload[1]].handle(node_id, src, payload)

    # -- submission ----------------------------------------------------------

    def _require_holder(self, node_id: int, group: object) -> NodeHost:
        host = self.hosts[node_id]
        if group not in host.node.replicas:
            raise KeyError(f"node {node_id} does not hold {group!r}")
        return host

    def initiate_now(
        self, node_id: int, transaction: Transaction, group: object = None
    ) -> None:
        """Run a transaction's decision at ``node_id`` immediately (no
        scheduling): assign a txid, record externals, publish the update.

        Raises ``KeyError`` (``group`` not held) or :class:`NodeDownError`
        before drawing a txid; ``submit`` counts the latter rejected."""
        host = self._require_holder(node_id, group)
        if not host.node.online:
            raise NodeDownError(node_id)
        txid = self._next_txid[group]
        self._next_txid[group] += 1
        self.records[txid] = host.initiate(txid, transaction, group)

    def submit(
        self, node_id: int, transaction: Transaction,
        at: Optional[float] = None, group: object = None,
    ) -> None:
        """Schedule ``transaction`` on ``group`` at ``node_id`` for time
        ``at`` (default: now); ``KeyError`` now if ``group`` is not held."""
        self._require_holder(node_id, group)

        def fire() -> None:
            try:
                self.initiate_now(node_id, transaction, group)
            except NodeDownError:
                self.rejected_submissions += 1

        self.sim.schedule_at(self.sim.now if at is None else at, fire)

    def holders(self, group: object) -> Tuple[int, ...]:
        return tuple(
            node_id for node_id, node in enumerate(self.nodes)
            if group in node.replicas
        )

    def route_submit(
        self, group: object, transaction: Transaction,
        rng: random.Random, at: Optional[float] = None,
    ) -> int:
        """Submit at a uniformly chosen holder of ``group``; returns it."""
        holders = self.holders(group)
        if not holders:
            raise KeyError(f"no node holds object {group!r}")
        node_id = rng.choice(holders)
        self.submit(node_id, transaction, at=at, group=group)
        return node_id

    def submit_synchronized(
        self,
        node_id: int,
        transaction: Transaction,
        timeout: float = 10.0,
    ) -> None:
        """Mixed-mode operation (Sections 3.2, 6): run this transaction
        with a (near-)complete prefix by first pulling every node's known
        set; rejected if some node is unreachable within ``timeout``.
        See :mod:`repro.shard.sync`."""
        self.sync.submit(node_id, transaction, timeout=timeout)

    def schedule_crash(self, node_id: int, start: float, end: float) -> None:
        """Fail-stop the node during [start, end): it neither initiates
        nor receives, then recovers with its log intact and catches up
        through anti-entropy."""
        if end <= start:
            raise ValueError("crash interval must have positive length")
        node = self.nodes[node_id]

        def crash() -> None:
            node.online = False
            self._trace("crash", node_id)

        def recover() -> None:
            node.online = True
            self._trace("recover", node_id)

        self.sim.schedule_at(start, crash)
        self.sim.schedule_at(end, recover)

    def create_agent(
        self,
        name: str = "agent",
        home: int = 0,
        policy: str = "block",
        timeout: float = 10.0,
    ) -> TokenAgent:
        """Create a token-based centralized agent for a transaction
        group (see :mod:`repro.shard.agent`)."""
        if name in self.agents:
            raise ValueError(f"agent {name!r} already exists")
        agent = TokenAgent(
            self, name=name, home=home, policy=policy, timeout=timeout
        )
        self.agents[name] = agent
        return agent

    # -- running ----------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def quiesce(self) -> None:
        """Drain in-flight work, then exchange logs directly until every
        node knows every update (models post-healing anti-entropy)."""
        self.broadcast.stop_anti_entropy()
        self.sim.run()
        self.broadcast.settle()

    # -- counters -------------------------------------------------------------------

    def merge_counters(self) -> Dict[str, object]:
        """The merge-engine and cost-cache work of the whole run, summed
        over every replica — the deterministic core every benchmark row
        (perf cells, workload leaderboard) reports, computed one way.
        ``final_cost`` sums each object's cost at its first holder."""
        views = [replica.engine for _, replica in self._replicas()]
        stats = [view.stats for view in views]
        costs = [view.cost_stats for view in views]
        first = dict(reversed(self._replicas()))  # each group's first holder
        inserts = sum(s.inserts for s in stats)
        fastpath = sum(s.fastpath_hits for s in stats)
        hits = sum(c.hits for c in costs)
        evaluations = sum(c.evaluations for c in costs)
        return {
            "log_length": len(self.records),
            "inserts": inserts,
            "updates_applied": sum(s.updates_applied for s in stats),
            "fastpath_hits": fastpath,
            "fastpath_rate": round(fastpath / inserts, 4) if inserts else 0.0,
            "undo_redo_merges": sum(s.undo_redo_merges for s in stats),
            "certified_hits": sum(s.certified_hits for s in stats),
            "batch_merges": sum(s.batch_merges for s in stats),
            "batched_inserts": sum(s.batched_inserts for s in stats),
            "cost_evaluations": evaluations,
            "cost_hits": hits,
            "cost_hit_rate": (
                round(hits / (hits + evaluations), 4)
                if hits + evaluations else 0.0
            ),
            "final_cost": sum(r.engine.state_cost for r in first.values()),
        }

    # -- invariants -----------------------------------------------------------------

    def mutually_consistent(self) -> bool:
        """Do all replicas of an object with equal logs hold equal
        states?  After :meth:`quiesce`, all logs are equal, so all states
        must be."""
        return not self.disagreements()

    def disagreements(self) -> Tuple[object, ...]:
        """The objects whose replicas with equal logs (txid runs) hold
        unequal states; two divergent replicas cannot hide behind a
        third."""
        logs: Dict[Tuple[object, Tuple[int, ...]], State] = {}
        out: List[object] = []
        for group, replica in self._replicas():
            key = (group, replica.txids.bounds)
            reference = logs.setdefault(key, replica.state)
            if replica.state != reference and group not in out:
                out.append(group)
        return tuple(out)

    def converged(self) -> bool:
        return self.broadcast.converged()

    def missing_counts(self) -> Dict[int, int]:
        return self.broadcast.missing_counts()

    def _replicas(self) -> List[Tuple[object, Replica]]:
        """``(group, replica)`` for every replica, node by node."""
        return [item for node in self.nodes for item in node.replicas.items()]

    @property
    def states(self) -> Tuple[State, ...]:
        """Every replica's state, node by node."""
        return tuple(replica.state for _, replica in self._replicas())

    # -- history ------------------------------------------------------------------------

    def extract_execution(
        self, group: object = None, verify: bool = True
    ) -> TimedExecution:
        """The formal execution of ``group``'s transactions — the whole
        run's under full replication (see :mod:`repro.shard.history`)."""
        return extract_execution(
            self.initial_states[group],
            [r for r in self.records.values() if r.group == group],
            verify=verify,
        )
