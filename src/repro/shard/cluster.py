"""The assembled SHARD system: nodes + network + reliable broadcast.

A :class:`ShardCluster` owns the simulator, the partition-aware network,
the broadcast layer and the fully replicated nodes.  Transactions are
submitted to a node at a simulated time; the node runs the decision part
against its local copy immediately (this is the availability story — no
cross-node coordination on the critical path), and the update propagates
via flooding and anti-entropy.

After a run, :meth:`quiesce` heals everything and drains dissemination so
that mutual consistency can be asserted, and
:meth:`extract_execution` rebuilds the paper's formal execution object
from the run for analysis by the core/theorem machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.execution import TimedExecution
from ..core.state import State
from ..core.transaction import Transaction
from ..gossip import GossipConfig, GossipService
from ..network.link import DelayModel, FixedDelay
from ..network.network import Network
from ..network.partition import PartitionSchedule
from ..replica import EngineFactory, UpdateRecord
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


class NodeDownError(RuntimeError):
    """Raised when a transaction is initiated at a crashed node."""

    def __init__(self, node_id: int):
        super().__init__(f"node {node_id} is down")
        self.node_id = node_id


class ShardCluster:
    """A fully replicated SHARD deployment in one simulator: N
    :class:`~repro.shard.host.NodeHost`\\ s sharing one gossip service
    and one sync manager on the simulated clock and network."""

    def __init__(self, initial_state: State, config: Optional[ClusterConfig] = None):
        self.config = config or ClusterConfig()
        if self.config.n_nodes < 1:
            raise ValueError("need at least one node")
        self.initial_state = initial_state
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
                {None: initial_state},
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
            for node_id in range(self.config.n_nodes)
        ]
        self.nodes: List[ShardNode] = [host.node for host in self.hosts]
        self.broadcast.start_anti_entropy()
        self._next_txid = 0
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

    def initiate_now(self, node_id: int, transaction: Transaction) -> None:
        """Run a transaction's decision at ``node_id`` immediately (no
        scheduling): assign a txid, record externals, publish the update.

        Raises :class:`NodeDownError` if the node has crashed; callers
        modeling client behavior should catch it (``submit`` does, and
        counts the rejection)."""
        host = self.hosts[node_id]
        if not host.node.online:
            raise NodeDownError(node_id)
        txid = self._next_txid
        self._next_txid += 1
        self.records[txid] = host.initiate(txid, transaction)

    def submit(
        self,
        node_id: int,
        transaction: Transaction,
        at: Optional[float] = None,
    ) -> None:
        """Schedule ``transaction`` to be initiated at ``node_id`` at
        simulated time ``at`` (default: now)."""
        def fire() -> None:
            try:
                self.initiate_now(node_id, transaction)
            except NodeDownError:
                self.rejected_submissions += 1

        self.sim.schedule_at(self.sim.now if at is None else at, fire)

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
        over nodes — the deterministic core every benchmark row (perf
        cells, workload leaderboard) reports, computed one way."""
        stats = [node.merge.stats for node in self.nodes]
        costs = [node.merge.cost_stats for node in self.nodes]
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
            "final_cost": self.nodes[0].merge.state_cost,
        }

    # -- invariants -----------------------------------------------------------------

    def mutually_consistent(self) -> bool:
        """Do all nodes with equal logs hold equal states?  After
        :meth:`quiesce`, all logs are equal, so all states must be.

        Nodes are grouped by log content and compared pairwise within
        each group — comparing only against node 0 would let two
        divergent nodes slip through whenever node 0's log differs from
        both of theirs."""
        groups: Dict[frozenset, State] = {}
        for node in self.nodes:
            reference = groups.setdefault(node.known_txids, node.state)
            if node.state != reference:
                return False
        return True

    def converged(self) -> bool:
        return self.broadcast.converged()

    @property
    def states(self) -> Tuple[State, ...]:
        return tuple(node.state for node in self.nodes)

    # -- history ------------------------------------------------------------------------

    def extract_execution(self, verify: bool = True) -> TimedExecution:
        """The formal execution of this run (see :mod:`repro.shard.history`)."""
        return extract_execution(
            self.initial_state, self.records.values(), verify=verify
        )
