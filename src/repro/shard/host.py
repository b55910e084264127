"""The one node assembly: a :class:`ShardNode` wired to its ports.

The paper has exactly one kind of node — a replica that runs the
decision part locally, timestamps the update, hands it to reliable
broadcast and merges what arrives by undo/redo (Sections 1.2, 3.3).  A
:class:`NodeHost` is that node's wiring, written once and knowing its
environment only as the :mod:`repro.ports` adapters its gossip service
was given: the simulator's
:class:`~repro.shard.cluster.ShardCluster` is N hosts, each holding a
full replica or, under a placement, the replicas of its objects,
sharing one gossip service on the simulated clock and network, and the
live :class:`~repro.runtime.node.NodeServer` is one host on the
asyncio clock and the TCP transport.  Everything the environments must
agree on lives here and nowhere else: how a node is built, what each
merge outcome is called in the trace, what a delivery is, which
protocol a payload belongs to, and what initiating a transaction means.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Tuple

from ..core.state import State
from ..core.transaction import Transaction
from ..gossip import GOSSIP_KINDS, GossipService
from ..replica import EngineFactory, MergeOutcome, UpdateRecord
from .external import ExternalLedger
from .node import ShardNode

#: the host's trace sink: ``(kind, node, **detail)``; the owner stamps
#: the time and decides where events go (tracer, history file, nowhere).
TraceFn = Callable[..., None]

#: an extra protocol multiplexed on the node's transport slot:
#: ``(node_id, src, payload)``, selected by the payload's kind.
KindHandler = Callable[[int, int, Tuple], None]


def _seen_txids(key: object, record: UpdateRecord):
    """Digest rumors stand in for the full-set piggyback; gating each
    delivery on the record's seen-set is what preserves the Section 3.3
    transitivity guarantee under delta gossip."""
    return record.seen_txids


class NodeHost:
    """One SHARD node holding ``initial_states``' groups (``{None: s}``:
    a full replica), attached to a gossip service that may be shared
    between hosts; other protocols are the owner's per-kind ``handlers``."""

    def __init__(
        self,
        node_id: int,
        initial_states: Mapping[object, State],
        *,
        broadcast: GossipService,
        trace: TraceFn,
        merge_factory: Optional[EngineFactory] = None,
        ledger: Optional[ExternalLedger] = None,
        handlers: Optional[Mapping[str, KindHandler]] = None,
    ):
        self.node_id = node_id
        self.broadcast = broadcast
        self.trace = trace
        self.handlers = dict(handlers or {})
        self.node = ShardNode(
            node_id, initial_states, merge_factory=merge_factory, ledger=ledger
        )
        for replica in self.node.replicas.values():
            replica.on_merge = self._on_merge
        # hosts sharing one service install the same hooks again.
        broadcast.depends_on = _seen_txids
        broadcast.on_event = trace
        groups = frozenset(self.node.replicas)
        broadcast.attach(
            node_id, self._deliver_batch, None if groups == {None} else groups
        )
        broadcast.transport.register(node_id, self.dispatch)

    # -- merging ----------------------------------------------------------

    def _on_merge(self, outcome: MergeOutcome) -> None:
        """Name every merge the replica performs: tail fast-path hits,
        certified skips, and undo/redo repairs with their displacement."""
        if outcome.added > 1:
            self.trace(
                "merge_batch", self.node_id,
                count=outcome.added,
                displacement=outcome.displacement,
                replayed=outcome.replayed,
            )
        elif outcome.fastpath:
            self.trace("merge_fastpath", self.node_id)
        elif outcome.certified:
            self.trace(
                "merge_certified", self.node_id,
                displacement=outcome.displacement,
                skipped=outcome.skipped,
            )
        else:
            self.trace(
                "merge_undo", self.node_id,
                displacement=outcome.displacement,
                replayed=outcome.replayed,
            )

    def _deliver_batch(self, batch: tuple) -> None:
        """Everything one gossip merge released, in one undo/redo cycle
        per group, but still one ``deliver`` event per inserted record so
        the exactly-once oracles see each of them."""
        records = [item for _key, item in batch]
        for record in self.node.receive_batch(records):
            self.trace(
                "deliver", self.node_id,
                txid=record.txid, origin=record.origin,
            )

    # -- inbound ----------------------------------------------------------

    def dispatch(self, src: int, payload: Tuple) -> None:
        """Multiplex the protocols sharing the node's transport slot; a
        kind nobody registered raises ``ValueError``."""
        if not self.node.online:
            return  # crashed nodes drop everything on the floor
        kind = payload[0]
        if kind in GOSSIP_KINDS:
            self.broadcast.receive(self.node_id, payload, src=src)
            return
        handler = self.handlers.get(kind)
        if handler is None:
            raise ValueError(f"unknown payload kind {kind!r}")
        handler(self.node_id, src, payload)

    # -- submission -------------------------------------------------------

    def initiate(
        self, txid: int, transaction: Transaction, group: object = None
    ) -> UpdateRecord:
        """The availability path: decide against the local copy now,
        then publish the update; no other node is consulted."""
        record = self.node.initiate(
            txid, transaction, self.broadcast.clock.now, group
        )
        self.trace(
            "initiate", self.node_id,
            txid=txid, family=transaction.name,
            seen=len(record.seen_txids),
        )
        self.broadcast.publish(self.node_id, txid, record)
        return record
