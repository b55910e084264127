"""A SHARD node: replicas processing transactions locally.

A node holds one :class:`repro.replica.Replica` (the canonical
timestamp-ordered log plus a merge view materializing its fold) per
group, under one Lamport clock: full replication is the one-group case
``{None: state}``, partial replication (Section 6) one group per object
placed on the node.  Initiating a transaction runs the decision part
*once*, against the group's current (possibly stale) state; the update
is timestamped, applied locally (an in-order tail append — the fast
path) and handed to the broadcast layer.  Remote updates are observed
by the clock on delivery and merged wherever their timestamp lands,
with undo/redo restoring the everything-in-order invariant — there is
no other inter-node concurrency control, exactly as Section 1.2 says.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..core.state import State
from ..core.transaction import Transaction
from ..replica import (
    EngineFactory,
    LamportClock,
    Replica,
    RunSet,
    UpdateRecord,
)
from .external import ExternalLedger


class ShardNode:
    """One node: a replica per held group, under one Lamport clock."""

    def __init__(
        self,
        node_id: int,
        initial_states: Mapping[object, State],
        merge_factory: Optional[EngineFactory] = None,
        ledger: Optional[ExternalLedger] = None,
    ):
        self.node_id = node_id
        self.clock = LamportClock(node_id)
        self.replicas: Dict[object, Replica] = {
            group: Replica(state, engine_factory=merge_factory)
            for group, state in initial_states.items()
        }
        self.ledger = ledger if ledger is not None else ExternalLedger()
        self.transactions_initiated = 0
        #: crash-failure flag: an offline node neither initiates nor
        #: receives; it recovers with its log intact (fail-stop model).
        self.online = True

    @property
    def replica(self) -> Replica:
        """The full-replication replica (the ``None`` group's)."""
        return self.replicas[None]

    @property
    def log(self):
        """The node's canonical timestamp-ordered log."""
        return self.replica.log

    @property
    def merge(self):
        """The merge view materializing the log (stats live here)."""
        return self.replica.engine

    @property
    def state(self) -> State:
        """The node's current database copy (its log in timestamp order)."""
        return self.replica.state

    @property
    def known_txids(self) -> RunSet:
        return self.replica.txids

    def initiate(
        self,
        txid: int,
        transaction: Transaction,
        now: float,
        group: object = None,
    ) -> UpdateRecord:
        """Run a transaction's decision part here and now, against the
        replica of ``group`` (``KeyError`` if the node does not hold it).

        Performs the external actions (records them on the ledger),
        timestamps and locally applies the update, and returns the record
        for the broadcast layer to disseminate.
        """
        replica = self.replicas[group]
        # the replica's txids as runs: O(runs), not a copy of the log.
        seen = replica.txids
        decision = transaction.decide(replica.state)
        self.ledger.record(now, self.node_id, txid, tuple(decision.external_actions))
        record = UpdateRecord(
            ts=self.clock.issue(),
            txid=txid,
            transaction=transaction,
            update=decision.update,
            origin=self.node_id,
            real_time=now,
            seen_txids=seen,
            group=group,
        )
        replica.ingest(record)
        self.transactions_initiated += 1
        return record

    def receive_batch(self, records) -> tuple:
        """Merge delivered records (a gossip DELTA): observe every
        timestamp, then one undo/redo cycle per group held; returns the
        records actually inserted (duplicates dropped, as are records of
        groups not held here)."""
        by_group: Dict[object, list] = {}
        for record in records:
            self.clock.observe(record.ts)
            by_group.setdefault(record.group, []).append(record)
        inserted = ()
        for group, batch in by_group.items():
            if group in self.replicas:
                inserted += self.replicas[group].ingest_batch(batch)[0]
        return inserted
