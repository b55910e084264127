"""A SHARD node: a full replica processing transactions locally.

Each node's storage is a :class:`repro.replica.Replica`: the canonical
timestamp-ordered log plus a merge view materializing its fold.
Initiating a transaction runs the decision part *once*, against the
node's current (possibly stale) state; the resulting update is
timestamped, applied locally (an in-order tail append — the fast path)
and handed to the broadcast layer.  Remote updates are merged wherever
their timestamp lands, with undo/redo restoring the
everything-in-order invariant — there is no other inter-node concurrency
control, exactly as Section 1.2 describes.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from ..core.state import State
from ..core.transaction import Transaction
from ..replica import EngineFactory, LamportClock, Replica, UpdateRecord
from .external import ExternalLedger


class ShardNode:
    """One replica of the database."""

    def __init__(
        self,
        node_id: int,
        initial_state: State,
        merge_factory: Optional[EngineFactory] = None,
        ledger: Optional[ExternalLedger] = None,
    ):
        self.node_id = node_id
        self.clock = LamportClock(node_id)
        self.replica = Replica(initial_state, engine_factory=merge_factory)
        self.ledger = ledger if ledger is not None else ExternalLedger()
        self.transactions_initiated = 0
        #: crash-failure flag: an offline node neither initiates nor
        #: receives; it recovers with its log intact (fail-stop model).
        self.online = True

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
    def known_txids(self) -> FrozenSet[int]:
        return self.replica.txids

    def initiate(
        self,
        txid: int,
        transaction: Transaction,
        now: float,
    ) -> UpdateRecord:
        """Run a transaction's decision part here and now.

        Performs the external actions (records them on the ledger),
        timestamps and locally applies the update, and returns the record
        for the broadcast layer to disseminate.
        """
        seen = self.known_txids
        decision = transaction.decide(self.state)
        self.ledger.record(now, self.node_id, txid, tuple(decision.external_actions))
        record = UpdateRecord(
            ts=self.clock.issue(),
            txid=txid,
            transaction=transaction,
            update=decision.update,
            origin=self.node_id,
            real_time=now,
            seen_txids=seen,
        )
        self.replica.ingest(record)
        self.transactions_initiated += 1
        return record

    def receive(self, record: UpdateRecord) -> bool:
        """Merge a remotely initiated record; returns False on duplicate."""
        self.clock.observe(record.ts)
        return self.replica.ingest(record) is not None

    def receive_batch(self, records) -> tuple:
        """Merge a batch of remotely obtained records (a gossip DELTA)
        in one undo/redo cycle; returns the records actually inserted
        (duplicates dropped)."""
        for record in records:
            self.clock.observe(record.ts)
        inserted, _outcome = self.replica.ingest_batch(records)
        return inserted
