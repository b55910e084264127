"""Synchronized (near-complete-prefix) transactions — mixed-mode operation.

Section 3.2 suggests that some critical transactions — the canonical
example is an *audit* in a banking system — should run with a complete
prefix, and Section 6 asks for a system "in which certain critical
transactions run serializably, while the others run in a highly
available manner".  This module implements that mixed mode on top of the
cluster:

* a synchronized submission first *pulls*: the origin broadcasts a
  ``sync_pull`` and waits for every other node to push what the origin
  is missing;
* when all pushes arrive, the origin merges them and only then runs the
  decision — its prefix now contains every transaction any node had
  issued by its push time;
* if some node is unreachable (partition) the pull times out and the
  transaction is **rejected** — exactly the availability price the paper
  predicts for serializable operation.

The pull is delta-shaped: the ``sync_pull`` carries the keys the origin
holds as a :class:`~repro.replica.log.RunSet`, and each peer pushes
exactly the records of its own runs minus the origin's, not its whole
history.  The difference is exact, so every record the origin lacks is
pushed, and none it holds.

The guarantee is honest rather than absolute: transactions initiated
concurrently with the pull can still land before the synchronized one in
timestamp order, so the achieved deficit is bounded by in-flight
concurrency (measured in the bench) instead of being identically zero.
Compare [S]'s probabilistic concurrency control, which the paper cites
for the same purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..core.transaction import Transaction
from ..gossip import GossipService

#: runs a transaction's decision at a node, now: the owner assigns the
#: txid and calls :meth:`repro.shard.host.NodeHost.initiate`
#: (``ShardCluster.initiate_now`` in the simulator,
#: ``NodeServer.initiate_now`` in the runtime).
ApplyFn = Callable[[int, Transaction], None]

#: message kinds used by the protocol (multiplexed on the cluster's
#: transport next to the broadcast's gossip payloads).
SYNC_PULL = "sync_pull"
SYNC_PUSH = "sync_push"


@dataclass
class SyncStats:
    requested: int = 0
    served: int = 0
    rejected: int = 0
    #: pull latencies of served synchronized transactions.
    latencies: List[float] = field(default_factory=list)
    #: records carried by sync_push replies.
    pushed_records: int = 0

    @property
    def availability(self) -> float:
        return self.served / self.requested if self.requested else 1.0


@dataclass
class _PendingSync:
    origin: int
    transaction: Transaction
    started_at: float
    awaiting: set
    timeout_handle: object


class SyncManager:
    """Drives the pull protocol.

    One manager serves every :class:`~repro.shard.host.NodeHost` that
    shares its gossip service — all N hosts of a simulated
    :class:`~repro.shard.cluster.ShardCluster`, the single host of a
    live :class:`~repro.runtime.node.NodeServer`.  The owner registers
    :meth:`handle` for :data:`SYNC_PULL` and :data:`SYNC_PUSH` in each
    host's ``handlers``.  It is given the gossip service — whose run-sets
    shape the deltas, and whose clock and transport carry the timeouts
    and the pull/push messages — and the owner's submission path for
    the finally-complete decision.
    """

    def __init__(self, broadcast: GossipService, apply: ApplyFn) -> None:
        self.broadcast = broadcast
        self.apply = apply
        self.stats = SyncStats()
        self._pending: Dict[int, _PendingSync] = {}
        self._next_id = 0

    def _members(self) -> Tuple[int, ...]:
        return self.broadcast._targets()

    @property
    def pending_count(self) -> int:
        """Open pulls (leak check: must drain to 0 after every outcome)."""
        return len(self._pending)

    # -- submission ------------------------------------------------------

    def submit(
        self,
        node_id: int,
        transaction: Transaction,
        timeout: float = 10.0,
    ) -> None:
        """Schedule a synchronized submission now (see module docstring)."""

        broadcast = self.broadcast
        clock = broadcast.clock

        def fire() -> None:
            self.stats.requested += 1
            sync_id = self._next_id
            self._next_id += 1
            others = [n for n in self._members() if n != node_id]
            if not others:
                # single node: trivially complete.
                self.apply(node_id, transaction)
                self.stats.served += 1
                self.stats.latencies.append(0.0)
                return
            handle = clock.schedule(
                timeout, lambda: self._on_timeout(sync_id)
            )
            self._pending[sync_id] = _PendingSync(
                origin=node_id,
                transaction=transaction,
                started_at=clock.now,
                awaiting=set(others),
                timeout_handle=handle,
            )
            held = broadcast.held(node_id)
            for other in others:
                broadcast.stats.wire.message(keys=len(held.bounds))
                broadcast.transport.send(
                    node_id, other, (SYNC_PULL, sync_id, node_id, held)
                )

        clock.schedule(0.0, fire)

    # -- message handling ---------------------------------------------------

    def handle(self, node_id: int, src: int, payload: Tuple) -> None:
        kind = payload[0]
        broadcast = self.broadcast
        if kind == SYNC_PULL:
            _, sync_id, origin, theirs = payload
            # delta push: exactly the records the origin's set lacks.
            items = broadcast.records_beyond(node_id, theirs, origin)
            self.stats.pushed_records += len(items)
            broadcast.stats.wire.message(records=len(items))
            broadcast.transport.send(
                node_id, origin, (SYNC_PUSH, sync_id, node_id, items)
            )
        elif kind == SYNC_PUSH:
            _, sync_id, pusher, items = payload
            pending = self._pending.get(sync_id)
            if pending is None:
                return
            broadcast.merge_items(pending.origin, items)
            pending.awaiting.discard(pusher)
            if not pending.awaiting:
                self._complete(sync_id)

    # -- outcomes --------------------------------------------------------------

    def _finish(self, sync_id: int) -> "_PendingSync | None":
        """Single exit path: drop the entry and cancel its timer, so no
        completed pull can leak a pending record or a live handle."""
        pending = self._pending.pop(sync_id, None)
        if pending is not None:
            pending.timeout_handle.cancel()
        return pending

    def _complete(self, sync_id: int) -> None:
        pending = self._finish(sync_id)
        if pending is None:
            return
        self.apply(pending.origin, pending.transaction)
        self.stats.served += 1
        self.stats.latencies.append(
            self.broadcast.clock.now - pending.started_at
        )

    def _on_timeout(self, sync_id: int) -> None:
        if self._finish(sync_id) is None:
            return
        self.stats.rejected += 1
