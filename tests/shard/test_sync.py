"""Tests for synchronized (mixed-mode) transactions."""

from repro.apps.banking import (
    AUDIT_REPORT,
    Audit,
    Deposit,
    INITIAL_BANK_STATE,
)
from repro.apps.airline import AirlineState, MoveUp, Request
from repro.gossip import GossipConfig
from repro.network import FixedDelay, PartitionSchedule
from repro.shard import ClusterConfig, ShardCluster


def quiet_broadcast():
    # no flooding, glacial gossip: nodes only learn through the sync pull.
    return GossipConfig(flood=False, anti_entropy_interval=1e9)


class TestSyncProtocol:
    def test_sync_transaction_sees_everything(self):
        cluster = ShardCluster(
            INITIAL_BANK_STATE,
            ClusterConfig(n_nodes=3, broadcast=quiet_broadcast()),
        )
        cluster.submit(1, Deposit("alice", 10), at=0.0)
        cluster.submit(2, Deposit("alice", 20), at=0.0)
        # a plain audit at node 0 would see nothing (no dissemination);
        # a synchronized audit pulls everything first.
        cluster.sim.schedule_at(
            5.0, lambda: cluster.submit_synchronized(0, Audit())
        )
        cluster.quiesce()
        assert cluster.sync.stats.served == 1
        assert cluster.sync.stats.rejected == 0
        reports = [
            entry.action.payload[0]
            for entry in cluster.ledger
            if entry.action.kind == AUDIT_REPORT
        ]
        assert reports == [30]

    def test_plain_audit_misses_without_dissemination(self):
        cluster = ShardCluster(
            INITIAL_BANK_STATE,
            ClusterConfig(n_nodes=3, broadcast=quiet_broadcast()),
        )
        cluster.submit(1, Deposit("alice", 10), at=0.0)
        cluster.submit(0, Audit(), at=5.0)
        cluster.quiesce()
        reports = [
            entry.action.payload[0]
            for entry in cluster.ledger
            if entry.action.kind == AUDIT_REPORT
        ]
        assert reports == [0]

    def test_partition_rejects_sync_transaction(self):
        partitions = PartitionSchedule.split(0, 100, [0], [1, 2])
        cluster = ShardCluster(
            INITIAL_BANK_STATE,
            ClusterConfig(n_nodes=3, partitions=partitions),
        )
        cluster.sim.schedule_at(
            1.0, lambda: cluster.submit_synchronized(0, Audit(), timeout=5.0)
        )
        cluster.run(until=20.0)
        assert cluster.sync.stats.rejected == 1
        assert cluster.sync.stats.served == 0
        assert cluster.sync.stats.availability == 0.0

    def test_sync_latency_recorded(self):
        cluster = ShardCluster(
            INITIAL_BANK_STATE,
            ClusterConfig(n_nodes=3, delay=FixedDelay(2.0)),
        )
        cluster.sim.schedule_at(
            0.0, lambda: cluster.submit_synchronized(0, Audit())
        )
        cluster.quiesce()
        assert cluster.sync.stats.latencies == [4.0]  # pull round trip

    def test_single_node_trivially_complete(self):
        cluster = ShardCluster(INITIAL_BANK_STATE, ClusterConfig(n_nodes=1))
        cluster.submit(0, Deposit("a", 5), at=0.0)
        cluster.sim.schedule_at(
            1.0, lambda: cluster.submit_synchronized(0, Audit())
        )
        cluster.quiesce()
        assert cluster.sync.stats.served == 1
        assert cluster.sync.stats.latencies == [0.0]

    def test_sync_transaction_has_complete_prefix_in_execution(self):
        cluster = ShardCluster(
            AirlineState(),
            ClusterConfig(n_nodes=3, broadcast=quiet_broadcast()),
        )
        for i in range(6):
            cluster.submit(i % 3, Request(f"P{i}"), at=float(i))
        cluster.sim.schedule_at(
            10.0, lambda: cluster.submit_synchronized(0, MoveUp(10))
        )
        cluster.quiesce()
        e = cluster.extract_execution()
        mover_index = next(
            i for i in e.indices if e.transactions[i].name == "MOVE_UP"
        )
        # the synchronized MOVE_UP saw every one of the 6 requests, even
        # though nothing else disseminated.
        assert e.deficit(mover_index) == 0

    def test_pending_entries_drain_after_service(self):
        """The leak fix: served pulls drop their pending record and
        cancel the timeout handle (no stray timer events remain)."""
        cluster = ShardCluster(
            INITIAL_BANK_STATE,
            ClusterConfig(n_nodes=3, broadcast=quiet_broadcast()),
        )
        cluster.sim.schedule_at(
            0.0, lambda: cluster.submit_synchronized(0, Audit())
        )
        cluster.quiesce()
        assert cluster.sync.stats.served == 1
        assert cluster.sync.pending_count == 0
        assert cluster.sim.pending == 0

    def test_pending_entries_drain_after_rejection(self):
        partitions = PartitionSchedule.split(0, 100, [0], [1, 2])
        cluster = ShardCluster(
            INITIAL_BANK_STATE,
            ClusterConfig(
                n_nodes=3,
                partitions=partitions,
                broadcast=quiet_broadcast(),
            ),
        )
        cluster.sim.schedule_at(
            1.0, lambda: cluster.submit_synchronized(0, Audit(), timeout=5.0)
        )
        cluster.run(until=20.0)
        assert cluster.sync.stats.rejected == 1
        assert cluster.sync.pending_count == 0

    def test_digest_pull_pushes_fewer_records_than_full(self):
        """The delta-shaped pull: peers ship only what the origin's
        run-set lacks, yet the audit still sees everything."""
        cluster = ShardCluster(
            INITIAL_BANK_STATE,
            ClusterConfig(
                n_nodes=3,
                broadcast=GossipConfig(anti_entropy_interval=1e9),
            ),
        )
        for i in range(10):
            cluster.submit(i % 3, Deposit("alice", 1), at=float(i))
        whole_sets = []

        def pull():
            # what a whole-set push would ship: both peers' known sets.
            whole_sets.extend(
                len(cluster.broadcast.known_keys(n)) for n in (1, 2)
            )
            cluster.submit_synchronized(0, Audit())

        cluster.sim.schedule_at(20.0, pull)
        cluster.quiesce()
        assert cluster.sync.stats.served == 1
        report = [
            entry.action.payload[0]
            for entry in cluster.ledger
            if entry.action.kind == AUDIT_REPORT
        ]
        assert report == [10]
        # flooding keeps nodes in sync, so the exact pull has nothing
        # left to ship next to both peers' whole known sets.
        assert whole_sets == [10, 10]
        assert cluster.sync.stats.pushed_records == 0

    def test_mixed_mode_costs(self):
        """A synchronized MOVE_UP never overbooks even when plain movers
        would, because its pulled view is complete."""
        from repro.apps.airline import make_airline_application

        app = make_airline_application(capacity=1)
        cluster = ShardCluster(
            AirlineState(),
            ClusterConfig(n_nodes=2, broadcast=quiet_broadcast()),
        )
        cluster.submit(0, Request("A"), at=0.0)
        cluster.submit(1, Request("B"), at=0.0)
        cluster.sim.schedule_at(
            2.0, lambda: cluster.submit_synchronized(0, MoveUp(1))
        )
        cluster.sim.schedule_at(
            8.0, lambda: cluster.submit_synchronized(1, MoveUp(1))
        )
        cluster.quiesce()
        e = cluster.extract_execution()
        assert max(app.cost(s, "overbooking") for s in e.actual_states) == 0
