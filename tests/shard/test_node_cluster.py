"""Tests for SHARD nodes and the assembled cluster."""

import dataclasses

import pytest

from repro.apps.airline import (
    AirlineState,
    Cancel,
    MoveUp,
    Request,
)
from repro.core import InvalidExecutionError
from repro.network import PartitionSchedule
from repro.replica import InitialOnlyPolicy, policy_engine_factory
from repro.shard import ClusterConfig, ShardCluster, ShardNode
from repro.shard.history import extract_execution


class TestShardNode:
    def test_initiate_applies_locally(self):
        node = ShardNode(0, {None: AirlineState()})
        node.initiate(0, Request("P1"), now=0.0)
        assert node.state == AirlineState((), ("P1",))
        assert node.transactions_initiated == 1

    def test_initiate_records_seen_set(self):
        node = ShardNode(0, {None: AirlineState()})
        r1 = node.initiate(0, Request("P1"), now=0.0)
        r2 = node.initiate(1, Request("P2"), now=1.0)
        assert r1.seen_txids == frozenset()
        assert r2.seen_txids == frozenset({0})

    def test_external_actions_on_ledger(self):
        node = ShardNode(0, {None: AirlineState()})
        node.initiate(0, Request("P1"), now=0.0)
        node.initiate(1, MoveUp(5), now=1.0)
        assert node.ledger.count("inform_assigned") == 1

    def test_receive_merges_in_timestamp_order(self):
        a = ShardNode(0, {None: AirlineState()})
        b = ShardNode(1, {None: AirlineState()})
        ra = a.initiate(0, Request("P1"), now=0.0)
        rb = b.initiate(1, Request("P2"), now=0.0)
        # cross-deliver in both orders; states must agree.
        assert a.receive_batch([rb])
        assert b.receive_batch([ra])
        assert a.state == b.state
        # both have counter 1; tie broken by node id: P1 (node 0) first.
        assert a.state == AirlineState((), ("P1", "P2"))

    def test_receive_duplicate_is_noop(self):
        a = ShardNode(0, {None: AirlineState()})
        b = ShardNode(1, {None: AirlineState()})
        record = a.initiate(0, Request("P1"), now=0.0)
        assert b.receive_batch([record])
        assert not b.receive_batch([record])
        assert b.state == AirlineState((), ("P1",))

    def test_lamport_ordering_across_nodes(self):
        a = ShardNode(0, {None: AirlineState()})
        b = ShardNode(1, {None: AirlineState()})
        ra = a.initiate(0, Request("P1"), now=0.0)
        b.receive_batch([ra])
        rb = b.initiate(1, Request("P2"), now=1.0)
        assert rb.ts > ra.ts  # b observed a's timestamp first


class TestShardCluster:
    def test_submission_and_convergence(self):
        cluster = ShardCluster(AirlineState(), ClusterConfig(n_nodes=3))
        cluster.submit(0, Request("P1"), at=0.0)
        cluster.submit(1, Request("P2"), at=0.5)
        cluster.submit(2, MoveUp(5), at=3.0)
        cluster.quiesce()
        assert cluster.converged()
        assert cluster.mutually_consistent()
        states = cluster.states
        assert all(s == states[0] for s in states)
        assert states[0].al == 1

    def test_partition_divergence_then_heal(self):
        partitions = PartitionSchedule.split(0, 50, [0], [1, 2])
        cluster = ShardCluster(
            AirlineState(),
            ClusterConfig(n_nodes=3, partitions=partitions),
        )
        cluster.submit(0, Request("A"), at=5.0)
        cluster.submit(1, Request("B"), at=5.0)
        cluster.run(until=20.0)
        # during the partition, node 0 and node 1 disagree.
        assert cluster.nodes[0].state != cluster.nodes[1].state
        cluster.run(until=60.0)
        cluster.quiesce()
        assert cluster.mutually_consistent()
        final = cluster.nodes[0].state
        assert set(final.waiting) == {"A", "B"}

    def test_extract_execution_validates(self):
        cluster = ShardCluster(AirlineState(), ClusterConfig(n_nodes=2))
        for i in range(5):
            cluster.submit(i % 2, Request(f"P{i}"), at=float(i))
        cluster.submit(0, MoveUp(3), at=10.0)
        cluster.quiesce()
        execution = cluster.extract_execution()
        execution.validate()
        assert len(execution) == 6
        # the final actual state of the formal execution equals every
        # node's converged database copy.
        assert execution.final_state == cluster.nodes[0].state

    def test_naive_merge_cluster_agrees_with_suffix(self):
        def run_with(factory):
            cluster = ShardCluster(
                AirlineState(),
                ClusterConfig(n_nodes=3, merge_factory=factory, seed=9),
            )
            for i in range(10):
                cluster.submit(i % 3, Request(f"P{i}"), at=float(i) * 0.3)
            cluster.submit(1, MoveUp(4), at=5.0)
            cluster.quiesce()
            return cluster.nodes[0].state

        naive = policy_engine_factory(InitialOnlyPolicy, fast_path=False)
        assert run_with(naive) == run_with(None)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ShardCluster(AirlineState(), ClusterConfig(n_nodes=0))

    def test_prefix_condition_emerges(self):
        """Every transaction of an extracted execution sees only smaller
        timestamps — the Lamport invariant makes condition (1) emerge."""
        cluster = ShardCluster(AirlineState(), ClusterConfig(n_nodes=3, seed=3))
        for i in range(12):
            cluster.submit(i % 3, Request(f"P{i}"), at=float(i) * 0.2)
        cluster.quiesce()
        e = cluster.extract_execution()
        for i in e.indices:
            assert all(j < i for j in e.prefixes[i])

    def test_dangling_seen_txid_is_a_typed_error(self):
        """A record that claims to have seen a txid no record carries
        fails extraction with an error naming both txids."""
        cluster = ShardCluster(AirlineState(), ClusterConfig(n_nodes=2))
        for i in range(4):
            cluster.submit(i % 2, Request(f"P{i}"), at=float(i))
        cluster.quiesce()
        records = list(cluster.records.values())
        records[2] = dataclasses.replace(
            records[2], seen_txids=records[2].seen_txids | {1234}
        )
        with pytest.raises(
            InvalidExecutionError,
            match=rf"transaction {records[2].txid} saw transaction 1234, "
            "which is not among the records",
        ):
            extract_execution(AirlineState(), records)
