"""Tests for partial replication."""

import random

import pytest

from repro.apps.airline import (
    AirlineState,
    MoveUp,
    Request,
    make_airline_application,
)
from repro.network import PartitionSchedule
from repro.shard.partial import PartialCluster, PartialConfig


def two_flight_cluster(**kwargs):
    """Flights f1 (nodes 0, 1) and f2 (nodes 1, 2): node 1 holds both."""
    placement = {
        0: frozenset({"f1"}),
        1: frozenset({"f1", "f2"}),
        2: frozenset({"f2"}),
    }
    return PartialCluster(
        {"f1": AirlineState(), "f2": AirlineState()},
        PartialConfig(placement=placement, **kwargs),
    )


class TestPlacement:
    def test_holders_and_sharing_peers(self):
        cluster = two_flight_cluster()
        assert cluster.holders("f1") == (0, 1)
        assert cluster.holders("f2") == (1, 2)
        assert cluster.sharing_peers(0) == (1,)
        assert cluster.sharing_peers(1) == (0, 2)

    def test_submit_requires_holding(self):
        cluster = two_flight_cluster()
        with pytest.raises(KeyError):
            cluster.submit(0, "f2", Request("P1"))

    def test_unknown_object_rejected(self):
        with pytest.raises(ValueError):
            PartialCluster(
                {"f1": AirlineState()},
                PartialConfig(placement={0: frozenset({"f1", "zzz"})}),
            )

    def test_route_submit_chooses_holder(self):
        cluster = two_flight_cluster()
        rng = random.Random(0)
        for _ in range(10):
            node = cluster.route_submit("f1", Request("P1"), rng)
            assert node in (0, 1)


class TestDissemination:
    def test_holders_converge_per_object(self):
        cluster = two_flight_cluster()
        cluster.submit(0, "f1", Request("A"), at=0.0)
        cluster.submit(1, "f2", Request("B"), at=0.0)
        cluster.quiesce()
        assert cluster.converged()
        assert cluster.mutually_consistent()
        assert cluster.nodes[0].substate("f1").waiting == ("A",)
        assert cluster.nodes[1].substate("f1").waiting == ("A",)
        assert cluster.nodes[2].substate("f2").waiting == ("B",)

    def test_non_holders_never_store_foreign_objects(self):
        cluster = two_flight_cluster()
        cluster.submit(0, "f1", Request("A"), at=0.0)
        cluster.quiesce()
        assert "f2" not in cluster.nodes[0].logs
        assert "f1" not in cluster.nodes[2].logs

    def test_partitioned_holder_catches_up(self):
        partitions = PartitionSchedule.split(0, 30, [0], [1, 2])
        cluster = two_flight_cluster(partitions=partitions)
        cluster.submit(1, "f1", Request("A"), at=5.0)
        cluster.run(until=20.0)
        assert not cluster.nodes[0].substate("f1").is_known("A")
        cluster.run(until=60.0)
        cluster.quiesce()
        assert cluster.nodes[0].substate("f1").is_known("A")


class TestReceiptTimeObservation:
    def test_buffered_rumor_still_raises_the_next_timestamp(self):
        """A rumor whose dependency is missing waits in the causal
        buffer, yet its timestamp already bounds what the receiver issues
        next: partial nodes observe records at receipt, not delivery."""
        cluster = PartialCluster(
            {"f1": AirlineState()},
            PartialConfig(
                placement={0: frozenset({"f1"}), 1: frozenset({"f1"})},
                partitions=PartitionSchedule.split(0, 5, [0], [1]),
                anti_entropy_interval=1000.0,
            ),
        )
        cluster.submit(0, "f1", Request("A"), at=1.0)  # flood lost
        cluster.submit(0, "f1", Request("B"), at=6.0)  # B has seen A
        cluster.submit(1, "f1", Request("C"), at=7.2)
        cluster.run(until=7.5)
        rumored = cluster.records[1].record
        assert rumored.seen_txids == {0}
        assert rumored.txid not in cluster.nodes[1].known_txids("f1")
        assert cluster.broadcast.has(1, rumored.txid)  # buffered
        assert cluster.records[2].record.ts > rumored.ts
        cluster.quiesce()
        cluster.extract_execution("f1").validate()


class TestPerObjectExecutions:
    def test_extracted_executions_validate_per_object(self):
        cluster = two_flight_cluster()
        rng = random.Random(5)
        for i in range(8):
            key = "f1" if i % 2 == 0 else "f2"
            cluster.route_submit(key, Request(f"P{i}"), rng, at=float(i))
        cluster.route_submit("f1", MoveUp(5), rng, at=10.0)
        cluster.quiesce()
        e1 = cluster.extract_execution("f1")
        e2 = cluster.extract_execution("f2")
        e1.validate()
        e2.validate()
        assert len(e1) + len(e2) == 9
        assert e1.final_state == cluster.nodes[0].substate("f1")
        assert e2.final_state == cluster.nodes[2].substate("f2")

    def test_cost_bounds_apply_per_object(self):
        """The paper's per-constraint results carry over unchanged."""
        from repro.apps.airline.theorems import corollary8

        partitions = PartitionSchedule.split(5, 40, [0], [1, 2])
        cluster = two_flight_cluster(partitions=partitions)
        rng = random.Random(9)
        t = 0.0
        for i in range(30):
            t += 1.0
            cluster.route_submit("f1", Request(f"P{i}"), rng, at=t)
            cluster.route_submit("f1", MoveUp(3), rng, at=t + 0.5)
        cluster.run(until=60.0)
        cluster.quiesce()
        e = cluster.extract_execution("f1")
        k = max(
            (e.deficit(i) for i in e.indices
             if e.transactions[i].name == "MOVE_UP"),
            default=0,
        )
        report = corollary8(e, k, 3)
        assert report.hypothesis_holds and report.holds

    def test_bandwidth_scales_with_replication_degree(self):
        """Partial placement carries fewer items than full replication
        for the same workload."""
        def run(placement):
            cluster = PartialCluster(
                {"f1": AirlineState(), "f2": AirlineState()},
                PartialConfig(placement=placement, seed=3),
            )
            rng = random.Random(3)
            for i in range(20):
                key = "f1" if i % 2 == 0 else "f2"
                cluster.route_submit(key, Request(f"P{i}"), rng, at=float(i))
            cluster.run(until=40.0)
            cluster.quiesce()
            return cluster.stats.items_carried

        full = {i: frozenset({"f1", "f2"}) for i in range(3)}
        partial = {
            0: frozenset({"f1"}),
            1: frozenset({"f1", "f2"}),
            2: frozenset({"f2"}),
        }
        assert run(partial) < run(full)
