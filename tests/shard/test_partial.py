"""Tests for partial replication."""

import dataclasses
import random

import pytest

from repro.apps.airline import (
    AirlineState,
    Cancel,
    MoveUp,
    Request,
    make_airline_application,
)
from repro.gossip import GossipConfig
from repro.network import PartitionSchedule
from repro.shard import ClusterConfig, ShardCluster
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
        assert cluster.nodes[0].replicas["f1"].state.waiting == ("A",)
        assert cluster.nodes[1].replicas["f1"].state.waiting == ("A",)
        assert cluster.nodes[2].replicas["f2"].state.waiting == ("B",)

    def test_non_holders_never_store_foreign_objects(self):
        cluster = two_flight_cluster()
        cluster.submit(0, "f1", Request("A"), at=0.0)
        cluster.quiesce()
        assert "f2" not in cluster.nodes[0].replicas
        assert "f1" not in cluster.nodes[2].replicas

    def test_partitioned_holder_catches_up(self):
        partitions = PartitionSchedule.split(0, 30, [0], [1, 2])
        cluster = two_flight_cluster(partitions=partitions)
        cluster.submit(1, "f1", Request("A"), at=5.0)
        cluster.run(until=20.0)
        assert not cluster.nodes[0].replicas["f1"].state.is_known("A")
        cluster.run(until=60.0)
        cluster.quiesce()
        assert cluster.nodes[0].replicas["f1"].state.is_known("A")


class TestDeliveryTimeObservation:
    def test_buffered_rumor_moves_clock_on_delivery(self):
        """A rumor whose dependency is missing waits in the causal
        buffer, and its timestamp does not bound what the receiver issues
        meanwhile: nodes observe a record when it is delivered, as under
        full replication, so the clock tracks the delivered causal past."""
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
        rumored = cluster.records[1]
        assert rumored.seen_txids == {0}
        assert rumored.txid not in cluster.nodes[1].replicas["f1"].txids
        assert cluster.broadcast.has(1, rumored.txid)  # buffered
        assert cluster.records[2].ts < rumored.ts
        cluster.quiesce()
        cluster.submit(1, "f1", Request("D"))
        cluster.run()
        assert cluster.records[3].ts > rumored.ts
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
        assert e1.final_state == cluster.nodes[0].replicas["f1"].state
        assert e2.final_state == cluster.nodes[2].replicas["f2"].state

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


def submissions(seed, n_nodes=4, count=40):
    """Seeded ``(node, transaction, time)`` traffic, spanning the
    partition window of the equivalence grid."""
    rng = random.Random(seed)
    people = []
    out = []
    for i in range(count):
        roll = rng.random()
        if roll < 0.3:
            transaction = MoveUp(3)
        elif roll < 0.45 and people:
            transaction = Cancel(rng.choice(people))
        else:
            people.append(f"P{i}")
            transaction = Request(people[-1])
        out.append((rng.randrange(n_nodes), transaction, 0.5 * i))
    return out


def observables(clocks, replicas, stats):
    """Per node: Lamport counter, log (timestamps, txids, seen-sets),
    state and merge statistics; plus every gossip counter."""
    gossip = dataclasses.asdict(stats)
    del gossip["delivery_delays"]
    nodes = [
        (
            clock.counter,
            [(r.ts, r.txid, r.seen_txids) for r in replica.log],
            replica.state,
            replica.stats,
        )
        for clock, replica in zip(clocks, replicas)
    ]
    return gossip, nodes


class TestOneNodeTwoTopologies:
    """A one-object partial cluster placed on every node is a
    ``ShardCluster``: the same node assembly, the same delivery-time
    clock observation and one merge per delivery batch, so nothing a
    run produces can tell the two apart."""

    @pytest.mark.parametrize("partition", [False, True])
    @pytest.mark.parametrize("flood", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_full_placement_runs_exactly_like_a_shard_cluster(
        self, seed, flood, partition
    ):
        def partitions():
            if partition:
                return PartitionSchedule.split(6, 20, [0, 1], [2, 3])
            return None

        full = ShardCluster(AirlineState(), ClusterConfig(
            n_nodes=4, seed=seed, partitions=partitions(),
            broadcast=GossipConfig(flood=flood, anti_entropy_interval=3.0),
        ))
        part = PartialCluster({"f1": AirlineState()}, PartialConfig(
            placement={n: frozenset({"f1"}) for n in range(4)},
            seed=seed, partitions=partitions(),
            anti_entropy_interval=3.0, flood=flood,
        ))
        for node, transaction, at in submissions(seed):
            full.submit(node, transaction, at=at)
            part.submit(node, "f1", transaction, at=at)
        for cluster in (full, part):
            cluster.run(until=40.0)
            cluster.quiesce()
        assert observables(
            [node.clock for node in full.nodes],
            [node.replica for node in full.nodes],
            full.broadcast.stats,
        ) == observables(
            [node.clock for node in part.nodes.values()],
            [node.replicas["f1"] for node in part.nodes.values()],
            part.broadcast.stats,
        )
