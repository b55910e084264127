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
from repro.replica import EveryPositionPolicy, policy_engine_factory
from repro.shard import ClusterConfig, ShardCluster
from repro.shard.cluster import GROUP_TXIDS


def two_flight_cluster(**kwargs):
    """Flights f1 (nodes 0, 1) and f2 (nodes 1, 2): node 1 holds both."""
    placement = {
        0: frozenset({"f1"}),
        1: frozenset({"f1", "f2"}),
        2: frozenset({"f2"}),
    }
    return ShardCluster(
        {"f1": AirlineState(), "f2": AirlineState()},
        ClusterConfig(n_nodes=3, placement=placement, **kwargs),
    )


class TestPlacement:
    def test_holders(self):
        cluster = two_flight_cluster()
        assert cluster.holders("f1") == (0, 1)
        assert cluster.holders("f2") == (1, 2)

    def test_submit_requires_holding(self):
        cluster = two_flight_cluster()
        with pytest.raises(KeyError):
            cluster.submit(0, Request("P1"), group="f2")

    def test_unknown_object_rejected(self):
        with pytest.raises(ValueError, match="unknown objects"):
            ShardCluster(
                {"f1": AirlineState()},
                ClusterConfig(
                    n_nodes=1, placement={0: frozenset({"f1", "zzz"})}
                ),
            )

    @pytest.mark.parametrize("n_nodes", [1, 2, 4])
    def test_placement_must_place_exactly_n_nodes(self, n_nodes):
        """``n_nodes`` and a placement never silently disagree: the
        placement must place nodes 0 .. n_nodes - 1, no more, no less."""
        placement = {0: frozenset({"f1"}), 1: frozenset({"f1"}),
                     2: frozenset({"f1"})}
        with pytest.raises(ValueError, match="n_nodes"):
            ShardCluster(
                {"f1": AirlineState()},
                ClusterConfig(n_nodes=n_nodes, placement=placement),
            )
        with pytest.raises(ValueError, match="n_nodes"):
            ShardCluster(
                {"f1": AirlineState()},
                ClusterConfig(
                    n_nodes=3,
                    placement={0: frozenset({"f1"}), 1: frozenset({"f1"}),
                               3: frozenset({"f1"})},
                ),
            )

    def test_route_submit_chooses_holder(self):
        cluster = two_flight_cluster()
        rng = random.Random(0)
        for _ in range(10):
            node = cluster.route_submit("f1", Request("P1"), rng)
            assert node in (0, 1)


class TestGroupedClusterApi:
    def test_unheld_group_burns_no_txid(self):
        """Both entry points refuse a group the node does not hold
        before a txid is drawn, so each group's txids stay gapless from
        the group's own base."""
        cluster = two_flight_cluster()
        cluster.initiate_now(0, Request("A"), group="f1")
        before = dict(cluster.records)
        with pytest.raises(KeyError):
            cluster.initiate_now(0, Request("B"), group="f2")
        with pytest.raises(KeyError):
            cluster.submit(2, Request("C"), group="f1")
        cluster.run(until=5.0)
        assert cluster.records == before
        cluster.initiate_now(2, Request("D"), group="f2")
        cluster.initiate_now(1, Request("E"), group="f1")
        by_group = {}
        for txid, record in cluster.records.items():
            by_group.setdefault(record.group, []).append(txid)
        assert by_group == {"f1": [0, 1], "f2": [GROUP_TXIDS]}

    def test_merge_counters_sum_every_replica(self):
        cost = make_airline_application(capacity=2).cost
        cluster = two_flight_cluster(
            merge_factory=policy_engine_factory(
                EveryPositionPolicy, cost_fn=cost
            ),
            partitions=PartitionSchedule.split(2, 12, [0], [1, 2]),
        )
        rng = random.Random(4)
        for i in range(16):
            key = "f1" if i % 2 == 0 else "f2"
            cluster.route_submit(key, Request(f"P{i}"), rng, at=float(i))
            cluster.route_submit(key, MoveUp(2), rng, at=i + 0.5)
        cluster.run(until=30.0)
        cluster.quiesce()
        counters = cluster.merge_counters()
        replicas = [
            (node_id, key, replica)
            for node_id, node in enumerate(cluster.nodes)
            for key, replica in node.replicas.items()
        ]
        assert len(replicas) == 4
        for name in ("inserts", "updates_applied", "fastpath_hits",
                     "undo_redo_merges", "batch_merges", "batched_inserts"):
            assert counters[name] == sum(
                getattr(replica.stats, name) for _, _, replica in replicas
            )
        assert counters["inserts"] == 2 * 32  # each record at both holders
        assert counters["cost_evaluations"] == sum(
            replica.engine.cost_stats.evaluations
            for _, _, replica in replicas
        )
        assert counters["log_length"] == 32
        assert counters["final_cost"] == sum(
            cost(cluster.nodes[holder].replicas[key].state)
            for holder, key in ((0, "f1"), (1, "f2"))
        )
        assert cluster.states == tuple(
            replica.state for _, _, replica in replicas
        )


class TestCrashUnderPlacement:
    def test_two_object_holder_crashes_and_recovers(self):
        """Node 1, the only node holding both flights, is down over
        [10, 25) while a partition [15, 35) cuts node 0 off: submissions
        to it are rejected, and after the heal it catches up on both
        objects."""
        cluster = two_flight_cluster(
            partitions=PartitionSchedule.split(15, 35, [0], [1, 2]),
        )
        cluster.schedule_crash(1, 10.0, 25.0)
        rng = random.Random(8)
        down = 0
        for i in range(40):
            at = float(i)
            key = "f1" if i % 2 == 0 else "f2"
            cluster.submit(1, Request(f"one-{i}"), at=at, group=key)
            other = 0 if key == "f1" else 2
            cluster.submit(other, Request(f"P{i}"), at=at + 0.3, group=key)
            mover = cluster.route_submit(key, MoveUp(3), rng, at=at + 0.6)
            down += (10.0 <= at < 25.0) * (1 + (mover == 1))
        cluster.run(until=20.0)
        assert not cluster.nodes[1].online
        cluster.run(until=50.0)
        cluster.quiesce()
        assert down > 15
        assert cluster.rejected_submissions == down
        assert len(cluster.records) == 3 * 40 - down
        assert cluster.converged()
        assert cluster.mutually_consistent()
        for key in ("f1", "f2"):
            execution = cluster.extract_execution(key)
            execution.validate()
            holders = cluster.holders(key)
            assert execution.final_state == (
                cluster.nodes[holders[0]].replicas[key].state
            )
            assert len(execution) + sum(
                1 for r in cluster.records.values() if r.group != key
            ) == len(cluster.records)


class TestDissemination:
    def test_holders_converge_per_object(self):
        cluster = two_flight_cluster()
        cluster.submit(0, Request("A"), at=0.0, group="f1")
        cluster.submit(1, Request("B"), at=0.0, group="f2")
        cluster.quiesce()
        assert cluster.converged()
        assert cluster.mutually_consistent()
        assert cluster.nodes[0].replicas["f1"].state.waiting == ("A",)
        assert cluster.nodes[1].replicas["f1"].state.waiting == ("A",)
        assert cluster.nodes[2].replicas["f2"].state.waiting == ("B",)

    def test_non_holders_never_store_foreign_objects(self):
        cluster = two_flight_cluster()
        cluster.submit(0, Request("A"), at=0.0, group="f1")
        cluster.quiesce()
        assert "f2" not in cluster.nodes[0].replicas
        assert "f1" not in cluster.nodes[2].replicas

    def test_partitioned_holder_catches_up(self):
        partitions = PartitionSchedule.split(0, 30, [0], [1, 2])
        cluster = two_flight_cluster(partitions=partitions)
        cluster.submit(1, Request("A"), at=5.0, group="f1")
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
        cluster = ShardCluster(
            {"f1": AirlineState()},
            ClusterConfig(
                n_nodes=2,
                placement={0: frozenset({"f1"}), 1: frozenset({"f1"})},
                partitions=PartitionSchedule.split(0, 5, [0], [1]),
                broadcast=GossipConfig(anti_entropy_interval=1000.0),
            ),
        )
        cluster.submit(0, Request("A"), at=1.0, group="f1")  # flood lost
        cluster.submit(0, Request("B"), at=6.0, group="f1")  # B has seen A
        cluster.submit(1, Request("C"), at=7.2, group="f1")
        cluster.run(until=7.5)
        rumored = cluster.records[1]
        assert rumored.seen_txids == {0}
        assert rumored.txid not in cluster.nodes[1].replicas["f1"].txids
        assert cluster.broadcast.has(1, rumored.txid)  # buffered
        assert cluster.records[2].ts < rumored.ts
        cluster.quiesce()
        cluster.submit(1, Request("D"), group="f1")
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
            cluster = ShardCluster(
                {"f1": AirlineState(), "f2": AirlineState()},
                ClusterConfig(n_nodes=3, placement=placement, seed=3),
            )
            rng = random.Random(3)
            for i in range(20):
                key = "f1" if i % 2 == 0 else "f2"
                cluster.route_submit(key, Request(f"P{i}"), rng, at=float(i))
            cluster.run(until=40.0)
            cluster.quiesce()
            return cluster.broadcast.stats.items_carried

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
    """A one-object placement on every node runs exactly like placement
    ``None``: the same node assembly, the same delivery-time clock
    observation and one merge per delivery batch, so nothing a run
    produces can tell the two apart."""

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
        part = ShardCluster({"f1": AirlineState()}, ClusterConfig(
            n_nodes=4, seed=seed, partitions=partitions(),
            broadcast=GossipConfig(flood=flood, anti_entropy_interval=3.0),
            placement={n: frozenset({"f1"}) for n in range(4)},
        ))
        for node, transaction, at in submissions(seed):
            full.submit(node, transaction, at=at)
            part.submit(node, transaction, at=at, group="f1")
        for cluster in (full, part):
            cluster.run(until=40.0)
            cluster.quiesce()
        assert observables(
            [node.clock for node in full.nodes],
            [node.replica for node in full.nodes],
            full.broadcast.stats,
        ) == observables(
            [node.clock for node in part.nodes],
            [node.replicas["f1"] for node in part.nodes],
            part.broadcast.stats,
        )
