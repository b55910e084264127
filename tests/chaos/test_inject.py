"""Tests for the injection layer: transport faults, crashes, skews."""

import random

import pytest

from repro.apps.airline.state import AirlineState
from repro.apps.airline.transactions import Request
from repro.chaos import (
    ChaosInjector,
    ClockSkew,
    Crash,
    DelaySpike,
    Duplicate,
    FaultPlan,
    MessageFaultLayer,
    Partition,
    Reorder,
)
from repro.gossip import GossipConfig
from repro.network.link import FixedDelay
from repro.network.network import NetworkStats
from repro.replica import FixedIntervalPolicy, policy_engine_factory
from repro.shard.cluster import ClusterConfig, ShardCluster
from repro.sim.metrics import WireStats
from repro.sim.trace import Tracer


def make_cluster(plan, seed=0, checkpoint_interval=4):
    tracer = Tracer(strict=True)
    cluster = ShardCluster(
        AirlineState(),
        ClusterConfig(
            n_nodes=3,
            seed=seed,
            delay=FixedDelay(1.0),
            broadcast=GossipConfig(anti_entropy_interval=3.0),
            merge_factory=policy_engine_factory(
                lambda: FixedIntervalPolicy(checkpoint_interval)
            ),
            tracer=tracer,
        ),
    )
    ChaosInjector(cluster, plan).install()
    return cluster, tracer


def events_of(tracer, kind, node=None):
    return [
        e for e in tracer.events
        if e.kind == kind and (node is None or e.node == node)
    ]


class TestMessageFaultLayer:
    def layer(self, plan):
        return MessageFaultLayer(plan, random.Random(0), NetworkStats())

    def test_no_faults_passes_through(self):
        layer = self.layer(FaultPlan())
        assert not layer.has_faults
        assert layer.deliveries(5.0, 0, 1, "m", 1.0) == [1.0]

    def test_faults_compose_in_one_pass(self):
        plan = FaultPlan((
            DelaySpike(start=0.0, end=10.0, extra_delay=2.0),
            Reorder(start=0.0, end=10.0, probability=1.0, extra_delay=3.0),
            Duplicate(start=0.0, end=10.0, probability=1.0, lag=2.0),
        ))
        stats = NetworkStats()
        wire = WireStats()
        layer = MessageFaultLayer(plan, random.Random(0), stats, wire=wire)
        out = layer.deliveries(5.0, 0, 1, "m", 1.0)
        # spiked (+2) then reordered (+3); the duplicate inherits both.
        assert out[0] == 6.0
        assert len(out) == 2 and 6.0 <= out[1] <= 8.0
        assert (stats.delay_spiked, stats.reordered, stats.duplicated) \
            == (1, 1, 1)
        assert (wire.reorders, wire.dup_messages) == (1, 1)

    def test_windows_are_half_open(self):
        plan = FaultPlan((
            Duplicate(start=2.0, end=5.0, probability=1.0, lag=1.0),
        ))
        layer = self.layer(plan)
        assert len(layer.deliveries(2.0, 0, 1, "m", 1.0)) == 2
        assert len(layer.deliveries(5.0, 0, 1, "m", 1.0)) == 1

    def test_spike_src_filter(self):
        plan = FaultPlan((
            DelaySpike(start=0.0, end=10.0, extra_delay=2.0, src=1),
        ))
        layer = self.layer(plan)
        assert layer.deliveries(5.0, 0, 2, "m", 1.0) == [1.0]
        assert layer.deliveries(5.0, 1, 2, "m", 1.0) == [3.0]

    def test_same_seed_same_perturbations(self):
        plan = FaultPlan((
            Duplicate(start=0.0, end=10.0, probability=0.5, lag=2.0),
        ))
        runs = []
        for _ in range(2):
            layer = MessageFaultLayer(
                plan, random.Random(42), NetworkStats()
            )
            runs.append([
                layer.deliveries(t, 0, 1, "m", 1.0)
                for t in (1.0, 2.0, 3.0, 4.0)
            ])
        assert runs[0] == runs[1]


class TestCrashInjection:
    def test_crash_silences_node_then_recovery_catches_up(self):
        plan = FaultPlan((Crash(node=0, at=2.0, recover_at=10.0),))
        cluster, tracer = make_cluster(plan)
        for i, t in enumerate((0.5, 3.0, 4.0, 5.0)):
            cluster.submit(1, Request(f"P{i}"), at=t)
        cluster.run(until=20.0)
        cluster.quiesce()

        (crash,) = events_of(tracer, "crash", node=0)
        (recover,) = events_of(tracer, "recover", node=0)
        assert (crash.time, recover.time) == (2.0, 10.0)
        # nothing was delivered at node 0 while it was down...
        for e in events_of(tracer, "deliver", node=0):
            assert not 2.0 <= e.time < 10.0
        # ...yet it caught up afterwards.
        assert cluster.converged()
        assert cluster.mutually_consistent()

    def test_submission_at_crashed_node_is_rejected(self):
        plan = FaultPlan((Crash(node=0, at=2.0, recover_at=10.0),))
        cluster, _ = make_cluster(plan)
        cluster.submit(0, Request("P0"), at=5.0)
        cluster.run(until=20.0)
        assert cluster.rejected_submissions == 1
        assert len(cluster.records) == 0

    def test_lose_volatile_rolls_back_to_checkpoint(self):
        plan = FaultPlan((
            Crash(node=0, at=8.0, recover_at=14.0, lose_volatile=True),
        ))
        cluster, tracer = make_cluster(plan)
        # enough pre-crash records that node 0's log outruns its last
        # checkpoint (interval 4) by the time it dies.
        for i in range(6):
            cluster.submit(i % 3, Request(f"P{i}"), at=0.5 + i)
        cluster.run(until=8.5)

        node = cluster.nodes[0]
        assert len(node.replica.log) == node.replica.engine.latest_checkpoint
        losses = [
            e for e in events_of(tracer, "fault_inject", node=0)
            if e.get("fault") == "lose_volatile"
        ]
        assert len(losses) == 1
        lost = int(losses[0].get("info").split("=")[1])
        assert lost > 0

        cluster.run(until=25.0)
        cluster.quiesce()
        assert cluster.converged()
        assert cluster.mutually_consistent()


class TestOtherInjections:
    def test_clock_skew_advances_lamport_counter(self):
        plan = FaultPlan((ClockSkew(node=1, at=2.0, drift=10),))
        cluster, tracer = make_cluster(plan)
        cluster.run(until=3.0)
        assert cluster.nodes[1].clock.counter >= 10
        assert cluster.nodes[0].clock.counter < 10
        (skew,) = events_of(tracer, "fault_inject", node=1)
        assert skew.get("fault") == "clock_skew"

    def test_partition_appended_to_schedule(self):
        plan = FaultPlan((
            Partition(start=2.0, end=6.0, groups=((0,), (1, 2))),
        ))
        cluster, _ = make_cluster(plan)
        schedule = cluster.network.partitions
        assert not schedule.connected(0, 1, 3.0)
        assert schedule.connected(1, 2, 3.0)
        assert schedule.connected(0, 1, 6.0)

    def test_double_install_rejected(self):
        cluster, _ = make_cluster(FaultPlan())
        injector = ChaosInjector(cluster, FaultPlan())
        injector.install()
        with pytest.raises(RuntimeError, match="already installed"):
            injector.install()

    def test_plan_nodes_validated_against_cluster(self):
        cluster, _ = make_cluster(FaultPlan())
        bad = FaultPlan((Crash(node=9, at=0.0, recover_at=1.0),))
        with pytest.raises(ValueError, match="outside"):
            ChaosInjector(cluster, bad)
