"""Tests for the token-based distributed agent."""

import pytest

from repro.apps.airline import (
    AirlineState,
    MoveUp,
    Request,
    make_airline_application,
)
from repro.core import group_by_family, is_centralized
from repro.gossip import GossipConfig
from repro.network import FixedDelay, PartitionSchedule
from repro.shard import ClusterConfig, ShardCluster


def make_cluster(**kwargs):
    return ShardCluster(AirlineState(), ClusterConfig(n_nodes=3, **kwargs))


class TestTokenMechanics:
    def test_holder_runs_immediately(self):
        cluster = make_cluster()
        agent = cluster.create_agent(home=0)
        cluster.sim.schedule_at(1.0, lambda: agent.submit(0, MoveUp(5)))
        cluster.quiesce()
        assert agent.stats.served_with_token == 1
        assert agent.stats.migrations == 0
        assert agent.stats.latencies == [0.0]

    def test_token_migrates_on_remote_request(self):
        cluster = make_cluster(delay=FixedDelay(1.5))
        agent = cluster.create_agent(home=0)
        cluster.sim.schedule_at(1.0, lambda: agent.submit(2, MoveUp(5)))
        cluster.quiesce()
        assert agent.stats.migrations == 1
        assert agent.holder == 2
        assert agent.stats.latencies == [3.0]  # request + grant

    def test_block_policy_rejects_when_partitioned(self):
        partitions = PartitionSchedule.split(0, 100, [0], [1, 2])
        cluster = make_cluster(partitions=partitions)
        agent = cluster.create_agent(home=0, policy="block")
        cluster.sim.schedule_at(5.0, lambda: agent.submit(1, MoveUp(5)))
        cluster.run(until=50.0)
        assert agent.stats.rejected == 1
        assert agent.stats.availability == 0.0

    def test_local_policy_runs_anyway(self):
        partitions = PartitionSchedule.split(0, 100, [0], [1, 2])
        cluster = make_cluster(partitions=partitions)
        agent = cluster.create_agent(home=0, policy="local")
        cluster.submit(1, Request("A"), at=1.0)
        cluster.sim.schedule_at(5.0, lambda: agent.submit(1, MoveUp(5)))
        cluster.run(until=50.0)
        assert agent.stats.served_locally == 1
        assert agent.stats.availability == 1.0

    def test_unknown_policy_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            cluster.create_agent(policy="shrug")

    def test_duplicate_agent_name_rejected(self):
        cluster = make_cluster()
        cluster.create_agent("movers")
        with pytest.raises(ValueError):
            cluster.create_agent("movers")

    def test_two_independent_agents(self):
        cluster = make_cluster()
        movers = cluster.create_agent("movers", home=0)
        audits = cluster.create_agent("audits", home=1)
        cluster.sim.schedule_at(1.0, lambda: movers.submit(2, MoveUp(5)))
        cluster.sim.schedule_at(1.0, lambda: audits.submit(2, MoveUp(5)))
        cluster.quiesce()
        assert movers.holder == 2 and audits.holder == 2
        assert movers.stats.migrations == audits.stats.migrations == 1


class TestAgentCentralization:
    def test_agent_run_is_centralized_in_execution(self):
        """G-transactions through the agent see all earlier ones, from
        wherever they were submitted — centralization by construction."""
        cluster = make_cluster(
            broadcast=GossipConfig(flood=False, anti_entropy_interval=1e9)
        )
        agent = cluster.create_agent(home=0)
        for i in range(4):
            cluster.submit(i % 3, Request(f"P{i}"), at=float(i))
        for i, node in enumerate((0, 1, 2, 1)):
            cluster.sim.schedule_at(
                10.0 + 3 * i, lambda n=node: agent.submit(n, MoveUp(10))
            )
        cluster.quiesce()
        e = cluster.extract_execution()
        movers = group_by_family(e, "MOVE_UP")
        assert len(movers) == 4
        assert is_centralized(e, movers)

    def test_blocked_agent_prevents_overbooking(self):
        """Token 'block' policy preserves the Theorem 22 guarantee even
        under a partition (at the price of rejected movers)."""
        app = make_airline_application(capacity=1)
        partitions = PartitionSchedule.split(2, 60, [0], [1, 2])
        cluster = make_cluster(partitions=partitions, seed=8)
        agent = cluster.create_agent(home=0, policy="block")
        cluster.submit(0, Request("A"), at=0.5)
        cluster.submit(1, Request("B"), at=0.5)
        for t, node in ((5.0, 0), (6.0, 1), (7.0, 2)):
            cluster.sim.schedule_at(
                t, lambda n=node: agent.submit(n, MoveUp(1))
            )
        cluster.run(until=80.0)
        cluster.quiesce()
        e = cluster.extract_execution()
        assert max(app.cost(s, "overbooking") for s in e.actual_states) == 0
        assert agent.stats.rejected == 2

    def test_local_fallback_can_overbook(self):
        """The 'local' policy restores availability but forfeits the
        guarantee: both sides of the partition seat someone."""
        app = make_airline_application(capacity=1)
        partitions = PartitionSchedule.split(2, 60, [0], [1, 2])
        cluster = make_cluster(partitions=partitions, seed=8)
        agent = cluster.create_agent(home=0, policy="local")
        # requests arrive during the partition: each side knows only its
        # own, so the two movers pick different passengers.
        cluster.submit(0, Request("A"), at=3.0)
        cluster.submit(1, Request("B"), at=3.0)
        for t, node in ((5.0, 0), (6.0, 1)):
            cluster.sim.schedule_at(
                t, lambda n=node: agent.submit(n, MoveUp(1))
            )
        cluster.run(until=80.0)
        cluster.quiesce()
        e = cluster.extract_execution()
        assert max(app.cost(s, "overbooking") for s in e.actual_states) > 0
