"""Failure-injection tests: fail-stop crashes and recovery."""

import pytest

from repro.apps.airline import AirlineState, MoveUp, Request
from repro.gossip import GossipConfig
from repro.shard import ClusterConfig, ShardCluster
from repro.shard.cluster import NodeDownError


def make_cluster(**kwargs):
    return ShardCluster(AirlineState(), ClusterConfig(n_nodes=3, **kwargs))


class TestCrash:
    def test_submissions_to_crashed_node_rejected(self):
        cluster = make_cluster()
        cluster.schedule_crash(0, 5.0, 20.0)
        cluster.submit(0, Request("A"), at=10.0)
        cluster.submit(1, Request("B"), at=10.0)
        cluster.quiesce()
        assert cluster.rejected_submissions == 1
        final = cluster.nodes[1].state
        assert final.is_known("B") and not final.is_known("A")

    def test_initiate_now_raises(self):
        cluster = make_cluster()
        cluster.nodes[0].online = False
        with pytest.raises(NodeDownError):
            cluster.initiate_now(0, Request("A"))

    def test_crashed_node_misses_traffic_then_catches_up(self):
        cluster = make_cluster(
            broadcast=GossipConfig(flood=True, anti_entropy_interval=2.0)
        )
        cluster.schedule_crash(2, 1.0, 30.0)
        cluster.submit(0, Request("A"), at=5.0)
        cluster.submit(1, Request("B"), at=6.0)
        cluster.run(until=25.0)
        # down and deaf: node 2 knows nothing.
        assert len(cluster.nodes[2].log) == 0
        # after recovery, anti-entropy catches it up.
        cluster.run(until=60.0)
        cluster.quiesce()
        assert cluster.converged()
        assert cluster.nodes[2].state == cluster.nodes[0].state
        assert cluster.nodes[2].state.wl == 2

    def test_crashed_node_keeps_its_log(self):
        """Fail-stop, not amnesia: pre-crash state survives recovery."""
        cluster = make_cluster()
        cluster.submit(2, Request("A"), at=0.5)
        cluster.schedule_crash(2, 2.0, 10.0)
        cluster.run(until=5.0)
        assert cluster.nodes[2].state.is_known("A")
        cluster.quiesce()
        assert cluster.converged()

    def test_invalid_interval(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            cluster.schedule_crash(0, 5.0, 5.0)

    def test_execution_extraction_after_crash(self):
        cluster = make_cluster()
        cluster.schedule_crash(1, 2.0, 15.0)
        for i in range(6):
            cluster.submit(i % 3, Request(f"P{i}"), at=float(i) * 3)
        cluster.submit(0, MoveUp(5), at=20.0)
        cluster.quiesce()
        e = cluster.extract_execution()
        e.validate()
        # submissions that landed on the crashed node were rejected.
        assert len(e) + cluster.rejected_submissions == 7
