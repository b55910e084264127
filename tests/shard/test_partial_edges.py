"""Edge cases for partial replication."""

import random

import pytest

from repro.apps.airline import AirlineState, Request
from repro.gossip import GossipConfig
from repro.shard import ClusterConfig, ShardCluster


class TestPartialEdges:
    def test_route_submit_no_holders(self):
        cluster = ShardCluster(
            {"f1": AirlineState(), "orphan": AirlineState()},
            ClusterConfig(n_nodes=1, placement={0: frozenset({"f1"})}),
        )
        with pytest.raises(KeyError):
            cluster.route_submit("orphan", Request("P"), random.Random(0))

    def test_node_initiate_unheld_key(self):
        cluster = ShardCluster(
            {"f1": AirlineState(), "f2": AirlineState()},
            ClusterConfig(n_nodes=2, placement={
                0: frozenset({"f1"}), 1: frozenset({"f2"}),
            }),
        )
        with pytest.raises(KeyError):
            cluster.nodes[0].initiate(0, Request("P"), 0.0, group="f2")

    def test_disjoint_nodes_never_gossip(self):
        cluster = ShardCluster(
            {"f1": AirlineState(), "f2": AirlineState()},
            ClusterConfig(
                n_nodes=2,
                placement={0: frozenset({"f1"}), 1: frozenset({"f2"})},
                broadcast=GossipConfig(anti_entropy_interval=1.0),
            ),
        )
        cluster.submit(0, Request("A"), at=0.0, group="f1")
        cluster.run(until=20.0)
        cluster.quiesce()
        assert cluster.broadcast.stats.anti_entropy_messages == 0
        # single holders are trivially converged.
        assert cluster.converged()

    def test_flood_disabled_relies_on_gossip(self):
        cluster = ShardCluster(
            {"f1": AirlineState()},
            ClusterConfig(
                n_nodes=2,
                placement={0: frozenset({"f1"}), 1: frozenset({"f1"})},
                broadcast=GossipConfig(
                    flood=False, anti_entropy_interval=2.0
                ),
            ),
        )
        cluster.submit(0, Request("A"), at=0.0, group="f1")
        cluster.run(until=30.0)
        cluster.quiesce()
        assert cluster.nodes[1].replicas["f1"].state.is_known("A")
        assert cluster.broadcast.stats.flood_messages == 0
        assert cluster.broadcast.stats.anti_entropy_messages > 0

    def test_receive_foreign_key_advances_clock_only(self):
        cluster = ShardCluster(
            {"f1": AirlineState(), "f2": AirlineState()},
            ClusterConfig(n_nodes=2, placement={
                0: frozenset({"f1"}), 1: frozenset({"f2"}),
            }),
        )
        record = cluster.nodes[0].initiate(0, Request("A"), 0.0, group="f1")
        accepted = cluster.nodes[1].receive_batch([record])
        assert not accepted
        # but node 1's clock advanced past the foreign timestamp, so its
        # next issue is globally larger.
        later = cluster.nodes[1].initiate(1, Request("B"), 1.0, group="f2")
        assert later.ts > record.ts

    def test_per_key_prefix_isolation(self):
        """A transaction's seen-set contains only same-key transactions:
        per-object executions are self-contained."""
        cluster = ShardCluster(
            {"f1": AirlineState(), "f2": AirlineState()},
            ClusterConfig(n_nodes=1, placement={
                0: frozenset({"f1", "f2"}),
            }),
        )
        cluster.submit(0, Request("A"), at=0.0, group="f1")
        cluster.submit(0, Request("B"), at=1.0, group="f2")
        cluster.submit(0, Request("C"), at=2.0, group="f1")
        cluster.quiesce()
        e1 = cluster.extract_execution("f1")
        e2 = cluster.extract_execution("f2")
        e1.validate()
        e2.validate()
        assert len(e1) == 2 and len(e2) == 1
        assert e1.prefixes == ((), (0,))
        assert e2.prefixes == ((),)
