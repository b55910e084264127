"""Tests for summary-form data under partial replication (Section 6).

"It should even be possible to allow some of the data which transactions
read to be present in summary form, rather than in its full detail."
Nodes cache stale summaries of objects they do not hold, refreshed by
gossip/floods, and decisions (here: routing new requests to the
least-loaded flight) can read them.
"""


import pytest

from repro.apps.airline import AirlineState, Request
from repro.network import PartitionSchedule
from repro.gossip import GossipConfig
from repro.shard import ClusterConfig, ShardCluster, Summaries


def summarize(state):
    assert isinstance(state, AirlineState)
    return {"al": state.al, "wl": state.wl}


def make_cluster(**kwargs):
    """The cluster and its summaries plug."""
    placement = {
        0: frozenset({"f1"}),
        1: frozenset({"f2"}),
        2: frozenset({"f1", "f2"}),
    }
    cluster = ShardCluster(
        {"f1": AirlineState(), "f2": AirlineState()},
        ClusterConfig(
            n_nodes=3,
            placement=placement,
            broadcast=GossipConfig(anti_entropy_interval=1.0),
            **kwargs,
        ),
    )
    return cluster, Summaries(cluster, summarize)


class TestSummaryPropagation:
    def test_foreign_object_summary_arrives(self):
        cluster, summaries = make_cluster()
        cluster.submit(1, Request("A"), at=0.0, group="f2")
        cluster.submit(1, Request("B"), at=0.5, group="f2")
        cluster.run(until=10.0)
        # node 0 does not hold f2 yet knows roughly how busy it is.
        summary = summaries.summary(0, "f2")
        assert summary == {"al": 0, "wl": 2}

    def test_summary_view_mixes_exact_and_stale(self):
        cluster, summaries = make_cluster()
        cluster.submit(0, Request("A"), at=0.0, group="f1")
        cluster.submit(1, Request("B"), at=0.0, group="f2")
        cluster.run(until=10.0)
        view = summaries.summary_view(0)
        assert view["f1"] == {"al": 0, "wl": 1}   # exact (held)
        assert view["f2"] == {"al": 0, "wl": 1}   # cached summary

    def test_summaries_go_stale_during_partition(self):
        partitions = PartitionSchedule.split(5, 40, [0], [1, 2])
        cluster, summaries = make_cluster(partitions=partitions)
        cluster.submit(1, Request("A"), at=1.0, group="f2")
        cluster.run(until=4.9)
        assert summaries.summary(0, "f2") == {"al": 0, "wl": 1}
        # more f2 traffic during the partition; node 0's summary freezes.
        for i in range(5):
            cluster.submit(1, Request(f"B{i}"), at=10.0 + i, group="f2")
        cluster.run(until=35.0)
        assert summaries.summary(0, "f2") == {"al": 0, "wl": 1}  # stale
        cluster.run(until=60.0)  # healed: gossip refreshes
        assert summaries.summary(0, "f2")["wl"] == 6

    def test_newer_summary_wins(self):
        _, summaries = make_cluster()
        summaries.accept_summary(0, "f2", 5.0, {"al": 1, "wl": 0})
        summaries.accept_summary(0, "f2", 3.0, {"al": 9, "wl": 9})
        assert summaries.summary(0, "f2") == {"al": 1, "wl": 0}

    def test_held_objects_never_cached(self):
        _, summaries = make_cluster()
        summaries.accept_summary(2, "f1", 1.0, {"al": 99, "wl": 99})
        assert summaries.summary(2, "f1") is None

    def test_summary_view_requires_configuration(self):
        """Summaries exist only through the plug: a bare cluster's gossip
        carries no extras, and a second plug cannot silently replace the
        first one's hooks."""
        cluster = ShardCluster(
            {"f1": AirlineState()},
            ClusterConfig(n_nodes=1, placement={0: frozenset({"f1"})}),
        )
        assert cluster.broadcast.extras is None
        assert cluster.broadcast.on_extras is None
        Summaries(cluster, summarize)
        with pytest.raises(RuntimeError):
            Summaries(cluster, summarize)


class TestSummaryDrivenRouting:
    def test_route_to_least_loaded_flight(self):
        """A front-end node without full copies routes each request to
        the flight its (stale) summaries say is least loaded."""
        cluster, summaries = make_cluster()

        def least_loaded(node_id):
            view = summaries.summary_view(node_id)
            loads = {
                key: (s["al"] + s["wl"]) if s else 0
                for key, s in view.items()
            }
            return min(sorted(loads), key=loads.get)

        # pre-load f1 heavily so summaries steer traffic to f2.
        for i in range(6):
            cluster.submit(0, Request(f"pre{i}"), at=float(i), group="f1")
        cluster.run(until=10.0)

        routed = []
        t = 10.0
        for i in range(8):
            t += 1.5
            choice_holder = 2  # node 2 holds both; summaries exact there
            key = least_loaded(choice_holder)
            routed.append(key)
            cluster.submit(
                choice_holder, Request(f"new{i}"), at=t, group=key
            )
            cluster.run(until=t + 0.1)
        cluster.run(until=60.0)
        cluster.quiesce()
        # the balancer sent most (here: all) new traffic to f2 until it
        # caught up with f1's 6 pre-loaded requests.
        assert routed.count("f2") >= 6
        assert cluster.mutually_consistent()
