"""Tests for summary-form data under partial replication (Section 6).

"It should even be possible to allow some of the data which transactions
read to be present in summary form, rather than in its full detail."
Nodes cache stale summaries of objects they do not hold, refreshed by
gossip/floods, and decisions (here: routing new requests to the
least-loaded flight) can read them.
"""


import pytest

from repro.apps.airline import AirlineState, MoveUp, Request
from repro.network import PartitionSchedule
from repro.shard.partial import PartialCluster, PartialConfig


def summarize(state):
    assert isinstance(state, AirlineState)
    return {"al": state.al, "wl": state.wl}


def make_cluster(**kwargs):
    placement = {
        0: frozenset({"f1"}),
        1: frozenset({"f2"}),
        2: frozenset({"f1", "f2"}),
    }
    return PartialCluster(
        {"f1": AirlineState(), "f2": AirlineState()},
        PartialConfig(
            placement=placement,
            summarize=summarize,
            anti_entropy_interval=1.0,
            **kwargs,
        ),
    )


class TestSummaryPropagation:
    def test_foreign_object_summary_arrives(self):
        cluster = make_cluster()
        cluster.submit(1, "f2", Request("A"), at=0.0)
        cluster.submit(1, "f2", Request("B"), at=0.5)
        cluster.run(until=10.0)
        # node 0 does not hold f2 yet knows roughly how busy it is.
        summary = cluster.summary(0, "f2")
        assert summary == {"al": 0, "wl": 2}

    def test_summary_view_mixes_exact_and_stale(self):
        cluster = make_cluster()
        cluster.submit(0, "f1", Request("A"), at=0.0)
        cluster.submit(1, "f2", Request("B"), at=0.0)
        cluster.run(until=10.0)
        view = cluster.summary_view(0)
        assert view["f1"] == {"al": 0, "wl": 1}   # exact (held)
        assert view["f2"] == {"al": 0, "wl": 1}   # cached summary

    def test_summaries_go_stale_during_partition(self):
        partitions = PartitionSchedule.split(5, 40, [0], [1, 2])
        cluster = make_cluster(partitions=partitions)
        cluster.submit(1, "f2", Request("A"), at=1.0)
        cluster.run(until=4.9)
        assert cluster.summary(0, "f2") == {"al": 0, "wl": 1}
        # more f2 traffic during the partition; node 0's summary freezes.
        for i in range(5):
            cluster.submit(1, "f2", Request(f"B{i}"), at=10.0 + i)
        cluster.run(until=35.0)
        assert cluster.summary(0, "f2") == {"al": 0, "wl": 1}  # stale
        cluster.run(until=60.0)  # healed: gossip refreshes
        assert cluster.summary(0, "f2")["wl"] == 6

    def test_newer_summary_wins(self):
        cluster = make_cluster()
        cluster.accept_summary(0, "f2", 5.0, {"al": 1, "wl": 0})
        cluster.accept_summary(0, "f2", 3.0, {"al": 9, "wl": 9})
        assert cluster.summary(0, "f2") == {"al": 1, "wl": 0}

    def test_held_objects_never_cached(self):
        cluster = make_cluster()
        cluster.accept_summary(2, "f1", 1.0, {"al": 99, "wl": 99})
        assert cluster.summary(2, "f1") is None

    def test_summary_view_requires_configuration(self):
        cluster = PartialCluster(
            {"f1": AirlineState()},
            PartialConfig(placement={0: frozenset({"f1"})}),
        )
        with pytest.raises(RuntimeError):
            cluster.summary_view(0)


class TestSummaryDrivenRouting:
    def test_route_to_least_loaded_flight(self):
        """A front-end node without full copies routes each request to
        the flight its (stale) summaries say is least loaded."""
        cluster = make_cluster()

        def least_loaded(node_id):
            view = cluster.summary_view(node_id)
            loads = {
                key: (s["al"] + s["wl"]) if s else 0
                for key, s in view.items()
            }
            return min(sorted(loads), key=loads.get)

        # pre-load f1 heavily so summaries steer traffic to f2.
        for i in range(6):
            cluster.submit(0, "f1", Request(f"pre{i}"), at=float(i))
        cluster.run(until=10.0)

        routed = []
        t = 10.0
        for i in range(8):
            t += 1.5
            choice_holder = 2  # node 2 holds both; summaries exact there
            key = least_loaded(choice_holder)
            routed.append(key)
            cluster.submit(choice_holder, key, Request(f"new{i}"), at=t)
            cluster.run(until=t + 0.1)
        cluster.run(until=60.0)
        cluster.quiesce()
        # the balancer sent most (here: all) new traffic to f2 until it
        # caught up with f1's 6 pre-loaded requests.
        assert routed.count("f2") >= 6
        assert cluster.mutually_consistent()
