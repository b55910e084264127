"""Cluster-level regression tests: pairwise mutual consistency and the
merge events the replica layer emits through the guarded tracer path."""

from repro.apps.airline import AirlineState, Request
from repro.network import UniformDelay
from repro.shard import ClusterConfig, ShardCluster
from repro.sim.trace import Tracer


class TestMutualConsistency:
    def test_divergent_nonzero_pair_detected(self):
        """Two nodes with equal logs but different states must fail the
        check even when node 0's log differs from both (the seed compared
        everything against node 0 only and missed this)."""
        cluster = ShardCluster(AirlineState(), ClusterConfig(n_nodes=3))
        shared = cluster.nodes[1].initiate(0, Request("A"), now=0.0)
        cluster.nodes[2].receive_batch([shared])
        cluster.nodes[0].receive_batch([shared])
        cluster.nodes[0].initiate(1, Request("B"), now=0.0)
        # logs: node0 {0,1}; node1 {0}; node2 {0} — consistent so far.
        assert cluster.mutually_consistent()
        # corrupt node 2's materialized state: same log as node 1,
        # different state -> must be flagged.
        cluster.nodes[2].replica.engine._state = AirlineState((), ("X",))
        assert not cluster.mutually_consistent()

    def test_consistent_after_quiesce(self):
        cluster = ShardCluster(AirlineState(), ClusterConfig(n_nodes=3))
        for i in range(6):
            cluster.submit(i % 3, Request(f"P{i}"), at=float(i) * 0.4)
        cluster.quiesce()
        assert cluster.mutually_consistent()


class TestMergeTraceEvents:
    def _run_traced(self):
        tracer = Tracer()
        cluster = ShardCluster(
            AirlineState(),
            ClusterConfig(
                n_nodes=3, seed=11,
                delay=UniformDelay(0.1, 3.0),
                tracer=tracer,
            ),
        )
        for i in range(20):
            cluster.submit(i % 3, Request(f"P{i}"), at=float(i) * 0.25)
        cluster.quiesce()
        return cluster, tracer

    def test_merge_events_cover_every_accepted_record(self):
        """Per-record events plus the records covered by batched spans
        account for every accepted insert, exactly once."""
        cluster, tracer = self._run_traced()
        fastpath = len(tracer.of_kind("merge_fastpath"))
        undo = len(tracer.of_kind("merge_undo"))
        batched = sum(
            e.get("count") for e in tracer.of_kind("merge_batch")
        )
        total_inserts = sum(
            node.merge.stats.inserts for node in cluster.nodes
        )
        assert fastpath + undo + batched == total_inserts
        assert fastpath > 0

    def test_merge_events_match_engine_stats(self):
        cluster, tracer = self._run_traced()
        batch_events = tracer.of_kind("merge_batch")
        # batched tail spans contribute `count` records to fastpath_hits;
        # batched out-of-order spans contribute one undo/redo cycle each.
        batch_fast_records = sum(
            e.get("count") for e in batch_events if e.get("displacement") == 0
        )
        batch_undo_spans = sum(
            1 for e in batch_events if e.get("displacement") > 0
        )
        assert len(batch_events) == sum(
            node.merge.stats.batch_merges for node in cluster.nodes
        )
        assert sum(e.get("count") for e in batch_events) == sum(
            node.merge.stats.batched_inserts for node in cluster.nodes
        )
        assert len(tracer.of_kind("merge_fastpath")) + batch_fast_records == sum(
            node.merge.stats.fastpath_hits for node in cluster.nodes
        )
        assert len(tracer.of_kind("merge_undo")) + batch_undo_spans == sum(
            node.merge.stats.undo_redo_merges for node in cluster.nodes
        )

    def test_batch_events_cover_at_least_two_records(self):
        _, tracer = self._run_traced()
        for event in tracer.of_kind("merge_batch"):
            assert event.get("count") >= 2
            assert event.get("replayed") >= event.get("count")
            assert event.get("displacement") >= 0

    def test_undo_events_carry_displacement(self):
        _, tracer = self._run_traced()
        for event in tracer.of_kind("merge_undo"):
            assert event.get("displacement") >= 1
            assert event.get("replayed") >= 1

    def test_null_tracer_stays_silent(self):
        cluster = ShardCluster(AirlineState(), ClusterConfig(n_nodes=2))
        cluster.schedule_crash(0, start=1.0, end=2.0)
        cluster.submit(1, Request("A"), at=0.5)
        cluster.quiesce()
        assert len(cluster.tracer) == 0
