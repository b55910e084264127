"""Batched DELTA delivery: one undo/redo cycle per gossip merge.

Every merge (flood payload, DELTA, quiescence exchange) hands all the
items it released to the node's batch callback at once; a node that
wants them one at a time unpacks the batch (``batch=False`` below).
These tests pin the contract: batching changes
*how* deliveries are grouped, never what is delivered, in what order
items become known, what crosses the wire, or the transitivity the
causal gate preserves.
"""

import random

from repro.apps.airline import AirlineState, Request
from repro.core.conditions import transitivity_violations
from repro.gossip import GossipConfig, GossipService
from repro.network import FixedDelay, Network, PartitionSchedule, UniformDelay
from repro.shard import ClusterConfig, ShardCluster
from repro.sim import Simulator
from repro.sim.trace import Tracer
from tests.helpers import attach_bare


def make_service(n=3, config=None, partitions=None, seed=0, batch=False):
    """A service whose nodes record per-item and (optionally) per-batch
    deliveries."""
    sim = Simulator()
    net = Network(
        sim,
        delay=FixedDelay(1.0),
        partitions=partitions,
        rng=random.Random(seed),
    )
    service = GossipService(sim, net, config, rng=random.Random(seed + 1))
    delivered = {i: [] for i in range(n)}
    batches = {i: [] for i in range(n)}

    def attach(i):
        def on_batch(pairs, n=i):
            batches[n].append(tuple(key for key, _ in pairs))
            delivered[n].extend(key for key, _ in pairs)

        attach_bare(
            service,
            i,
            lambda key, item, n=i: delivered[n].append(key),
            on_batch=on_batch if batch else None,
        )

    for i in range(n):
        attach(i)
    return sim, service, delivered, batches


def run_partitioned(batch):
    """The partition/heal workload shared by the A/B assertions below."""
    partitions = PartitionSchedule.split(0, 10, [2], [0, 1])
    sim, service, delivered, batches = make_service(
        config=GossipConfig(anti_entropy_interval=4.0),
        partitions=partitions,
        batch=batch,
    )
    for i in range(8):
        service.publish(0, i, i)
    sim.run(until=10.0)
    service.start_anti_entropy()
    sim.run(until=60.0)
    return service, delivered, batches


class TestServiceBatching:
    def test_batched_delivery_is_exactly_once(self):
        service, delivered, batches = run_partitioned(batch=True)
        for node in range(3):
            assert sorted(delivered[node]) == list(range(8))
            # no key ever delivered twice, across batches and singles.
            assert len(delivered[node]) == len(set(delivered[node]))
        # the healed node really got its catch-up as batches, and at
        # least one batch covered several records at once.
        assert batches[2]
        assert any(len(group) > 1 for group in batches[2])

    def test_batching_changes_no_wire_or_delivery_accounting(self):
        """A/B: identical seeds, identical workload — byte accounting,
        delivery counts and final known sets must all match."""
        per_record = run_partitioned(batch=False)
        batched = run_partitioned(batch=True)
        assert (
            per_record[0].stats.wire.as_dict()
            == batched[0].stats.wire.as_dict()
        )
        assert (
            per_record[0].stats.deliveries == batched[0].stats.deliveries
        )
        assert (
            per_record[0].stats.items_carried
            == batched[0].stats.items_carried
        )
        for node in range(3):
            assert (
                per_record[0].known_keys(node)
                == batched[0].known_keys(node)
            )
            # same per-node delivery order, batched or not.
            assert per_record[1][node] == batched[1][node]

    def test_nodes_without_batch_handler_fall_back_per_record(self):
        sim, service, delivered, batches = make_service(batch=False)
        service.publish(0, 1, "v")
        sim.run(until=5.0)
        assert all(delivered[n] == [1] for n in range(3))
        assert all(batches[n] == [] for n in range(3))


class TestClusterBatching:
    def _run(self, piggyback=True):
        tracer = Tracer(strict=True)
        cluster = ShardCluster(
            AirlineState(),
            ClusterConfig(
                n_nodes=3,
                seed=7,
                delay=UniformDelay(0.1, 2.0),
                partitions=PartitionSchedule.split(2.0, 12.0, [0], [1, 2]),
                broadcast=GossipConfig(
                    piggyback=piggyback, anti_entropy_interval=3.0
                ),
                tracer=tracer,
            ),
        )
        for i in range(16):
            cluster.submit(i % 3, Request(f"P{i}"), at=0.5 * i)
        cluster.run(until=40.0)
        cluster.quiesce()
        return cluster, tracer

    def test_cluster_batches_deltas_and_delivers_exactly_once(self):
        cluster, tracer = self._run()
        deliveries = {}
        for event in tracer.of_kind("deliver"):
            pair = (event.node, event.get("txid"))
            deliveries[pair] = deliveries.get(pair, 0) + 1
        assert all(count == 1 for count in deliveries.values())
        expected = {
            (node, txid)
            for txid, record in cluster.records.items()
            for node in range(3)
            if node != record.origin
        }
        assert set(deliveries) == expected
        # batching engaged: the partition catch-up merged multi-record
        # spans in single undo/redo cycles.
        assert sum(n.merge.stats.batch_merges for n in cluster.nodes) > 0
        assert len(tracer.of_kind("merge_batch")) == sum(
            n.merge.stats.batch_merges for n in cluster.nodes
        )

    def test_batched_merges_preserve_transitivity(self):
        """Piggyback on: causally gated, batched delivery keeps every
        prefix transitively closed (the Section 3.3 guarantee)."""
        cluster, _ = self._run(piggyback=True)
        assert cluster.mutually_consistent()
        execution = cluster.extract_execution(verify=True)
        assert transitivity_violations(execution) == []
