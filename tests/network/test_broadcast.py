"""Tests for the reliable broadcast layer (:class:`GossipService` over
the simulated network)."""

import random

import pytest

from repro.gossip import GossipConfig, GossipService
from repro.network import FixedDelay, Network, PartitionSchedule
from repro.sim import Simulator
from tests.helpers import attach_bare


def make_broadcast(n=3, config=None, partitions=None, seed=0):
    sim = Simulator()
    net = Network(
        sim,
        delay=FixedDelay(1.0),
        partitions=partitions,
        rng=random.Random(seed),
    )
    bcast = GossipService(sim, net, config, rng=random.Random(seed + 1))
    delivered = {i: [] for i in range(n)}
    for i in range(n):
        attach_bare(bcast, i, lambda key, item, n=i: delivered[n].append(key))
    return sim, bcast, delivered


class TestFlooding:
    def test_publish_reaches_everyone(self):
        sim, bcast, delivered = make_broadcast()
        bcast.publish(0, 1, "v1")
        sim.run()
        assert all(keys == [1] for keys in delivered.values())
        assert bcast.converged()

    def test_publisher_delivers_to_itself_immediately(self):
        sim, bcast, delivered = make_broadcast()
        bcast.publish(1, 1, "v")
        assert delivered[1] == [1]

    def test_duplicate_keys_delivered_once(self):
        sim, bcast, delivered = make_broadcast()
        bcast.publish(0, 1, "v")
        bcast.publish(1, 1, "v")
        sim.run()
        assert all(keys.count(1) == 1 for keys in delivered.values())

    def test_piggyback_carries_known_set(self):
        config = GossipConfig(flood=True, piggyback=True,
                                 anti_entropy_interval=1e9)
        sim, bcast, delivered = make_broadcast(config=config)
        bcast.publish(0, 1, 1)
        sim.run()
        # node 1 now knows 1; when it publishes 2, its flood message
        # carries both, so a node that missed 1 would still learn it.
        bcast.publish(1, 2, 2)
        sim.run()
        assert set(delivered[2]) == {1, 2}

    def test_no_flood_means_no_delivery_without_gossip(self):
        config = GossipConfig(flood=False, anti_entropy_interval=1e9)
        sim, bcast, delivered = make_broadcast(config=config)
        bcast.publish(0, 1, "v")
        sim.run()
        assert delivered[1] == [] and delivered[2] == []


class TestAntiEntropy:
    def test_gossip_spreads_items(self):
        config = GossipConfig(
            flood=False, anti_entropy_interval=1.0, fanout=2
        )
        sim, bcast, delivered = make_broadcast(config=config)
        bcast.start_anti_entropy()
        bcast.publish(0, 1, "v")
        sim.run(until=30.0)
        assert all(1 in keys for keys in delivered.values())

    def test_partition_heals_through_gossip(self):
        partitions = PartitionSchedule.split(0, 50, [0], [1, 2])
        config = GossipConfig(flood=True, anti_entropy_interval=2.0)
        sim, bcast, delivered = make_broadcast(
            config=config, partitions=partitions
        )
        bcast.start_anti_entropy()
        bcast.publish(0, 7, "v")  # flood blocked by partition
        sim.run(until=40.0)
        assert 7 not in delivered[1]
        sim.run(until=80.0)  # healed at t=50; gossip carries it over
        assert 7 in delivered[1] and 7 in delivered[2]
        assert bcast.converged()

    def test_stop_anti_entropy_drains_queue(self):
        config = GossipConfig(flood=False, anti_entropy_interval=1.0)
        sim, bcast, delivered = make_broadcast(config=config)
        bcast.start_anti_entropy()
        sim.run(until=5.0)
        bcast.stop_anti_entropy()
        sim.run()  # terminates because ticks stop rescheduling

    def test_exchange_all_forces_convergence(self):
        config = GossipConfig(flood=False, anti_entropy_interval=1e9)
        sim, bcast, delivered = make_broadcast(config=config)
        bcast.publish(0, 1, 1)
        bcast.publish(1, 2, 2)
        assert not bcast.converged()
        bcast.exchange_all()
        assert bcast.converged()
        assert bcast.missing_counts() == {0: 0, 1: 0, 2: 0}


class TestBookkeeping:
    def test_double_attach_rejected(self):
        sim, bcast, _ = make_broadcast()
        with pytest.raises(ValueError):
            attach_bare(bcast, 0, lambda k, i: None)

    def test_known_keys(self):
        sim, bcast, _ = make_broadcast()
        bcast.publish(0, 1, 1)
        assert bcast.known_keys(0) == (1,)
        assert bcast.known_keys(1) == ()

    def test_missing_counts(self):
        config = GossipConfig(flood=False, anti_entropy_interval=1e9)
        sim, bcast, _ = make_broadcast(config=config)
        bcast.publish(0, 1, 1)
        assert bcast.missing_counts() == {0: 0, 1: 1, 2: 1}

    def test_stats(self):
        sim, bcast, _ = make_broadcast()
        bcast.publish(0, 1, 1)
        sim.run()
        assert bcast.stats.published == 1
        assert bcast.stats.flood_messages == 2
        assert bcast.stats.deliveries == 3
