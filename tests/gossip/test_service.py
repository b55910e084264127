"""Tests for the gossip service: delta protocol, gating, delivery delays."""

import random
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.banking import Deposit, INITIAL_BANK_STATE
from repro.gossip import (
    GOSSIP_ACK, GOSSIP_DELTA, GOSSIP_SYN, GossipConfig, GossipService,
)
from repro.gossip import service as service_module
from repro.gossip.protocol import REPAIR_COOLDOWN
from repro.network import FixedDelay, Network, PartitionSchedule
from repro.replica import RunSet
from repro.replica.log import runs_intersection, runs_of
from repro.runtime import wire
from repro.shard import ClusterConfig, ShardCluster
from repro.sim import Simulator
from repro.sim.trace import Tracer
from tests.helpers import attach_bare


def make_service(n=3, config=None, partitions=None, seed=0, holdings=None):
    sim = Simulator()
    net = Network(
        sim,
        delay=FixedDelay(1.0),
        partitions=partitions,
        rng=random.Random(seed),
    )
    service = GossipService(sim, net, config, rng=random.Random(seed + 1))
    delivered = {i: [] for i in range(n)}
    for i in range(n):
        attach_bare(
            service, i, lambda key, item, n=i: delivered[n].append(key),
            groups=None if holdings is None else holdings[i],
        )
    return sim, service, delivered


@dataclass(frozen=True)
class Grouped:
    """An opaque item of one group (the service reads ``group``)."""

    group: str


#: node 0 holds both groups, node 1 only "a", node 2 only "b".
HOLDINGS = {0: {"a", "b"}, 1: {"a"}, 2: {"b"}}


class TestDeltaProtocol:
    def test_synced_peers_skip(self):
        """Anti-entropy between identical nodes ships zero records."""
        sim, service, _ = make_service(
            config=GossipConfig(anti_entropy_interval=2.0)
        )
        service.publish(0, 1, "v")
        sim.run(until=5.0)  # flood converges everyone
        carried_before = service.stats.items_carried
        service.start_anti_entropy()
        sim.run(until=20.0)
        assert service.stats.delta.skips > 0
        assert service.stats.items_carried == carried_before
        assert service.stats.delta.delta_records == 0

    def test_delta_ships_only_missing_records(self):
        """A node that missed one flood receives exactly that record."""
        partitions = PartitionSchedule.split(0, 10, [2], [0, 1])
        sim, service, delivered = make_service(
            config=GossipConfig(anti_entropy_interval=4.0),
            partitions=partitions,
        )
        for i in range(8):
            service.publish(0, i, i)
        sim.run(until=10.0)  # floods reach node 1; node 2 cut off
        assert len(delivered[1]) == 8 and delivered[2] == []
        service.start_anti_entropy()
        sim.run(until=60.0)
        assert sorted(delivered[2]) == list(range(8))
        # reconciliation shipped each missing record a bounded number of
        # times (push-pull may cross), never the full-set-per-round blowup.
        assert service.stats.delta.delta_records <= 3 * 8

    def test_timeouts_feed_the_scheduler(self):
        partitions = PartitionSchedule.split(0, 50, [0], [1, 2])
        sim, service, _ = make_service(
            config=GossipConfig(anti_entropy_interval=2.0),
            partitions=partitions,
        )
        service.start_anti_entropy()
        sim.run(until=30.0)
        assert service.stats.delta.timeouts > 0
        assert service.scheduler.stats.failures > 0
        # exponential backoff keeps the unreachable pair off the wire:
        # far fewer SYNs than one per round.
        assert service.stats.delta.syns < 30.0 / 2.0 * 3

    def test_open_sessions_drain(self):
        sim, service, _ = make_service(
            config=GossipConfig(anti_entropy_interval=3.0)
        )
        service.publish(0, 1, "v")
        service.start_anti_entropy()
        sim.run(until=50.0)
        service.stop_anti_entropy()
        sim.run()
        assert service.open_sessions == 0


class TestGroups:
    def test_floods_reach_only_the_groups_holders(self):
        sim, service, delivered = make_service(holdings=HOLDINGS)
        service.publish(0, 1, Grouped("a"))
        service.publish(0, 2, Grouped("b"))
        service.publish(1, 3, Grouped("a"))
        sim.run(until=5.0)
        assert {n: sorted(keys) for n, keys in delivered.items()} == {
            0: [1, 2, 3], 1: [1, 3], 2: [2],
        }
        assert service.stats.flood_messages == 3

    def test_digest_restricted_only_when_the_peer_lacks_groups(self):
        sim, service, _ = make_service(
            config=GossipConfig(flood=False), holdings=HOLDINGS
        )
        service.publish(0, 1, Grouped("a"))
        service.publish(0, 2, Grouped("b"))
        service.publish(1, 3, Grouped("a"))
        # node 0 holds all of node 1's groups: node 1's whole set.
        assert service.held(1, 0) == service.held(1) == {3}
        # node 1 lacks "b": node 0's set towards it covers "a" only.
        assert service.held(0, 1) == {1}
        assert service.held(0, 2) == {2}
        assert service.held(0) == {1, 2}
        # full replication (no holdings): every peer gets the whole set.
        sim, flat, _ = make_service(config=GossipConfig(flood=False))
        flat.publish(0, 1, "v")
        assert flat.held(0, 1) == flat.held(0) == {1}

    def test_convergence_and_exchange_count_held_groups_only(self):
        sim, service, delivered = make_service(
            config=GossipConfig(flood=False), holdings=HOLDINGS
        )
        service.publish(0, 1, Grouped("a"))
        service.publish(0, 2, Grouped("b"))
        assert service.missing_counts() == {0: 0, 1: 1, 2: 1}
        assert not service.converged()
        service.exchange_all()
        # nobody counts or receives a foreign group's item.
        assert service.missing_counts() == {0: 0, 1: 0, 2: 0}
        assert service.converged()
        assert delivered == {0: [1, 2], 1: [1], 2: [2]}

    @pytest.mark.parametrize("extras", [False, True])
    def test_anti_entropy_skips_disjoint_peers_unless_extras(
        self, extras
    ):
        sim, service, _ = make_service(
            config=GossipConfig(anti_entropy_interval=1.0),
            holdings={0: {"a"}, 1: {"b"}, 2: {"a"}},
        )
        pairs = set()
        service.on_event = lambda kind, node, peer=None, **_: (
            pairs.add(frozenset((node, peer))) if kind == "gossip_syn"
            else None
        )
        if extras:
            service.extras = lambda node, peer: None
        service.start_anti_entropy()
        sim.run(until=30.0)
        lonely = {frozenset((0, 1)), frozenset((1, 2))}
        assert frozenset((0, 2)) in pairs
        assert bool(pairs & lonely) == extras


class TestCausalGating:
    def test_item_waits_for_dependency(self):
        sim, service, delivered = make_service(
            config=GossipConfig(flood=False, anti_entropy_interval=1e9)
        )
        service.depends_on = lambda key, item: item[1]
        # 2 depends on 1; offered alone it must buffer.
        service.merge_items(0, [(2, ("vb", (1,)))])
        assert delivered[0] == []
        service.merge_items(0, [(1, ("va", ()))])
        assert delivered[0] == [1, 2]
        assert service.stats.deliveries == 2

    def test_chains_flush_transitively(self):
        sim, service, delivered = make_service(
            config=GossipConfig(flood=False, anti_entropy_interval=1e9)
        )
        service.depends_on = lambda key, item: item[1]
        service.merge_items(0, [(3, ("vc", (2,)))])
        service.merge_items(0, [(2, ("vb", (1,)))])
        assert delivered[0] == []
        service.merge_items(0, [(1, ("va", ()))])
        assert delivered[0] == [1, 2, 3]

    def test_no_gating_without_piggyback(self):
        """piggyback=False must disable gating too — it models the
        no-piggyback ablation where transitivity is allowed to fail."""
        sim, service, delivered = make_service(
            config=GossipConfig(
                piggyback=False, flood=False, anti_entropy_interval=1e9
            )
        )
        service.depends_on = lambda key, item: item[1]
        service.merge_items(0, [(2, ("vb", (1,)))])
        assert delivered[0] == [2]


def record_wants(service):
    """Spy on ``service``'s sends: returns the list every DELTA with a
    non-empty want is appended to, as ``(src, dst, want)``."""
    wants = []
    send = service.transport.send

    def spy(src, dst, payload):
        if payload[0] == GOSSIP_DELTA and payload[3]:
            wants.append((src, dst, payload[3]))
        return send(src, dst, payload)

    service.transport.send = spy
    return wants


def gap_service(piggyback=True, cut=(1,)):
    """Three nodes with anti-entropy off and ``cut`` partitioned from
    the rest for the first half second; items are ``(value, deps)``."""
    rest = [n for n in range(3) if n not in cut]
    sim, service, delivered = make_service(
        config=GossipConfig(piggyback=piggyback, anti_entropy_interval=1e9),
        partitions=PartitionSchedule.split(0, 0.5, list(cut), rest),
    )
    service.depends_on = lambda key, item: item[1]
    return sim, service, delivered, record_wants(service)


class TestGapWant:
    """A rumor the causal gate buffers makes the receiver want exactly
    its missing dependencies from the rumor's sender."""

    def test_the_next_rumor_repairs_a_dropped_one(self):
        sim, service, delivered, wants = gap_service()
        service.publish(0, 1, ("va", ()))  # lost on the way to node 1
        sim.run(until=1.0)
        service.publish(0, 2, ("vb", (1,)))
        sim.run(until=10.0)
        assert wants == [(1, 0, {1})]
        assert delivered[1] == [1, 2]
        assert service.stats.delta.repair_pulls == 1

    def test_one_want_per_pair_within_the_cooldown(self):
        sim, service, delivered, wants = gap_service()
        service.publish(0, 1, ("v", ()))
        service.publish(0, 2, ("v", ()))
        sim.run(until=1.0)
        service.publish(0, 11, ("v", (1,)))
        sim.run(until=1.5)
        service.publish(0, 12, ("v", (2,)))
        sim.run(until=1.0 + REPAIR_COOLDOWN)
        assert wants == [(1, 0, {1})]
        sim.run(until=10.0)
        assert delivered[1] == [1, 11]
        assert 12 in service._buffers[1]

    def test_a_wanted_key_is_not_wanted_again_from_another_peer(self):
        sim, service, delivered, wants = gap_service()
        service.publish(0, 1, ("va", ()))  # reaches node 2 only
        sim.run(until=0.6)
        service.publish(0, 2, ("vb", (1,)))  # node 1 wants 1 of 0
        sim.run(until=1.2)
        service.publish(2, 3, ("vc", (1,)))  # buffered at node 1 too
        sim.run(until=10.0)
        assert wants == [(1, 0, {1})]
        assert delivered[1] == [1, 2, 3]

    def test_the_want_state_keeps_only_the_cooldown(self):
        sim, service, delivered, wants = gap_service()
        service.publish(0, 1, ("v", ()))  # both lost on the way to 1
        service.publish(0, 2, ("v", ()))
        sim.run(until=1.0)
        service.publish(0, 11, ("v", (1,)))  # wanted at 2.0
        sim.run(until=4.5)
        service.publish(0, 12, ("v", (2,)))  # wanted at 5.5
        sim.run(until=5.6)
        assert [want for *_, want in wants] == [{1}, {2}]
        assert list(service._wanted[1]) == [2]
        sim.run(until=10.0)
        assert delivered[1] == [1, 11, 2, 12]

    def test_a_backed_off_sender_is_still_wanted_from(self):
        """The rumor just came from the sender, so its back-off (built
        while a partition hid it) does not hold the want back."""
        sim, service, delivered, wants = gap_service()
        service.publish(0, 1, ("va", ()))
        sim.run(until=1.0)
        service.scheduler.failure(1, 0, sim.now)
        assert not service.scheduler.eligible(1, 0, sim.now + 1.0)
        service.publish(0, 2, ("vb", (1,)))
        sim.run(until=10.0)
        assert wants == [(1, 0, {1})]
        assert delivered[1] == [1, 2]

    def test_no_want_without_piggyback(self):
        sim, service, delivered, wants = gap_service(piggyback=False)
        service.publish(0, 1, ("va", ()))
        sim.run(until=1.0)
        service.publish(0, 2, ("vb", (1,)))
        sim.run(until=10.0)
        assert wants == []
        assert delivered[1] == [2]

    def test_forget_empties_the_want_state(self):
        sim, service, delivered, wants = gap_service()
        service.publish(0, 1, ("va", ()))
        sim.run(until=1.0)
        service.publish(0, 2, ("vb", (1,)))
        sim.run(until=2.5)  # wanted, not yet answered
        assert wants and service._wanted[1] and service._last_want[1]
        service.forget(1, ())
        assert service._wanted[1] == {} and service._last_want[1] == {}

    def test_a_want_of_nothing_held_gets_no_reply(self):
        sim, service, _ = make_service(
            config=GossipConfig(anti_entropy_interval=1e9)
        )
        service.receive(0, (GOSSIP_DELTA, None, (), RunSet((99, 99))), src=1)
        sim.run(until=10.0)
        assert service.stats.delta.deltas == 0


class Outbox:
    """A transport that only keeps what is sent."""

    def __init__(self):
        self.sent = []

    def send(self, src, dst, payload):
        self.sent.append((src, dst, payload))
        return True


class TestPublishTimes:
    def test_a_one_node_host_keeps_no_publish_times(self):
        """A live process hosts one node and never delivers its own
        keys remotely, so it records no publish time at all."""
        service = GossipService(Simulator(), Outbox())
        service.membership = (0, 1, 2)
        service.attach(0, lambda batch: None)
        for i in range(5):
            service.publish(0, i, ("v", ()))
        assert len(service.transport.sent) == 10
        assert service._published_at == {}
        assert service.stats.delivery_delays == []


class TestDeliveryDelays:
    """The bandwidth economics against the full-set reference are E9b's
    and E10d's assertions (benchmarks/fullset.py)."""

    def test_delivery_delays_recorded(self):
        n_nodes, n_txns, seed = 4, 30, 11
        cluster = ShardCluster(
            INITIAL_BANK_STATE, ClusterConfig(n_nodes=n_nodes, seed=seed)
        )
        rng = random.Random(seed)
        for i in range(n_txns):
            cluster.submit(
                rng.randrange(n_nodes),
                Deposit(f"acct{i % 5}", 1),
                at=float(i),
            )
        cluster.run(until=n_txns + 30.0)
        cluster.quiesce()
        assert cluster.converged() and cluster.mutually_consistent()
        delays = cluster.broadcast.stats.delivery_delays
        # every record eventually reaches the other 3 nodes over the wire
        # (quiesce-driven deliveries are instantaneous and not sampled).
        assert len(delays) > 0
        assert all(d > 0 for d in delays)


class TestDeterminism:
    def test_runs_reproducible_despite_global_rng(self):
        """Seeded clusters give identical runs even when the module
        global random is perturbed (the nondeterminism satellite)."""
        def run(seed):
            random.seed(seed * 99991)  # would derail a global-rng user
            tracer = Tracer()
            cluster = ShardCluster(
                INITIAL_BANK_STATE,
                ClusterConfig(n_nodes=3, seed=5, tracer=tracer),
            )
            for i in range(10):
                cluster.submit(i % 3, Deposit("a", 1), at=float(i))
            cluster.run(until=40.0)
            cluster.quiesce()
            return (
                cluster.broadcast.stats.items_carried,
                cluster.broadcast.stats.wire.bytes,
                tuple(
                    (e.time, e.kind, e.node) for e in tracer.events
                ),
            )

        assert run(1) == run(2)


class TestTraceEvents:
    def test_gossip_events_reach_the_tracer(self):
        tracer = Tracer()
        partitions = PartitionSchedule.split(0, 20, [0], [1, 2])
        cluster = ShardCluster(
            INITIAL_BANK_STATE,
            ClusterConfig(
                n_nodes=3,
                seed=3,
                partitions=partitions,
                tracer=tracer,
                broadcast=GossipConfig(anti_entropy_interval=2.0),
            ),
        )
        for i in range(6):
            cluster.submit(i % 3, Deposit("a", 1), at=float(i))
        cluster.run(until=60.0)
        cluster.quiesce()
        counts = tracer.counts()
        assert counts.get("gossip_syn", 0) > 0
        assert counts.get("gossip_delta", 0) > 0
        assert counts.get("gossip_skip", 0) > 0


class TestRunSetExchange:
    """Every set the exchange sends — a SYN's, an ACK's, a want, a gap
    want — is a ``RunSet``, every want is answered by run intersection,
    and the protocol converges on them alone."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        flood=st.booleans(),
        loss=st.sampled_from([0.0, 0.1, 0.3]),
        publishes=st.lists(
            st.tuples(st.floats(0.0, 20.0), st.integers(0, 3)),
            min_size=1, max_size=15,
        ),
    )
    def test_every_want_is_a_run_set_and_gossip_converges(
        self, seed, flood, loss, publishes
    ):
        sim = Simulator()
        net = Network(
            sim, delay=FixedDelay(0.5), loss_probability=loss,
            rng=random.Random(seed),
        )
        service = GossipService(
            sim, net,
            GossipConfig(flood=flood, anti_entropy_interval=2.0,
                         ack_timeout=1.5),
            rng=random.Random(seed + 1),
        )
        delivered = {n: [] for n in range(4)}
        for n in range(4):
            attach_bare(
                service, n, lambda key, item, n=n: delivered[n].append(key)
            )
        # an item is its publisher's delivered keys, which it depends on:
        # a seen-set, so every gap and every exchange is run arithmetic.
        service.depends_on = lambda key, item: item
        sets = []
        send = service.transport.send

        def spy(src, dst, payload):
            if payload[0] in (GOSSIP_SYN, GOSSIP_ACK):
                sets.append(payload[2])
            elif payload[0] == GOSSIP_DELTA:
                sets.append(payload[3])
            return send(src, dst, payload)

        service.transport.send = spy
        # every want a node receives must reach runs_intersection as is:
        # the answer is run arithmetic, never a walk over the want's keys.
        received, intersected = [], []

        def intersection(a, b):
            intersected.append(a)
            return runs_intersection(a, b)

        on_delta = service._handlers[GOSSIP_DELTA]

        def on_delta_spy(node_id, src, payload):
            if payload[3]:
                received.append(payload[3].bounds)
            return on_delta(node_id, src, payload)

        service._handlers[GOSSIP_DELTA] = on_delta_spy
        for key, (at, node) in enumerate(sorted(publishes)):
            sim.schedule_at(at, lambda n=node, k=key: service.publish(
                n, k, RunSet(tuple(runs_of(service.known_keys(n))))
            ))
        with mock.patch.object(
            service_module, "runs_intersection", intersection
        ):
            service.start_anti_entropy()
            sim.run(until=600.0)
            service.stop_anti_entropy()
            sim.run()
        assert service.converged()
        assert all(
            any(a is bounds for a in intersected) for bounds in received
        )
        for keys in delivered.values():
            assert sorted(keys) == list(range(len(publishes)))
        assert all(type(s) is RunSet for s in sets)
        assert all(wire.decode(wire.encode(s)).bounds == s.bounds for s in sets)
        if not flood:
            assert service.stats.delta.delta_records > 0
