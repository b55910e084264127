"""The single node wiring: one :class:`NodeHost`, any pair of adapters.

The simulator's cluster and the live node server both assemble their
nodes through :class:`repro.shard.host.NodeHost`.  These tests drive a
host directly — on the simulator adapters and on the in-memory asyncio
ones — and pin what that one wiring decides: the trace vocabulary of
merge outcomes, what a delivery is, which protocol a payload belongs to,
and that a crashed node hears nothing.
"""

import random

import pytest

from repro.apps.airline import INITIAL_STATE, Cancel, Request
from repro.certify import CommutationOracle, airline_spec, build_pair_table
from repro.gossip import GOSSIP_RUMOR, GossipConfig, GossipService
from repro.network import FixedDelay, Network
from repro.replica import EveryPositionPolicy, RunSet, policy_engine_factory
from repro.runtime.loopback import LoopbackNet, VirtualClock
from repro.shard import NodeHost, ShardCluster, ShardNode, SyncManager
from repro.shard.agent import TOKEN_GRANT, TOKEN_REQUEST
from repro.shard.sync import SYNC_PULL, SYNC_PUSH
from repro.sim import Simulator

ORACLE = CommutationOracle.from_pairs(build_pair_table(airline_spec()))


def sim_adapters():
    sim = Simulator()
    return sim, Network(sim, delay=FixedDelay(1.0), rng=random.Random(0)), sim.run


def loopback_adapters():
    clock = VirtualClock()
    return clock, LoopbackNet(clock, delay=1.0), clock.run_sync


ADAPTERS = [sim_adapters, loopback_adapters]


class Harness:
    """Host 0 on the given adapters, with node 1 a bare inbox standing
    in for the rest of the cluster."""

    def __init__(self, adapters, **host_kwargs):
        self.clock, self.transport, self.run = adapters()
        self.events = []
        self.inbox = []
        self.broadcast = GossipService(
            self.clock, self.transport, GossipConfig(), rng=random.Random(1)
        )
        self.applied = []
        self.sync = SyncManager(
            self.broadcast,
            apply=lambda node, transaction: self.applied.append(transaction),
        )
        host_kwargs.setdefault(
            "handlers",
            {SYNC_PULL: self.sync.handle, SYNC_PUSH: self.sync.handle},
        )
        self.host = NodeHost(
            0,
            {None: INITIAL_STATE},
            broadcast=self.broadcast,
            trace=self.trace,
            **host_kwargs,
        )
        self.transport.register(
            1, lambda src, payload: self.inbox.append((src, payload))
        )

    def trace(self, kind, node=None, **detail):
        self.events.append((kind, node, detail))

    def at(self, time, action):
        self.clock.schedule(time, action)


def rumor(*records):
    return (GOSSIP_RUMOR, tuple((r.txid, r) for r in records), None)


def scripted_events(adapters):
    """Local initiates, an out-of-order remote batch, its duplicate, and
    a commuting out-of-order insert — all through the transport."""
    harness = Harness(
        adapters,
        merge_factory=policy_engine_factory(
            EveryPositionPolicy, commutativity=ORACLE.commutes
        ),
    )
    host, send = harness.host, harness.transport.send
    # records as remote nodes would have produced them.
    peer, other = ShardNode(1, {None: INITIAL_STATE}), ShardNode(2, {None: INITIAL_STATE})
    first = peer.initiate(100, Request("Q1"), now=0.0)
    second = peer.initiate(101, Request("Q2"), now=0.5)
    commuting = other.initiate(200, Cancel("Z9"), now=0.0)

    harness.at(0.0, lambda: host.initiate(0, Request("P1")))
    harness.at(1.0, lambda: host.initiate(1, Request("P2")))
    # ``second`` depends on ``first``: the causal buffer reorders them
    # and the replica merges both in one undo/redo cycle.
    harness.at(2.0, lambda: send(1, 0, rumor(second, first)))
    harness.at(4.0, lambda: send(1, 0, rumor(second, first)))
    harness.at(6.0, lambda: send(1, 0, rumor(commuting)))
    harness.run()
    assert len(host.node.log) == 5
    return harness.events


class TestOneWiringOnEveryAdapter:
    def test_sim_and_loopback_hosts_emit_identical_traces(self):
        sim_events = scripted_events(sim_adapters)
        assert sim_events == scripted_events(loopback_adapters)
        assert [kind for kind, _node, _detail in sim_events] == [
            "merge_fastpath", "initiate",
            "merge_fastpath", "initiate",
            "merge_batch", "deliver", "deliver",
            # the duplicate batch is absorbed without a trace.
            "merge_certified", "deliver",
        ]
        assert all(node == 0 for _kind, node, _detail in sim_events)

    def test_trace_details(self):
        by_kind = {}
        for kind, _node, detail in scripted_events(sim_adapters):
            by_kind.setdefault(kind, []).append(detail)
        assert by_kind["initiate"] == [
            {"txid": 0, "family": "REQUEST", "seen": 0},
            {"txid": 1, "family": "REQUEST", "seen": 1},
        ]
        assert by_kind["deliver"] == [
            {"txid": 100, "origin": 1},
            {"txid": 101, "origin": 1},
            {"txid": 200, "origin": 2},
        ]
        (batch,) = by_kind["merge_batch"]
        assert batch["count"] == 2 and batch["displacement"] > 0
        (certified,) = by_kind["merge_certified"]
        assert certified["displacement"] == 2 and certified["skipped"] > 0


@pytest.mark.parametrize("adapters", ADAPTERS)
class TestDispatch:
    def test_offline_host_drops_gossip_and_sync(self, adapters):
        harness = Harness(adapters)
        record = ShardNode(1, {None: INITIAL_STATE}).initiate(
            100, Request("Q1"), now=0.0
        )
        # the pull carries node 1's (empty) run-set.
        pull = (SYNC_PULL, 7, 1, RunSet(()))
        payloads = [rumor(record), pull]
        harness.host.node.online = False
        for payload in payloads:
            harness.host.dispatch(1, payload)
        harness.run()
        assert harness.events == [] and harness.inbox == []
        assert len(harness.host.node.log) == 0
        assert harness.sync.stats.pushed_records == 0
        # the same payloads are heard once the node is back.
        harness.host.node.online = True
        for payload in payloads:
            harness.host.dispatch(1, payload)
        harness.run()
        assert [r.txid for r in harness.host.node.log] == [100]
        assert [kind for kind, _n, _d in harness.events] == [
            "merge_fastpath", "deliver",
        ]
        ((src, push),) = harness.inbox
        assert src == 0 and push[:3] == (SYNC_PUSH, 7, 0)

    def test_registered_kind_reaches_its_handler(self, adapters):
        seen = []
        harness = Harness(
            adapters,
            handlers={
                TOKEN_REQUEST: lambda *args: seen.append(args),
                TOKEN_GRANT: lambda *args: seen.append(args),
            },
        )
        request = (TOKEN_REQUEST, "agent", 0, 1)
        grant = (TOKEN_GRANT, "agent", 0, ())
        harness.transport.send(1, 0, request)
        harness.transport.send(1, 0, grant)
        harness.run()
        assert seen == [(0, 1, request), (0, 1, grant)]
        assert harness.events == []

    def test_unregistered_kind_raises(self, adapters):
        harness = Harness(adapters)
        with pytest.raises(ValueError, match="mystery"):
            harness.host.dispatch(1, ("mystery", 1, 2))
        # an owner that registers no sync handlers hears no sync kind:
        # nothing falls through to a default.
        bare = Harness(adapters, handlers={})
        with pytest.raises(ValueError, match=SYNC_PULL):
            bare.host.dispatch(1, (SYNC_PULL, 7, 1, None))
        bare.run()
        assert bare.inbox == [] and bare.sync.stats.pushed_records == 0
        assert harness.events == [] and harness.inbox == []
        assert harness.applied == []
        assert len(harness.host.node.log) == 0


class TestClusterRegistersTokenKinds:
    def test_sim_hosts_route_token_payloads_to_the_agents(self):
        cluster = ShardCluster(INITIAL_STATE)
        agent = cluster.create_agent(name="movers", home=0)
        cluster.network.send(1, 0, (TOKEN_REQUEST, "movers", 0, 1))
        cluster.run(until=1.5)
        # node 0's host handed the request to the agent, which migrated.
        assert agent.holder == 1 and agent.stats.migrations == 1
        assert [host.node for host in cluster.hosts] == cluster.nodes
