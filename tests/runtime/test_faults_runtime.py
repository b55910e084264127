"""The runtime fault seam keeps the simulator's fault semantics."""

import asyncio
import random
import struct

import pytest

from repro.apps.airline import AirlineState
from repro.apps.airline.transactions import MoveUp
from repro.chaos.faults import (
    ClockSkew,
    Crash,
    DelaySpike,
    Duplicate,
    FaultPlan,
    Partition,
)
from repro.chaos.inject import MessageFaultLayer
from repro.core.update import IDENTITY
from repro.gossip import (
    GOSSIP_ACK, GOSSIP_DELTA, GOSSIP_RUMOR, GOSSIP_SYN, GossipConfig,
    GossipService,
)
from repro.gossip.protocol import MAX_GAP_WANT
from repro.network.network import NetworkStats
from repro.replica import RunSet, UpdateRecord
from repro.replica.timestamps import Timestamp
from repro.runtime.client import NodeClient
from repro.runtime.clock import RuntimeClock, wall_epoch
from repro.runtime.config import ClusterSpec
from repro.runtime.faults import RuntimeFaultSeam
from repro.runtime.node import RES
from repro.runtime.supervisor import free_ports
from repro.runtime.transport import MAX_BATCH, MSG, TcpTransport
from repro.runtime.wire import (
    MAX_FRAME, MAX_SET, FrameSplitter, encode, frame_from_text,
)
from repro.shard.host import NodeHost
from repro.shard.sync import SYNC_PULL, SYNC_PUSH, SyncManager


def seam(*faults, seed=0):
    return RuntimeFaultSeam(FaultPlan(tuple(faults)), random.Random(seed))


class TestPartitions:
    def test_window_is_half_open(self):
        s = seam(Partition(start=2.0, end=5.0, groups=((0,), (1, 2))))
        assert not s.partitioned(1.9, 0, 1)
        assert s.partitioned(2.0, 0, 1)
        assert s.partitioned(4.9, 0, 1)
        assert not s.partitioned(5.0, 0, 1)

    def test_same_group_stays_connected(self):
        s = seam(Partition(start=0.0, end=10.0, groups=((0,), (1, 2))))
        assert not s.partitioned(3.0, 1, 2)
        assert s.partitioned(3.0, 2, 0)

    def test_drops_are_counted(self):
        s = seam(Partition(start=0.0, end=1.0, groups=((0,), (1,))))
        s.partitioned(0.5, 0, 1)
        s.partitioned(0.5, 1, 0)
        assert s.stats.dropped_partition == 2


class TestMessageFaults:
    def test_clean_plan_is_a_passthrough(self):
        s = seam()
        assert s.deliveries(1.0, 0, 1, "payload", 0.25) == [0.25]

    def test_delay_spike_slows_frames_in_window(self):
        s = seam(DelaySpike(start=0.0, end=10.0, extra_delay=3.0))
        assert s.deliveries(5.0, 0, 1, "p", 1.0) == [4.0]
        assert s.deliveries(15.0, 0, 1, "p", 1.0) == [1.0]

    def test_matches_simulator_layer_for_the_same_seed(self):
        """The seam must defer to MessageFaultLayer verbatim: identical
        plan + seed => identical per-frame delay decisions."""
        plan = FaultPlan((
            Duplicate(start=0.0, end=20.0, probability=0.5, lag=2.0),
        ))
        s = RuntimeFaultSeam(plan, random.Random(42))
        reference = MessageFaultLayer(
            plan, random.Random(42), NetworkStats()
        )
        for i in range(30):
            now = float(i)
            assert s.deliveries(now, 0, 1, f"m{i}", 1.0) == \
                reference.deliveries(now, 0, 1, f"m{i}", 1.0)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30.0))


async def wait_for(predicate, timeout=5.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


class TransportPair:
    """Two live TcpTransports over loopback: node 0 (with an optional
    fault seam on its outbound edges) talking to node 1."""

    def __init__(self, plan=None, seed=0, scale=1.0):
        self.spec = ClusterSpec(
            n_nodes=2, ports=free_ports(2), epoch=wall_epoch(), scale=scale,
        )
        self.clock = RuntimeClock(self.spec.epoch, self.spec.scale)
        seam = (
            RuntimeFaultSeam(plan, random.Random(seed))
            if plan is not None else None
        )
        self.sender = TcpTransport(self.spec, 0, self.clock, faults=seam)
        self.receiver = TcpTransport(self.spec, 1, self.clock)
        self.received = []
        self.receiver.register(
            1, lambda src, payload: self.received.append((src, payload))
        )

    async def __aenter__(self):
        await self.sender.start()
        await self.receiver.start()
        return self

    async def __aexit__(self, *exc):
        await self.sender.close()
        await self.receiver.close()


class TestBatchedSendsKeepFaultSemantics:
    """Coalescing is framing below the fault seam: faults are decided
    per payload at send time, so a batched wire drops, duplicates and
    delays exactly what an unbatched one would."""

    def test_coalesced_payloads_arrive_in_order(self):
        async def scenario():
            async with TransportPair() as pair:
                payloads = [("items", (i,)) for i in range(3 * MAX_BATCH)]
                for payload in payloads:
                    assert pair.sender.send(0, 1, payload)
                assert await wait_for(
                    lambda: len(pair.received) == len(payloads)
                )
                assert pair.received == [(0, p) for p in payloads]
                # the burst actually coalesced, under the size cap.
                profile = pair.sender.profile
                assert profile.batch_frames_out >= 1
                assert 1 < profile.max_batch_out <= MAX_BATCH
                assert profile.frames_out < len(payloads)

        run(scenario())

    def test_partitioned_payloads_never_join_a_batch(self):
        plan = FaultPlan((
            Partition(start=0.0, end=1e9, groups=((0,), (1,))),
        ))

        async def scenario():
            async with TransportPair(plan=plan) as pair:
                for i in range(20):
                    assert not pair.sender.send(0, 1, ("items", (i,)))
                await asyncio.sleep(0.2)
                assert pair.received == []
                assert pair.sender.dropped == 20
                # dropped at the seam, before framing: nothing was sent.
                assert pair.sender.profile.frames_out == 0

        run(scenario())

    def test_duplicates_join_twice_matching_the_simulator(self):
        plan = FaultPlan((
            Duplicate(start=0.0, end=1e9, probability=0.5, lag=0.05),
        ))
        seed = 42

        async def scenario():
            async with TransportPair(plan=plan, seed=seed) as pair:
                sent = 0
                for i in range(30):
                    pair.sender.send(0, 1, ("items", (i,)))
                    sent += 1
                # the simulator's layer, same plan + seed, decides the
                # same per-payload copy counts the live seam must have.
                reference = MessageFaultLayer(
                    plan, random.Random(seed), NetworkStats()
                )
                expected = sum(
                    len(reference.deliveries(0.0, 0, 1, f"m{i}", 0.0))
                    for i in range(sent)
                )
                assert expected > sent  # the fault actually fired
                assert await wait_for(
                    lambda: len(pair.received) == expected
                )

        run(scenario())

    def test_delayed_payloads_join_a_later_batch(self):
        plan = FaultPlan((
            DelaySpike(start=0.0, end=1e9, extra_delay=0.2),
        ))

        async def scenario():
            async with TransportPair(plan=plan, scale=1.0) as pair:
                for i in range(10):
                    pair.sender.send(0, 1, ("items", (i,)))
                # nothing on time: every payload sits on the clock.
                await asyncio.sleep(0.05)
                assert pair.received == []
                assert await wait_for(
                    lambda: len(pair.received) == 10
                )
                assert sorted(pair.received) == [
                    (0, ("items", (i,))) for i in range(10)
                ]

        run(scenario())


def attach_node_host(pair):
    """Put a full-replication NodeHost (gossip plus the sync kinds) on
    the receiving transport's node slot, as a live node server does."""
    broadcast = GossipService(pair.clock, pair.receiver, GossipConfig())
    broadcast.membership = pair.spec.node_ids
    sync = SyncManager(broadcast, apply=lambda origin, transaction: None)
    return NodeHost(
        1, {None: AirlineState()},
        broadcast=broadcast,
        trace=lambda kind, node=None, **detail: None,
        handlers={SYNC_PULL: sync.handle, SYNC_PUSH: sync.handle},
    )


def assert_rejected_then_served(garbage, with_host=False):
    """Send ``garbage`` on one connection: the node hangs up on it and
    counts one rejected frame, and a fresh connection is still served."""

    async def echo(frame):
        return encode(("echo", frame))

    async def scenario():
        async with TransportPair() as pair:
            if with_host:
                attach_node_host(pair)
            pair.receiver.on_request = echo
            address = pair.spec.address(1)
            reader, writer = await asyncio.open_connection(*address)
            writer.write(garbage)
            await writer.drain()
            assert await reader.read() == b""  # the node hung up
            writer.close()
            assert pair.receiver.profile.snapshot()["frames_rejected"] == 1

            reader, writer = await asyncio.open_connection(*address)
            writer.write(frame_from_text(encode(("ping", 7))))
            await writer.drain()
            replies = []
            splitter = FrameSplitter()
            while not replies:
                chunk = await reader.read(65536)
                assert chunk
                replies.extend(splitter.feed(chunk))
            writer.close()
            assert replies == [("echo", ("ping", 7))]
            assert pair.receiver.profile.frames_rejected == 1

    run(scenario())


class TestRejectedFrames:
    """A frame the node cannot decode, or a decoded protocol payload no
    handler can parse, is counted, costs only its own connection, and
    leaves the server accepting."""

    @pytest.mark.parametrize("garbage", [
        struct.pack(">I", 9) + b"{not json",
        frame_from_text('{"%tx":["NO_SUCH_FAMILY",[]]}'),
        frame_from_text('{"%ts":5}'),
        struct.pack(">I", MAX_FRAME + 1),
    ], ids=["bad-json", "unknown-family", "type-confused", "oversized"])
    def test_counted_and_a_fresh_connection_is_served(self, garbage):
        assert_rejected_then_served(garbage)

    @pytest.mark.parametrize("payload", [
        ("bogus",),
        (GOSSIP_SYN, 1),
        (SYNC_PULL, 1),
        ("items", ()),
        (SYNC_PULL, 1, 0, None),
        (SYNC_PULL, 1, 0, 5),
        (GOSSIP_SYN, 1, None, None),
        (GOSSIP_SYN, 1, 5, None),
        (GOSSIP_RUMOR, (), 5, None),
        (GOSSIP_DELTA, 0, (), 5),
        (GOSSIP_RUMOR, (("k", "v"),), None),
    ], ids=[
        "unknown-kind", "short-gossip-syn", "short-sync-pull",
        "retired-items-kind", "sync-pull-without-digest",
        "sync-pull-int-digest", "gossip-syn-without-digest",
        "gossip-syn-int-digest", "rumor-with-a-retired-digest-field",
        "delta-int-want", "rumor-with-a-str-key",
    ])
    def test_malformed_payload_through_a_node_host(self, payload):
        assert_rejected_then_served(
            frame_from_text(encode((MSG, 0, payload))), with_host=True
        )


#: where a retired cell digest (``RangeDigest``) used to go on the wire.
RETIRED_DIGEST = '{"%dg":[32,{"%t":[{"%t":[null,0,3,12345]}]},null]}'


def with_retired_digest(payload):
    """A frame of ``payload`` whose ``"DIGEST"`` field is written as the
    retired digest's tag, which the codec no longer knows."""
    return frame_from_text(
        encode((MSG, 0, payload)).replace('"DIGEST"', RETIRED_DIGEST)
    )


class TestRetiredDigestShapes:
    """Anti-entropy sends run-sets: a payload in the retired cell-digest
    exchange's shape — a digest, an ACK of per-cell key lists, a want
    spelled as a key tuple — is rejected and counted, and the node keeps
    serving."""

    @pytest.mark.parametrize("frame", [
        with_retired_digest((GOSSIP_SYN, 1, "DIGEST", None)),
        with_retired_digest((SYNC_PULL, 1, 0, "DIGEST")),
        frame_from_text(encode((
            MSG, 0, (GOSSIP_ACK, 1, ((None, 0, (1, 2)),), None),
        ))),
        frame_from_text(encode((MSG, 0, (GOSSIP_DELTA, None, (), (1, 2))))),
    ], ids=[
        "syn-with-a-cell-digest", "sync-pull-with-a-cell-digest",
        "ack-with-cell-key-lists", "delta-with-a-key-tuple-want",
    ])
    def test_rejected_and_counted(self, frame):
        assert_rejected_then_served(frame, with_host=True)


class TestHostileRunSets:
    """A SYN, an ACK and a want whose set stands for ``MAX_SET`` keys in
    two bounds: the node answers from what it holds — its own runs, the
    difference as bounds, the records it has — so every reply is bounded
    by its log, not by the claim, and nothing is rejected."""

    def test_replies_are_bounded_by_what_the_node_holds(self):
        everything = RunSet((0, MAX_SET - 1))

        async def scenario():
            async with TransportPair() as pair:
                host = attach_node_host(pair)
                broadcast = host.broadcast
                replies = []
                pair.sender.register(
                    0, lambda src, payload: replies.append(payload)
                )

                async def reply_to(payload):
                    replies.clear()
                    assert pair.sender.send(0, 1, payload)
                    assert await wait_for(lambda: replies)
                    (reply,) = replies
                    return reply

                for txid in (5, 6, 7):
                    assert pair.sender.send(0, 1, rumor_of(txid, RunSet(())))
                assert await wait_for(lambda: len(broadcast._known[1]) == 3)

                kind, _, held, _ = await reply_to(
                    (GOSSIP_SYN, 1, everything, None)
                )
                assert kind == GOSSIP_ACK and held.bounds == (5, 7)

                kind, _, items, want = await reply_to(
                    (GOSSIP_ACK, 1, everything, None)
                )
                assert kind == GOSSIP_DELTA and items == ()
                assert want.bounds == (0, 4, 8, MAX_SET - 1)

                kind, _, items, want = await reply_to(
                    (GOSSIP_DELTA, None, (), everything)
                )
                assert kind == GOSSIP_DELTA and not want
                assert [key for key, _ in items] == [5, 6, 7]

                assert pair.sender.send(0, 1, rumor_of(8, RunSet(())))
                assert await wait_for(lambda: 8 in broadcast._known[1])
                assert pair.receiver.profile.frames_rejected == 0

        run(scenario())


def rumor_of(txid, seen):
    record = UpdateRecord(
        Timestamp(1, 0), txid, MoveUp(1), IDENTITY, 0, 0.0, seen
    )
    return (GOSSIP_RUMOR, ((txid, record),), None)


class TestHostileRumor:
    """A rumor is about 100 B however many keys its record's seen-set
    stands for, so the gap want it triggers reads and names at most
    :data:`MAX_GAP_WANT` of them: the want state stays bounded and the
    node keeps serving."""

    def test_a_gap_of_max_set_keys_is_wanted_a_bounded_slice(self):
        async def scenario():
            async with TransportPair() as pair:
                host = attach_node_host(pair)
                broadcast = host.broadcast
                deltas = []
                pair.sender.register(
                    0, lambda src, payload: deltas.append(payload)
                )
                hostile = rumor_of(MAX_SET, RunSet((0, MAX_SET - 1)))
                assert pair.sender.send(0, 1, hostile)
                assert await wait_for(lambda: deltas)
                (kind, _, items, want), = deltas
                assert kind == GOSSIP_DELTA and items == ()
                assert want.bounds == (0, MAX_GAP_WANT - 1)
                assert len(broadcast._wanted[1]) == MAX_GAP_WANT

                honest = rumor_of(MAX_SET + 1, RunSet(()))
                assert pair.sender.send(0, 1, honest)
                assert await wait_for(
                    lambda: MAX_SET + 1 in broadcast._known[1]
                )
                assert MAX_SET in broadcast._buffers[1]
                assert len(deltas) == 1
                assert pair.receiver.profile.frames_rejected == 0

        run(scenario())


class TestInboundCountersAreLive:
    """Inbound frame and byte counters move while a connection is still
    open, on the node side and on the client side, so a ``status``
    snapshot shows what the node has received so far."""

    def test_snapshots_mid_connection_count_received_frames(self):
        async def scenario():
            async with TransportPair() as pair:
                server = pair.receiver.profile

                async def status(frame):
                    return encode((RES, frame[1], True, server.snapshot()))

                pair.receiver.on_request = status
                for i in range(20):
                    assert pair.sender.send(0, 1, ("items", (i,)))
                assert await wait_for(lambda: len(pair.received) == 20)
                assert server.frames_in == pair.sender.profile.frames_out
                assert server.bytes_in == pair.sender.profile.bytes_out

                client = NodeClient(*pair.spec.address(1))
                try:
                    first = await client.request("status")
                    second = await client.request("status")
                    # each snapshot already counts the request it answers.
                    sent = pair.sender.profile.frames_out
                    assert first["frames_in"] == sent + 1
                    assert second["frames_in"] == first["frames_in"] + 1
                    assert second["bytes_in"] > first["bytes_in"]
                    assert client.profile.frames_in == 2
                    assert client.profile.bytes_in > 0
                finally:
                    client.close()

        run(scenario())


class TestProcessSchedules:
    def test_crashes_sorted_by_onset(self):
        s = seam(
            Crash(node=2, at=9.0, recover_at=12.0),
            Crash(node=0, at=3.0, recover_at=5.0),
            Partition(start=1.0, end=2.0, groups=((0,), (1, 2))),
        )
        assert [(c.node, c.at) for c in s.crashes()] == [(0, 3.0), (2, 9.0)]

    def test_skews_sorted_by_onset(self):
        s = seam(
            ClockSkew(node=1, at=7.0, drift=4),
            ClockSkew(node=0, at=2.0, drift=1),
        )
        assert [(k.node, k.at) for k in s.skews()] == [(0, 2.0), (1, 7.0)]
