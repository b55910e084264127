"""Full-replication gossip pinned end to end: one digest over a grid of runs.

Every observable the gossip service produces on a fully replicated
cluster is folded into one sha256: each node's delivery order (the
service's known set and the replica log), every ``GossipStats``,
``DeltaStats``, ``WireStats`` and ``SchedulerStats`` field, and every
``gossip_*`` and ``deliver`` trace event with its time and detail.  The
grid crosses flooding on/off, piggyback on/off, one partition on/off and
one volatile-state-losing crash on/off over two seeds, on four nodes.

The constant moves only when dissemination's behaviour does — message
order, peer choice, RNG draws or what a payload carries.  A refactor of
how the service is put together must leave it alone.
"""

import dataclasses
import hashlib
import itertools
import random

from repro.apps.airline import AirlineState, Cancel, MoveUp, Request
from repro.chaos.faults import Crash, FaultPlan
from repro.chaos.inject import ChaosInjector
from repro.gossip import GossipConfig
from repro.network import PartitionSchedule, UniformDelay
from repro.replica import FixedIntervalPolicy, policy_engine_factory
from repro.shard import ClusterConfig, ShardCluster
from repro.sim.trace import Tracer

N_NODES = 4
CAPACITY = 3

PINNED_DIGEST = (
    "73b2a505714dd2af45f2876bede31a930296e007e24c4853eec4476529f32e84"
)


def drive(seed, flood, piggyback, partition, crash):
    """One seeded run: REQUEST/MOVE_UP/CANCEL traffic at random nodes
    from before the partition (and crash) until after both end, then
    run on and quiesce."""
    tracer = Tracer()
    cluster = ShardCluster(
        AirlineState(),
        ClusterConfig(
            n_nodes=N_NODES,
            seed=seed,
            delay=UniformDelay(0.2, 1.5),
            partitions=(
                PartitionSchedule.split(6, 20, [0, 1], [2, 3])
                if partition else None
            ),
            broadcast=GossipConfig(
                flood=flood,
                piggyback=piggyback,
                anti_entropy_interval=3.0,
                ack_timeout=2.0,
            ),
            merge_factory=policy_engine_factory(
                lambda: FixedIntervalPolicy(8)
            ),
            tracer=tracer,
        ),
    )
    if crash:
        ChaosInjector(
            cluster,
            FaultPlan((Crash(3, at=9.0, recover_at=16.0, lose_volatile=True),)),
        ).install()
    rng = random.Random(seed)
    people = []
    for i in range(48):
        roll = rng.random()
        if roll < 0.2:
            transaction = MoveUp(CAPACITY)
        elif roll < 0.35 and people:
            transaction = Cancel(rng.choice(people))
        else:
            people.append(f"P{i}")
            transaction = Request(f"P{i}")
        cluster.submit(rng.randrange(N_NODES), transaction, at=0.5 * i)
    cluster.run(until=60.0)
    cluster.quiesce()
    return cluster, tracer


def fields(obj):
    return tuple(
        (f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)
    )


def observables(cluster, tracer):
    service = cluster.broadcast
    stats = service.stats
    out = [
        ("gossip", tuple(
            (name, value) for name, value in fields(stats)
            if name not in ("delta", "wire")
        )),
        ("delta", fields(stats.delta)),
        ("wire", fields(stats.wire)),
        ("scheduler", fields(service.scheduler.stats)),
    ]
    for n, node in enumerate(cluster.nodes):
        out.append(("known", n, service.known_keys(n)))
        out.append(("log", n, tuple(r.txid for r in node.replica.log)))
    out.append(("events", tuple(
        (e.time, e.kind, e.node, e.detail)
        for e in tracer.events
        if e.kind == "deliver" or e.kind.startswith("gossip_")
    )))
    return out


def grid_digest():
    digest = hashlib.sha256()
    for seed, flood, piggyback, partition, crash in itertools.product(
        (0, 1), (False, True), (False, True), (False, True), (False, True),
    ):
        cluster, tracer = drive(seed, flood, piggyback, partition, crash)
        assert cluster.broadcast.converged()
        assert cluster.mutually_consistent()
        run = (seed, flood, piggyback, partition, crash)
        digest.update(repr((run, observables(cluster, tracer))).encode())
    return digest.hexdigest()


def test_full_replication_grid_is_pinned():
    assert grid_digest() == PINNED_DIGEST
