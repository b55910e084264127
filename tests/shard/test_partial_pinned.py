"""Partial replication pinned end to end: one digest over a grid of runs.

Every observable a partially replicated run produces is folded into one
sha256: the flood, anti-entropy and items-carried counters with every
delta-protocol and wire counter; each node's per-object log; each
replica's merge statistics; each object's extracted prefixes, deficits
and final state; and each node's cache of foreign-object summaries,
mid-run and at the end.  The grid crosses three placements with two
seeds, summaries on/off, one partition on/off and flooding on/off.

The constant moves only when partial replication's behaviour does — a
refactor of how the cluster is wired must leave it alone.  It pins the
txids too: each group numbers its own from its own base.  It pins
delivery-time clock observation and one undo/redo cycle per object per
delivery batch: observing a record's timestamp at receipt instead (the
partitioned, flooding runs issue different timestamps) or merging one
record at a time (the merge statistics differ) moves it.
"""

import dataclasses
import hashlib
import itertools
import random

from repro.apps.airline import AirlineState, Cancel, MoveUp, Request
from repro.network import PartitionSchedule
from repro.gossip import GossipConfig
from repro.shard import ClusterConfig, ShardCluster, Summaries

OBJECTS = ("f1", "f2", "f3")
CAPACITY = 3

PLACEMENTS = {
    "chain": {0: {"f1"}, 1: {"f1", "f2"}, 2: {"f2", "f3"}, 3: {"f3"}},
    "everything": {n: set(OBJECTS) for n in range(3)},
    "mix": {
        0: {"f1", "f2"},
        1: {"f2", "f3"},
        2: {"f1", "f3"},
        3: {"f1", "f2", "f3"},
    },
}

PINNED_DIGEST = (
    "f0b7924f0bf33f001bef1092eba8944eda2e3dca1aee36a221a0e8d0de9b0342"
)


def summarize(state):
    return (state.al, state.wl)


def drive(placement, seed, summaries, partition, flood):
    """One seeded run: REQUEST/MOVE_UP/CANCEL traffic routed to holders
    from before the partition until well after it heals (so rumors meet
    causal gaps), a mid-run snapshot of the summary caches, then run and
    quiesce."""
    nodes = sorted(placement)
    cluster = ShardCluster(
        {key: AirlineState() for key in OBJECTS},
        ClusterConfig(
            n_nodes=len(placement),
            placement={n: frozenset(keys) for n, keys in placement.items()},
            seed=seed,
            partitions=(
                PartitionSchedule.split(6, 20, nodes[:2], nodes[2:])
                if partition else None
            ),
            broadcast=GossipConfig(flood=flood, anti_entropy_interval=3.0),
        ),
    )
    caches = Summaries(cluster, summarize).caches if summaries else {
        n: {} for n in nodes
    }
    rng = random.Random(seed)
    people = {key: [] for key in OBJECTS}
    for i in range(60):
        key = rng.choice(OBJECTS)
        roll = rng.random()
        if roll < 0.3:
            transaction = MoveUp(CAPACITY)
        elif roll < 0.45 and people[key]:
            transaction = Cancel(rng.choice(people[key]))
        else:
            person = f"{key}-P{i}"
            people[key].append(person)
            transaction = Request(person)
        cluster.route_submit(key, transaction, rng, at=0.5 * i)
    cluster.run(until=12.0)
    mid = summary_caches(caches)
    cluster.run(until=60.0)
    cluster.quiesce()
    return cluster, mid, summary_caches(caches)


def summary_caches(caches):
    return tuple(
        (n, tuple(sorted(cache.items())))
        for n, cache in sorted(caches.items())
    )


def fields(obj):
    return tuple(
        (f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)
    )


def observables(cluster, mid, end):
    stats = cluster.broadcast.stats
    out = [
        ("counters", stats.flood_messages, stats.anti_entropy_messages,
         stats.items_carried),
        ("delta", fields(stats.delta)),
        ("wire", fields(stats.wire)),
    ]
    for n, node in enumerate(cluster.nodes):
        for key, replica in sorted(node.replicas.items()):
            out.append((
                "log", n, key,
                tuple(
                    (r.ts.counter, r.ts.node_id, r.txid)
                    for r in replica.log
                ),
            ))
            out.append(("merge", n, key, fields(replica.stats)))
    for key in OBJECTS:
        e = cluster.extract_execution(key)
        out.append((
            "execution", key, e.prefixes,
            tuple(e.deficit(i) for i in e.indices),
            repr(e.final_state),
        ))
    out.append(("summaries", mid, end))
    return out


def grid_digest():
    digest = hashlib.sha256()
    for label, seed, summaries, partition, flood in itertools.product(
        sorted(PLACEMENTS), (0, 1), (False, True), (False, True),
        (False, True),
    ):
        cluster, mid, end = drive(
            PLACEMENTS[label], seed, summaries, partition, flood
        )
        assert cluster.converged() and cluster.mutually_consistent()
        run = (label, seed, summaries, partition, flood)
        digest.update(repr((run, observables(cluster, mid, end))).encode())
    return digest.hexdigest()


def test_partial_replication_grid_is_pinned():
    assert grid_digest() == PINNED_DIGEST
