"""E14 — partial replication (Section 6) and dissemination ablations.

Three parts:

* **E14a partial replication** — the paper's first requested
  generalization: a two-flight airline with flight f1 on nodes {0,1} and
  f2 on nodes {1,2}.  Per flight, the full theory applies (executions
  validate, Corollary 8 holds at the measured k), replicas of each flight
  converge, and the bytes on the wire scale with replication degree, not
  cluster size;
* **E14b piggyback ablation** — Section 3.3 says transitivity can be
  guaranteed "by piggybacking information about known transactions on
  messages"; with piggyback off, transitivity violations appear;
* **E14c checkpoint interval ablation** — the [SKS] storage/recompute
  trade: sweep the snapshot interval between the suffix engine
  (interval 1) and no snapshots at all.
"""

import random

from common import run_once, save_tables

from repro.apps.airline import AirlineState, MoveUp, Request
from repro.apps.airline.simulation import AirlineScenario, run_airline_scenario
from repro.apps.airline.theorems import corollary8
from repro.core import is_transitive, transitivity_violations
from repro.gossip import GossipConfig
from repro.harness import Table
from repro.network import PartitionSchedule
from repro.replica import (
    EveryPositionPolicy,
    FixedIntervalPolicy,
    InitialOnlyPolicy,
    policy_engine_factory,
)
from repro.shard import ClusterConfig, ShardCluster

CAPACITY = 5


# -- E14a: partial replication ------------------------------------------------


def _partial_run(placement, seed=3):
    cluster = ShardCluster(
        {"f1": AirlineState(), "f2": AirlineState()},
        ClusterConfig(
            n_nodes=len(placement),
            placement=placement,
            seed=seed,
            partitions=PartitionSchedule.split(10, 40, [0], [1, 2]),
        ),
    )
    rng = random.Random(seed)
    t = 0.0
    for i in range(60):
        t += 1.0
        key = "f1" if i % 2 == 0 else "f2"
        cluster.route_submit(key, Request(f"{key}-P{i}"), rng, at=t)
        if rng.random() < 0.7:
            cluster.route_submit(key, MoveUp(CAPACITY), rng, at=t + 0.4)
    cluster.run(until=90.0)
    cluster.quiesce()
    return cluster


def _partial_table():
    partial_placement = {
        0: frozenset({"f1"}),
        1: frozenset({"f1", "f2"}),
        2: frozenset({"f2"}),
    }
    full_placement = {i: frozenset({"f1", "f2"}) for i in range(3)}
    table = Table(
        "E14a: partial vs full replication, two flights, 30s partition",
        ["placement", "flight", "txns", "mover k", "bound holds",
         "consistent", "items carried"],
    )
    payload = {}
    for label, placement in (("partial", partial_placement),
                             ("full", full_placement)):
        cluster = _partial_run(placement)
        for key in ("f1", "f2"):
            e = cluster.extract_execution(key)
            e.validate()
            k = max(
                (e.deficit(i) for i in e.indices
                 if e.transactions[i].name == "MOVE_UP"),
                default=0,
            )
            report = corollary8(e, k, CAPACITY)
            table.add(label, key, len(e), k,
                      report.hypothesis_holds and report.holds,
                      cluster.mutually_consistent(),
                      cluster.broadcast.stats.items_carried
                      if key == "f1" else "-")
            payload[(label, key)] = report
        payload[label] = cluster.broadcast.stats.items_carried
    return table, payload


# -- E14b: piggyback ablation ---------------------------------------------------


def _piggyback_table():
    table = Table(
        "E14b: piggyback ablation (Section 3.3's transitivity mechanism)",
        ["piggyback", "seed", "transitive", "violations"],
    )
    counts = {True: 0, False: 0}
    partitions = PartitionSchedule.split(10, 40, [0], [1, 2])
    for piggyback in (True, False):
        for seed in range(4):
            run = run_airline_scenario(
                AirlineScenario(
                    capacity=CAPACITY, n_nodes=3, duration=60,
                    seed=100 + seed, partitions=partitions,
                    broadcast=GossipConfig(
                        flood=True, piggyback=piggyback,
                        anti_entropy_interval=50.0,
                    ),
                )
            )
            violations = len(transitivity_violations(run.execution))
            table.add(piggyback, seed, is_transitive(run.execution),
                      violations)
            counts[piggyback] += violations
    return table, counts


# -- E14c: checkpoint interval ablation --------------------------------------------


def _checkpoint_table():
    table = Table(
        "E14c: snapshot interval ablation ([SKS] storage vs recompute)",
        ["engine", "updates applied", "snapshots held"],
    )
    def checkpoint(interval):
        return policy_engine_factory(
            lambda: FixedIntervalPolicy(interval), fast_path=False
        )

    engines = [
        ("suffix (interval 1)", policy_engine_factory(EveryPositionPolicy)),
        ("checkpoint-4", checkpoint(4)),
        ("checkpoint-16", checkpoint(16)),
        ("checkpoint-64", checkpoint(64)),
        (
            "naive (no snapshots)",
            policy_engine_factory(InitialOnlyPolicy, fast_path=False),
        ),
    ]
    rows = {}
    for label, factory in engines:
        run = run_airline_scenario(
            AirlineScenario(
                capacity=CAPACITY, n_nodes=3, duration=60, seed=5,
                request_rate=2.0,
                partitions=PartitionSchedule.split(10, 40, [0], [1, 2]),
                merge_factory=factory,
            )
        )
        applied = sum(
            n.merge.stats.updates_applied for n in run.cluster.nodes
        )
        snapshots = max(
            n.merge.stats.snapshots_held for n in run.cluster.nodes
        )
        table.add(label, applied, snapshots)
        rows[label] = (applied, snapshots)
    return table, rows


def _experiment():
    t1, partial_payload = _partial_table()
    t2, piggyback_counts = _piggyback_table()
    t3, checkpoint_rows = _checkpoint_table()
    return (t1, t2, t3), (partial_payload, piggyback_counts, checkpoint_rows)


def test_e14_partial_and_ablations(benchmark):
    tables, (partial, piggyback, checkpoints) = run_once(benchmark, _experiment)
    save_tables("E14_partial_and_ablations", list(tables))

    # E14a: bounds hold per flight under both placements, and partial
    # placement moves fewer items.
    for label in ("partial", "full"):
        for key in ("f1", "f2"):
            report = partial[(label, key)]
            assert report.hypothesis_holds and report.holds
    assert partial["partial"] < partial["full"]

    # E14b: piggyback eliminates transitivity violations; without it,
    # they occur.
    assert piggyback[True] == 0
    assert piggyback[False] > 0

    # E14c: applied-updates decrease monotonically as snapshots increase.
    order = ["naive (no snapshots)", "checkpoint-64", "checkpoint-16",
             "checkpoint-4", "suffix (interval 1)"]
    applied = [checkpoints[label][0] for label in order]
    assert applied == sorted(applied, reverse=True)
    snapshots = [checkpoints[label][1] for label in order]
    assert snapshots == sorted(snapshots)
