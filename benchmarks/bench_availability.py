"""E9 — availability versus correctness (the Section 1.1 motivation).

Runs the *same* airline workload schedule through:

* the SHARD cluster — every transaction is initiated locally and
  immediately (100% served, zero submission latency), at the price of a
  bounded integrity cost during partitions;
* the primary-copy serializable baseline — integrity is perfect, but
  clients partitioned away from the primary are rejected, and remote
  clients pay a round trip;
* a majority-quorum serializable baseline — integrity perfect, clients
  on the majority side of a partition stay available, every client pays
  a quorum round trip.

Sweeps the partition duration and reports served fraction, latency and
the realized integrity costs — the quantified version of the paper's
"penalty is paid for this extra availability".
"""

import json
import os
import random
from contextlib import nullcontext

from common import RESULTS_DIR, run_once, save_tables
from fullset import full_set_gossip

from repro.apps.airline import (
    AirlineState,
    MoveUp,
    Request,
    make_airline_application,
)
from repro.apps.airline.simulation import AirlineScenario, run_airline_scenario
from repro.harness import Table
from repro.network import PartitionSchedule, UniformDelay
from repro.serializable import PrimaryCopySystem, QuorumSystem
from repro.sim.metrics import Summary, mean

CAPACITY = 10
DURATION = 90.0
DURATIONS = (0, 20, 40, 70)
N_NODES = 3

#: BENCH_SMOKE=1 shrinks the gossip A/B experiment for the CI smoke
#: step (the bandwidth-accounting path still runs end to end).
BENCH_SMOKE = bool(os.environ.get("BENCH_SMOKE"))
GOSSIP_DURATION = 25.0 if BENCH_SMOKE else DURATION
GOSSIP_PARTITIONS = (0,) if BENCH_SMOKE else (0, 40)


def _partitions(partition_duration):
    if partition_duration == 0:
        return None
    return PartitionSchedule.split(
        10, 10 + partition_duration, [0], [1, 2]
    )


def _schedule(seed):
    """A deterministic submission schedule shared by both systems."""
    rng = random.Random(seed)
    schedule = []
    t = 0.0
    person = 0
    while t < DURATION:
        t += rng.expovariate(1.0)
        node = rng.randrange(N_NODES)
        person += 1
        schedule.append((t, node, Request(f"P{person}")))
        if rng.random() < 0.5:
            schedule.append((t + 0.1, node, MoveUp(CAPACITY)))
    return schedule


def _run_shard(seed, partition_duration):
    run = run_airline_scenario(
        AirlineScenario(
            capacity=CAPACITY,
            n_nodes=N_NODES,
            duration=DURATION,
            seed=seed,
            partitions=_partitions(partition_duration),
        )
    )
    app = make_airline_application(capacity=CAPACITY)
    e = run.execution
    worst = max(app.cost(s) for s in e.actual_states)
    served = len(e)
    submitted = run.requests_submitted + run.movers_submitted
    return served / submitted if submitted else 1.0, 0.0, worst


def _run_primary(seed, partition_duration):
    system = PrimaryCopySystem(
        AirlineState(),
        n_nodes=N_NODES,
        delay=UniformDelay(0.2, 1.0),
        partitions=_partitions(partition_duration),
        seed=seed,
    )
    for at, node, txn in _schedule(seed):
        system.submit(node, txn, at=at)
    system.run()
    app = make_airline_application(capacity=CAPACITY)
    return (
        system.stats.availability,
        mean(system.latencies()),
        app.cost(system.state),
    )


def _run_quorum(seed, partition_duration):
    system = QuorumSystem(
        AirlineState(),
        n_nodes=N_NODES,
        delay=UniformDelay(0.2, 1.0),
        partitions=_partitions(partition_duration),
        seed=seed,
    )
    for at, node, txn in _schedule(seed):
        system.submit(node, txn, at=at)
    system.run()
    app = make_airline_application(capacity=CAPACITY)
    return (
        system.stats.availability,
        mean(system.latencies),
        app.cost(system.state),
    )


def _experiment():
    table = Table(
        "E9: availability vs integrity, same workload, partition sweep",
        ["partition (s)", "system", "served fraction", "mean latency",
         "max total cost ($)"],
    )
    shard_avail = {}
    primary_avail = {}
    quorum_avail = {}
    shard_cost = {}
    for duration in DURATIONS:
        served, latency, cost = _run_shard(31, duration)
        shard_avail[duration] = served
        shard_cost[duration] = cost
        table.add(duration, "SHARD", round(served, 3), latency, cost)
        served, latency, cost = _run_primary(31, duration)
        primary_avail[duration] = served
        table.add(duration, "primary-copy", round(served, 3),
                  round(latency, 2), cost)
        served, latency, cost = _run_quorum(31, duration)
        quorum_avail[duration] = served
        table.add(duration, "majority-quorum", round(served, 3),
                  round(latency, 2), cost)
    return table, (shard_avail, primary_avail, quorum_avail, shard_cost)


def _run_gossip(mode, partition_duration):
    """One E9b run: ``mode`` "delta" is the production service, "full"
    the whole-set reference arm (benchmarks/fullset.py)."""
    with full_set_gossip() if mode == "full" else nullcontext():
        run = run_airline_scenario(
            AirlineScenario(
                capacity=CAPACITY,
                n_nodes=N_NODES,
                duration=GOSSIP_DURATION,
                seed=31,
                partitions=_partitions(partition_duration),
            )
        )
    cluster = run.cluster
    assert cluster.converged()
    assert cluster.mutually_consistent()
    stats = cluster.broadcast.stats
    delays = Summary.of(stats.delivery_delays)
    return {
        "published": stats.published,
        "items_carried": stats.items_carried,
        "wire": stats.wire.as_dict(),
        "delta": {
            "syns": stats.delta.syns,
            "skips": stats.delta.skips,
            "delta_records": stats.delta.delta_records,
            "timeouts": stats.delta.timeouts,
            "repair_pulls": stats.delta.repair_pulls,
        },
        "delivery_delay": {
            "count": delays.count,
            "mean": round(delays.mean, 3),
            "p50": round(delays.p50, 3),
            "p95": round(delays.p95, 3),
            "max": round(delays.max, 3),
        },
    }


def _gossip_experiment():
    """E9b: the same dissemination workload under full-set vs delta
    anti-entropy — delivered delay versus bytes on the wire."""
    table = Table(
        "E9b: full-set vs delta gossip — bandwidth and delivery delay",
        ["partition (s)", "mode", "item copies", "wire bytes",
         "delay p50", "delay p95", "copies ratio"],
    )
    results = {"full": {}, "delta": {}}
    for duration in GOSSIP_PARTITIONS:
        for mode in ("full", "delta"):
            results[mode][duration] = _run_gossip(mode, duration)
        full = results["full"][duration]
        delta = results["delta"][duration]
        ratio = (
            full["items_carried"] / delta["items_carried"]
            if delta["items_carried"]
            else float("inf")
        )
        for mode in ("full", "delta"):
            r = results[mode][duration]
            table.add(
                duration, mode, r["items_carried"], r["wire"]["bytes"],
                r["delivery_delay"]["p50"], r["delivery_delay"]["p95"],
                round(ratio, 1) if mode == "delta" else "",
            )
    return table, results


def test_e9b_gossip_bandwidth(benchmark):
    table, results = run_once(benchmark, _gossip_experiment)
    save_tables("E9b_gossip_bandwidth", [table])
    payload = {
        "workload": {
            "scenario": "airline E9 default",
            "duration": GOSSIP_DURATION,
            "n_nodes": N_NODES,
            "seed": 31,
            "partition_durations": list(GOSSIP_PARTITIONS),
            "smoke": BENCH_SMOKE,
        },
        "modes": results,
        "items_carried_ratio": {
            str(d): round(
                results["full"][d]["items_carried"]
                / results["delta"][d]["items_carried"], 2
            )
            for d in GOSSIP_PARTITIONS
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_gossip.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    # the tentpole acceptance criterion: on the default workload, delta
    # mode ships at least 5x fewer item copies than full-set
    # dissemination while every run converges to mutual consistency
    # (asserted inside _run_gossip for each run above).
    for duration in GOSSIP_PARTITIONS:
        full = results["full"][duration]["items_carried"]
        delta = results["delta"][duration]["items_carried"]
        assert full >= 5 * delta, (duration, full, delta)


def test_e9_availability(benchmark):
    table, (shard_avail, primary_avail, quorum_avail, shard_cost) = run_once(
        benchmark, _experiment
    )
    save_tables("E9_availability", [table])
    # the quorum baseline sits between primary-copy and SHARD on the
    # availability axis (clients on the majority side keep working).
    for duration in DURATIONS:
        assert primary_avail[duration] <= quorum_avail[duration] + 1e-9
        assert quorum_avail[duration] <= 1.0
    assert quorum_avail[70] < 1.0
    # SHARD serves everything, always.
    assert all(v == 1.0 for v in shard_avail.values())
    # the primary-copy baseline loses availability under partitions,
    # monotonically in their duration.
    assert primary_avail[0] == 1.0
    assert primary_avail[70] < primary_avail[20] < 1.0
    # and SHARD's price: a bounded, nonzero integrity cost shows up only
    # when partitions force stale decisions.
    assert shard_cost[0] <= shard_cost[70]
