"""Partial replication with summary-form data (the Section 6 extensions).

Fly-by-Night grows to two flights.  Flight 7's database lives on nodes
{0, 1}, flight 9's on {1, 2} — no node needs everything, and updates only
travel to holders ("judicious assignment of data and transactions to
nodes ... such that each transaction will have copies of all the data it
requires").  Nodes additionally gossip *summaries* of the flights they
hold, so a booking front-end can route each new request to the less
loaded flight using (possibly stale) summary data — the paper's "data
... present in summary form, rather than in its full detail".

Per flight, everything reduces to the paper's single-database theory:
the extracted per-flight executions validate, and Corollary 8 bounds the
per-flight overbooking at the measured per-flight k.

Run:  python examples/multi_flight.py
"""

import random

from repro.apps.airline import (
    AirlineState,
    MoveUp,
    Request,
    make_airline_application,
)
from repro.apps.airline.theorems import corollary8
from repro.gossip import GossipConfig
from repro.network import PartitionSchedule
from repro.shard import ClusterConfig, ShardCluster, Summaries

CAPACITY = 8


def summarize(state):
    return {"al": state.al, "wl": state.wl}


cluster = ShardCluster(
    {"flight-7": AirlineState(), "flight-9": AirlineState()},
    ClusterConfig(
        n_nodes=3,
        placement={
            0: frozenset({"flight-7"}),
            1: frozenset({"flight-7", "flight-9"}),
            2: frozenset({"flight-9"}),
        },
        broadcast=GossipConfig(anti_entropy_interval=2.0),
        partitions=PartitionSchedule.split(20, 50, [0], [1, 2]),
        seed=11,
    ),
)
summaries = Summaries(cluster, summarize)

rng = random.Random(11)
routed = {"flight-7": 0, "flight-9": 0}
t = 0.0
for i in range(60):
    t += 1.0
    cluster.run(until=t)  # let the world advance before deciding
    # the front-end (node 1 holds both flights) routes each request to
    # the flight its current summary view says is less loaded.
    view = summaries.summary_view(1)
    loads = {
        key: (s["al"] + s["wl"]) if s else 0 for key, s in view.items()
    }
    key = min(sorted(loads), key=loads.get)
    routed[key] += 1
    cluster.submit(1, Request(f"P{i}"), at=t, group=key)
    # each flight's own agents sweep for free seats.
    if i % 2 == 0:
        for flight in ("flight-7", "flight-9"):
            cluster.route_submit(flight, MoveUp(CAPACITY), rng, at=t + 0.4)

cluster.run(until=90.0)
cluster.quiesce()

print("routing by summaries:", routed)
print("per-flight convergence:", cluster.converged(),
      "| consistent:", cluster.mutually_consistent())
print("items carried on the wire:", cluster.broadcast.stats.items_carried)

app = make_airline_application(capacity=CAPACITY)
for key in ("flight-7", "flight-9"):
    e = cluster.extract_execution(key)
    e.validate()
    k = max(
        (e.deficit(i) for i in e.indices
         if e.transactions[i].name == "MOVE_UP"),
        default=0,
    )
    report = corollary8(e, k, CAPACITY)
    final = e.final_state
    print(f"\n{key}: {len(e)} transactions, assigned {final.al}, "
          f"waiting {final.wl}")
    print(f"  Corollary 8 at per-flight k={k}: overbooking <= "
          f"${900 * k:g} -> {'holds' if report.holds else 'VIOLATED'} "
          f"(worst ${report.details['max_overbooking_cost']:g})")
