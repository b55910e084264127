"""A growth yardstick for memory: traced bytes retained per transaction
by a steady airline run's records after it quiesces, fully replicated on
3 nodes and partially replicated on 3 nodes holding two flights.  A
record's seen-set used to be a ``frozenset`` copy of its origin log, so
the bytes per transaction grew with the log (3.5× from 500 to 2,000
transactions, 45 kB each at 2,000); as a ``RunSet`` of the log's txid
runs it costs the same at any length, under 2 kB.  Under a placement it
stays runs because each group numbers its own txids: drawn from one
counter for both flights, a flight's seen-sets are hundreds of runs and
the partial run retains 2.14× as many bytes at 2,000 as at 500 (5.4 kB
each, against 1.5 kB).  Reads no clock."""

import gc
import random
import tracemalloc

import pytest

from repro.apps.airline import AirlineState
from repro.network.link import UniformDelay
from repro.shard.cluster import ClusterConfig, ShardCluster
from repro.workloads import WorkloadSpec, generate_stream
from tests.core.test_verify_yardstick import steady_airline_history

#: flight f1 on nodes 0 and 1, f2 on nodes 1 and 2.
PLACEMENT = {0: frozenset({"f1"}), 1: frozenset({"f1", "f2"}),
             2: frozenset({"f2"})}


def partial_airline_history(txns):
    """``(initial states, records)`` of the same steady airline traffic
    with each transaction on a random flight at a random holder."""
    spec = WorkloadSpec(
        name="seen-yardstick", category="airline", seed=1,
        duration=1.1 * txns / 6.0, n_nodes=3, rate=6.0, universe=50,
    )
    events = generate_stream(spec)[:txns]
    assert len(events) == txns
    cluster = ShardCluster(
        {"f1": AirlineState(), "f2": AirlineState()},
        ClusterConfig(
            n_nodes=3, seed=1, delay=UniformDelay(*spec.delay),
            placement=PLACEMENT,
        ),
    )
    rng = random.Random(1)
    for event in events:
        cluster.route_submit(
            rng.choice(("f1", "f2")), event.transaction, rng, at=event.time
        )
    cluster.quiesce()
    return cluster.initial_states, list(cluster.records.values())


def retained_bytes_per_txn(history_of, txns):
    """Traced bytes still allocated once the run of ``txns``
    transactions has quiesced and its records are all that is kept,
    with GC off so that no collection moves the figure."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        history = history_of(txns)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert len(history[1]) == txns
    return retained / txns


@pytest.fixture(scope="module")
def per_txn():
    return {
        n: retained_bytes_per_txn(steady_airline_history, n)
        for n in (500, 2000)
    }


@pytest.fixture(scope="module")
def partial_per_txn():
    return {
        n: retained_bytes_per_txn(partial_airline_history, n)
        for n in (500, 2000)
    }


def test_retained_bytes_per_transaction_stay_small(per_txn):
    assert per_txn[2000] <= 4000


def test_retained_bytes_per_transaction_do_not_grow_with_the_log(per_txn):
    assert per_txn[2000] <= 1.3 * per_txn[500]


def test_partial_retained_bytes_per_transaction_stay_small(partial_per_txn):
    assert partial_per_txn[2000] <= 4000


def test_partial_retained_bytes_do_not_grow_with_the_log(partial_per_txn):
    assert partial_per_txn[2000] <= 1.3 * partial_per_txn[500]
