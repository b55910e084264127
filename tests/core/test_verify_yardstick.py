"""An exact yardstick for the verifier: Python-level calls per
transaction of ``extract_execution(...).validate()`` on a fixed 3-node
airline history.  It reads no clock, so it holds on any machine.  On
this history the incremental fold costs about 63 calls per transaction
at 1,000 transactions, 1.06× as many at 2,000 as at 500; a from-scratch
fold of every prefix costs 6,623, and 4.6× as many."""

import pytest

from repro.apps.registry import app_entry
from repro.network.link import UniformDelay
from repro.shard.cluster import ClusterConfig, ShardCluster
from repro.shard.history import extract_execution
from repro.workloads import WorkloadSpec, generate_stream
from tests.helpers import count_python_calls

TXNS = 2000


def steady_airline_history(
    txns=TXNS, n_nodes=3, prepare=None, anti_entropy=False
):
    """``(initial state, records)`` of a steady ``n_nodes``-node airline
    run of ``txns`` transactions (6 per simulated second, 0.1-0.5 s
    links).
    The 50 people keep the state, and so the cost of one update, the
    same size from head to tail: what grows with the log is then only
    what the verifier does.  ``prepare(cluster)``, if given, runs
    before the first submit (to wrap the cluster's transport, say).
    With ``anti_entropy`` the stream runs with the periodic exchange on
    before the cluster quiesces; otherwise only floods carry it."""
    spec = WorkloadSpec(
        name="verify-yardstick", category="airline", seed=1,
        duration=1.1 * txns / 6.0, n_nodes=n_nodes, rate=6.0, universe=50,
    )
    events = generate_stream(spec)[:txns]
    assert len(events) == txns
    cluster = ShardCluster(
        app_entry("airline").initial_state,
        ClusterConfig(
            n_nodes=n_nodes, seed=1, delay=UniformDelay(*spec.delay)
        ),
    )
    if prepare is not None:
        prepare(cluster)
    for event in events:
        cluster.submit(event.node, event.transaction, at=event.time)
    if anti_entropy:
        cluster.run(until=events[-1].time)
    cluster.quiesce()
    return cluster.initial_state, list(cluster.records.values())


@pytest.fixture(scope="module")
def history():
    return steady_airline_history()


def calls_per_txn(history, n):
    """Calls per transaction verifying the first ``n`` txids, which are
    causally closed: a decision only ever sees earlier initiations."""
    initial_state, records = history
    head = [r for r in records if r.txid < n]
    assert len(head) == n
    assert all(seen < n for r in head for seen in r.seen_txids)
    calls = count_python_calls(
        lambda: extract_execution(initial_state, head, verify=True).validate()
    )
    return calls / n


def test_verifying_1000_transactions_costs_at_most_200_calls_each(history):
    assert calls_per_txn(history, 1000) <= 200


def test_calls_per_transaction_do_not_grow_with_the_log(history):
    assert calls_per_txn(history, 2000) <= 1.5 * calls_per_txn(history, 500)
