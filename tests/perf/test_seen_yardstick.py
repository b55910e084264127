"""A growth yardstick for memory: traced bytes retained per transaction
by a steady 3-node airline run's records after it quiesces.  A record's
seen-set used to be a ``frozenset`` copy of its origin log, so the
bytes per transaction grew with the log (3.5× from 500 to 2,000
transactions, 45 kB each at 2,000); as a view of the log's arrival
sequence it costs the same at any length, under 2 kB.  Reads no clock."""

import gc
import tracemalloc

import pytest

from tests.core.test_verify_yardstick import steady_airline_history


def retained_bytes_per_txn(txns):
    """Traced bytes still allocated once the run of ``txns``
    transactions has quiesced and its records are all that is kept,
    with GC off so that no collection moves the figure."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        history = steady_airline_history(txns)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert len(history[1]) == txns
    return retained / txns


@pytest.fixture(scope="module")
def per_txn():
    return {n: retained_bytes_per_txn(n) for n in (500, 2000)}


def test_retained_bytes_per_transaction_stay_small(per_txn):
    assert per_txn[2000] <= 4000


def test_retained_bytes_per_transaction_do_not_grow_with_the_log(per_txn):
    assert per_txn[2000] <= 1.3 * per_txn[500]
