"""A growth yardstick for the receiving side: what a steady 3-node
airline run's records cost a live node once ``runtime.wire`` has decoded
them.  A decoded seen-set used to be a ``frozenset`` of every txid it
names, so a decoded record grew with the log (19 kB retained per
transaction at 500 transactions, 91.5 kB at 2,000) and the causal gate
tested each of those txids against the delivered keys (249 probes per
offer at 500, 999 at 2,000).  Decoded as a ``RunSet`` it keeps its runs
(under 1 kB per transaction) and the gate walks each run start once
(about 2 probes per offer), at any length.  Exact counts: reads no
clock."""

import gc
import tracemalloc

import pytest

from repro.gossip import CausalBuffer
from repro.runtime import wire
from tests.core.test_verify_yardstick import steady_airline_history
from tests.helpers import Probed


def encoded_records(txns):
    records = steady_airline_history(txns)[1]
    assert len(records) == txns
    return [wire.encode(record) for record in records]


def retained_bytes_per_txn(texts):
    """Traced bytes the decoded records hold, with GC off so that no
    collection moves the figure."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        decoded = [wire.decode(text) for text in texts]
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert len(decoded) == len(texts)
    return retained / len(texts)


def probes_per_offer(texts):
    """Membership probes on the delivered mapping per offer of the
    decoded records to a causal gate, in txid order."""
    records = [wire.decode(text) for text in texts]
    delivered = Probed()
    buffer = CausalBuffer(delivered, delivered.__setitem__)
    for record in records:
        buffer.offer(record.txid, record, record.seen_txids)
    assert len(delivered) == len(records) and not len(buffer)
    return delivered.probes / len(records)


@pytest.fixture(scope="module")
def texts():
    return {n: encoded_records(n) for n in (500, 2000)}


@pytest.fixture(scope="module")
def per_txn(texts):
    return {n: retained_bytes_per_txn(texts[n]) for n in texts}


@pytest.fixture(scope="module")
def per_offer(texts):
    return {n: probes_per_offer(texts[n]) for n in texts}


def test_decoded_records_stay_small(per_txn):
    assert per_txn[2000] <= 4000


def test_decoded_records_do_not_grow_with_the_log(per_txn):
    assert per_txn[2000] <= 1.3 * per_txn[500]


def test_an_offer_probes_a_few_delivered_keys(per_offer):
    assert per_offer[2000] <= 10


def test_probes_per_offer_do_not_grow_with_the_log(per_offer):
    assert per_offer[2000] <= 1.3 * per_offer[500]
