"""A growth yardstick for the wire: bytes of the encoded last record of
a steady 3-node airline run.  A record carries its decision's seen-set,
which under causal delivery is nearly every txid before it; written as a
sorted list of txids that made the record grow with the log (1,981 B
at 500 transactions, 9,000 B at 2,000).  Written as runs of consecutive
txids it stays the same size at any length, about 120 B.  An exact
count: reads no clock."""

import pytest

from repro.runtime import wire
from tests.core.test_verify_yardstick import steady_airline_history


def last_record_bytes(txns):
    records = steady_airline_history(txns)[1]
    assert len(records) == txns
    return len(wire.encode(records[-1]).encode("utf-8"))


@pytest.fixture(scope="module")
def record_bytes():
    return {n: last_record_bytes(n) for n in (500, 2000)}


def test_a_record_stays_small(record_bytes):
    assert record_bytes[2000] <= 200


def test_a_record_does_not_grow_with_the_log(record_bytes):
    assert record_bytes[2000] <= 1.1 * record_bytes[500]
