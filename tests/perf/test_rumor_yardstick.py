"""A growth yardstick for the flood path: encoded bytes of the rumors a
steady 3-node airline run sends.  A rumor used to carry the sender's
cell digest next to the record, and that digest grows with the log
(the last 100 rumors averaged 586 B at 500 transactions, 1,727 B at
2,000).  Carrying only the record, a rumor stays the size of one
record, about 175 B, at any length.  Exact counts: reads no clock."""

import pytest

from repro.gossip import GOSSIP_RUMOR
from repro.runtime import wire
from tests.core.test_verify_yardstick import steady_airline_history

#: rumors averaged at the end of each run.
TAIL = 100


class RumorMeter:
    """A transport that encodes every rumor it forwards."""

    def __init__(self, transport):
        self._transport = transport
        self.rumor_bytes = []

    def send(self, src, dst, payload):
        if payload[0] == GOSSIP_RUMOR:
            self.rumor_bytes.append(len(wire.encode(payload).encode("utf-8")))
        return self._transport.send(src, dst, payload)

    def __getattr__(self, name):
        return getattr(self._transport, name)


def tail_rumor_bytes(txns):
    meters = []

    def prepare(cluster):
        meter = RumorMeter(cluster.broadcast.transport)
        cluster.broadcast.transport = meter
        meters.append(meter)

    records = steady_airline_history(txns, prepare=prepare)[1]
    assert len(records) == txns
    sizes = meters[0].rumor_bytes
    assert len(sizes) >= TAIL
    return sum(sizes[-TAIL:]) / TAIL


@pytest.fixture(scope="module")
def rumor_bytes():
    return {n: tail_rumor_bytes(n) for n in (500, 2000)}


def test_a_rumor_stays_small(rumor_bytes):
    assert rumor_bytes[2000] <= 250


def test_a_rumor_does_not_grow_with_the_log(rumor_bytes):
    assert rumor_bytes[2000] <= 1.1 * rumor_bytes[500]
