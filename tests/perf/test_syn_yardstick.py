"""A growth yardstick for anti-entropy: encoded bytes of the set each
SYN of a steady 3-node airline run carries.  A SYN used to carry the
sender's cell digest, which grows with the log (on this run, its median
was 239 B in the first quarter of 2,000 transactions' SYNs and 1,362 B
in the last).  Carrying the sender's held keys as runs, a SYN's set is
a few runs of txids under causal delivery: a median of 14-16 B in every
quarter, and at most 36 B, at 500 and at 2,000 transactions.  Exact
counts: reads no clock."""

from statistics import median

import pytest

from repro.gossip import GOSSIP_SYN
from repro.runtime import wire
from tests.core.test_verify_yardstick import steady_airline_history


class SynMeter:
    """A transport that encodes the set of every SYN it forwards."""

    def __init__(self, transport):
        self._transport = transport
        self.set_bytes = []

    def send(self, src, dst, payload):
        if payload[0] == GOSSIP_SYN:
            self.set_bytes.append(len(wire.encode(payload[2]).encode("utf-8")))
        return self._transport.send(src, dst, payload)

    def __getattr__(self, name):
        return getattr(self._transport, name)


def syn_set_bytes(txns):
    """The encoded size of each SYN's set, in send order."""
    meters = []

    def prepare(cluster):
        meter = SynMeter(cluster.broadcast.transport)
        cluster.broadcast.transport = meter
        meters.append(meter)

    records = steady_airline_history(
        txns, prepare=prepare, anti_entropy=True
    )[1]
    assert len(records) == txns
    sizes = meters[0].set_bytes
    assert len(sizes) >= 40
    return sizes


def quarters(sizes):
    n = len(sizes)
    return [sizes[q * n // 4:(q + 1) * n // 4] for q in range(4)]


@pytest.fixture(scope="module")
def syn_bytes():
    return {n: syn_set_bytes(n) for n in (500, 2000)}


@pytest.mark.parametrize("txns", [500, 2000])
def test_a_syn_set_stays_small_in_every_quarter(syn_bytes, txns):
    assert all(max(quarter) <= 64 for quarter in quarters(syn_bytes[txns]))


def test_a_syn_set_does_not_grow_with_the_log(syn_bytes):
    last = {n: median(quarters(sizes)[-1]) for n, sizes in syn_bytes.items()}
    assert last[2000] <= 1.1 * last[500]
