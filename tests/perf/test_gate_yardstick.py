"""A yardstick for the causal gate's rescans: a 5-node airline run's
records offered to a ``CausalBuffer`` out of order, each arriving up to
5 simulated seconds after it was initiated, with their ``RunSet``
seen-sets as deps.  Every offer rescans whatever is pending.  A pending
record remembers the dep it was last found missing, and a rescan skips
it with one probe of the delivered mapping until that key is delivered.
So an offer costs about 5.9 Python-level calls at 500 and at 2,000
transactions.  Without the memo every rescan walks every pending
record's runs again: 16.8 calls per offer at 2,000.  Probes per offer
are 16 to 19 either way (the memo adds one when a blocker arrives).
Exact counts: reads no clock."""

import random

import pytest

from repro.gossip import CausalBuffer
from tests.core.test_verify_yardstick import steady_airline_history
from tests.helpers import Probed, count_python_calls

#: the most simulated seconds a record arrives after its initiation.
LATENESS = 5.0


def arrivals(txns):
    """The records of a steady 5-node airline run of ``txns``
    transactions, in the order a receiver gets them."""
    records = steady_airline_history(txns, n_nodes=5)[1]
    rng = random.Random(1)
    late = {r.txid: r.real_time + rng.uniform(0, LATENESS) for r in records}
    return sorted(records, key=lambda r: late[r.txid])


def offer_all(records, delivered):
    buffer = CausalBuffer(delivered, delivered.__setitem__)
    for record in records:
        buffer.offer(record.txid, record, record.seen_txids)
    assert len(delivered) == len(records) and not len(buffer)
    assert buffer.deferred_total > len(records) // 2  # mostly out of order


def probes_per_offer(records):
    delivered = Probed()
    offer_all(records, delivered)
    return delivered.probes / len(records)


def calls_per_offer(records):
    """Python-level calls per offer, over a plain dict (whose probes
    are C calls, not counted)."""
    return count_python_calls(lambda: offer_all(records, {})) / len(records)


@pytest.fixture(scope="module")
def records():
    return {n: arrivals(n) for n in (500, 2000)}


@pytest.fixture(scope="module")
def per_offer(records):
    return {
        n: (probes_per_offer(records[n]), calls_per_offer(records[n]))
        for n in records
    }


def test_probes_per_offer_stay_bounded(per_offer):
    assert per_offer[2000][0] <= 30


def test_an_offer_makes_a_few_calls(per_offer):
    assert per_offer[2000][1] <= 10


def test_calls_per_offer_do_not_grow_with_the_log(per_offer):
    assert per_offer[2000][1] <= 1.3 * per_offer[500][1]
    assert per_offer[2000][0] <= 1.3 * per_offer[500][0]
