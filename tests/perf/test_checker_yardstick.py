"""An exact yardstick for the consistency checkers: Python-level calls
per transaction of ``history_from_records`` plus the read-committed,
read-atomic and causal checkers on the verify yardstick's 3-node
airline history.  It reads no clock, so it holds on any machine.

Each read resolves by walking its key's writers back past the reader's
missing positions, and each checker certifies ``ok`` from the
timestamp-order witness in O(k) per transaction: about 29 calls per
transaction at 250 and at 1,000 transactions.  Scanning every visible
record per read and saturating every writer per read cost 1,509 and
5,879 (3.9× as many at 1,000 as at 250)."""

import pytest

from repro.consistency import (
    check_causal,
    check_read_atomic,
    check_read_committed,
    history_from_records,
)
from repro.consistency.checkers import WITNESSED
from tests.core.test_verify_yardstick import steady_airline_history
from tests.helpers import count_python_calls


@pytest.fixture(scope="module")
def records():
    return steady_airline_history(txns=1000)[1]


def calls_per_txn(records, n):
    """Calls per transaction building and checking the history of the
    first ``n`` txids, which are causally closed."""
    head = [r for r in records if r.txid < n]
    assert len(head) == n
    verdicts = []

    def verify():
        history = history_from_records(head)
        for checker in (check_read_committed, check_read_atomic,
                        check_causal):
            verdicts.append(checker(history))

    calls = count_python_calls(verify)
    assert all(v.ok and v.stats == WITNESSED for v in verdicts)
    return calls / n


def test_checking_1000_transactions_costs_at_most_60_calls_each(records):
    assert calls_per_txn(records, 1000) <= 60


def test_calls_per_transaction_do_not_grow_with_the_log(records):
    assert calls_per_txn(records, 1000) <= 1.5 * calls_per_txn(records, 250)
