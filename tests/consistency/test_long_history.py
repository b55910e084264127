"""A 10⁴-transaction simulated history is built and judged for read
committed, read atomic and causal consistency inside the test job.

With reads resolved past each record's missing positions and ``ok``
certified from the timestamp-order witness, both steps are O(n·k): on a
2-core host the history build plus the three checkers take 0.44 s
here, where scanning every visible record per read and saturating took
271 s (70 s to build, 201 s to check).

The same history also extracts to a valid Section 3.1 execution
(conditions (1)-(4)) with transitive prefixes.  With each prefix held
as its missing set, extraction, ``validate`` and ``is_transitive`` take
0.16 s on that host (0.28 s when ``validate`` folded the extracted
execution again); with every prefix held as the tuple of all the
indices it saw they took 14.4 s.

A 600-transaction history of the same stream gets a prefix-consistency
verdict: its commit-order search goes deeper than Python's default
recursion limit."""

import pytest

from repro.consistency import (
    check_causal,
    check_read_atomic,
    check_read_committed,
    history_from_records,
)
from repro.consistency.checkers import WITNESSED
from repro.consistency.prefix import check_prefix
from repro.core import is_transitive
from repro.shard.history import extract_execution
from tests.core.test_verify_yardstick import steady_airline_history

TXNS = 10_000


@pytest.fixture(scope="module")
def history():
    return steady_airline_history(txns=TXNS)


def test_a_ten_thousand_transaction_history_passes_rc_ra_and_causal(history):
    _, records = history
    history = history_from_records(records)
    assert len(history) == TXNS
    assert history.meta["dangling_refs"] == 0
    for checker in (check_read_committed, check_read_atomic, check_causal):
        verdict = checker(history)
        assert verdict.ok, verdict.model
        assert verdict.stats == WITNESSED, verdict.model


def test_a_ten_thousand_transaction_history_extracts_validates_and_is_transitive(
    history,
):
    initial_state, records = history
    execution = extract_execution(initial_state, records)
    assert len(execution) == TXNS
    execution.validate()
    assert is_transitive(execution)


def test_a_600_transaction_history_passes_prefix_consistency():
    """The commit-order search goes one committed part deeper per step,
    two parts per transaction: when each step was a Python call it
    raised ``RecursionError`` past about 500 transactions.  On its
    explicit stack it returns ``ok`` here, about 7 s on a 2-core host,
    nearly all of it saturation."""
    _, records = steady_airline_history(txns=600)
    verdict = check_prefix(history_from_records(records))
    assert verdict.status == "ok"
    assert verdict.stats["search_states"] > 2 * 600
