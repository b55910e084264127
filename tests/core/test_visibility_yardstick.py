"""A yardstick for how an execution holds visibility, counted from
outside: it reads no clock and adds no counter to the code it measures.

On the fixed 3-node airline history of ``test_verify_yardstick`` it
measures, at 1,000 and 4,000 transactions:

* the visibility entries an extracted execution stores per transaction:
  the ints in its per-transaction tuples of indices.  Missing sets hold
  1.16 and 1.25; tuples of every index seen held 498 and 1,998 (4.0×);
* ``Update.apply`` calls per transaction of
  ``extract_execution(...).validate()``, caught by a profile hook: one
  per transaction threads the actual state and the rest, 1.81 and 1.85,
  are the incremental fold's; ``validate`` of what extraction derived
  folds nothing again.  It was 5.62 and 5.70 when ``validate`` re-ran
  the fold, and 6.62 and 6.70 when the fold took tuple prefixes.

It also counts the applies of an :class:`ExecutionBuilder` that steps
800 counter transactions, each missing its last two predecessors,
through the same fold: 2.0 per transaction, building and validating,
where folding every prefix from the initial state made 398.5.
"""

import sys

import pytest

from repro.apps.counter import Allocate, CounterState
from repro.core import DropLast, ExecutionBuilder
from repro.core.update import Update
from repro.shard.history import extract_execution
from tests.core.test_verify_yardstick import steady_airline_history

SIZES = (1000, 4000)

#: apply calls per transaction when the fold read tuple prefixes.
TUPLE_FORM_APPLIES = {1000: 6.62, 4000: 6.70}


@pytest.fixture(scope="module")
def history():
    return steady_airline_history(txns=max(SIZES))


def head(history, n):
    """The first ``n`` txids, which are causally closed: a decision
    only ever sees earlier initiations."""
    initial_state, records = history
    records = [r for r in records if r.txid < n]
    assert len(records) == n
    return initial_state, records


def visibility_entries(execution):
    """The ints an execution keeps in attributes that hold one tuple of
    ints per transaction — its visibility, in whatever form."""
    n = len(execution)
    return sum(
        sum(map(len, value))
        for value in vars(execution).values()
        if isinstance(value, tuple) and len(value) == n and all(
            isinstance(row, tuple)
            and all(type(x) is int for x in row)
            for row in value
        )
    )


def apply_calls(fn):
    """Run ``fn()``; how many ``Update.apply`` calls it made."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "apply" and (
            isinstance(frame.f_locals.get("self"), Update)
        ):
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_stored_visibility_does_not_grow_with_the_log(history):
    per_txn = {}
    for n in SIZES:
        execution = extract_execution(*head(history, n))
        per_txn[n] = visibility_entries(execution) / n
    assert 0 < per_txn[4000] <= 1.3 * per_txn[1000]


@pytest.mark.parametrize("n", SIZES)
def test_verification_applies_no_more_updates_than_the_tuple_form(
    history, n
):
    initial_state, records = head(history, n)
    calls = apply_calls(
        lambda: extract_execution(initial_state, records).validate()
    )
    assert calls / n <= TUPLE_FORM_APPLIES[n]


@pytest.mark.parametrize("n", SIZES)
def test_extraction_and_validation_apply_at_most_three_updates_each(
    history, n
):
    initial_state, records = head(history, n)
    calls = apply_calls(
        lambda: extract_execution(initial_state, records).validate()
    )
    assert calls / n <= 3.0


def test_validating_an_extracted_execution_applies_no_update(history):
    execution = extract_execution(*head(history, 1000))
    assert apply_calls(execution.validate) == 0


def test_a_builder_applies_at_most_three_updates_per_transaction():
    n = 800

    def build_and_validate():
        builder = ExecutionBuilder(CounterState(0), DropLast(2))
        builder.add_all([Allocate(10 * n)] * n)
        builder.build().validate()

    assert apply_calls(build_and_validate) / n <= 3
