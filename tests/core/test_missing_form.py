"""The missing form of prefix subsequences against the tuple form.

:class:`~repro.core.execution.Execution` keeps each prefix subsequence
as its missing set, and extraction, condition (1), the fold and the
conditions all read that.  Here they are held to the tuple-form code
they replace, kept in ``tests/helpers.py``: equal prefixes, equal
apparent states, equal transitivity triples and bounded-delay pairs in
equal order, and equal ``InvalidExecutionError`` messages, over the
corpus of ``tests/consistency/test_witness.py`` — simulated runs with
and without piggybacking, through partitions, ``lose_volatile`` crashes
and reorder faults, and with forged seen-sets: dangling, later-timestamp,
self-naming and shrunk.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.airline import AirlineState
from repro.apps.counter import Allocate, CounterState
from repro.core import (
    InvalidExecutionError,
    bounded_delay_violations,
    is_transitive,
    transitivity_violations,
)
from repro.core.execution import Execution
from repro.shard.history import extract_execution
from tests.consistency.test_witness import corpus, corpus_run, recorded, forge
from tests.helpers import (
    reference_bounded_delay_violations,
    reference_check_prefixes,
    reference_derive,
    reference_is_transitive,
    reference_prefixes,
    reference_transitivity_violations,
)

DELAYS = (0.0, 0.5, 2.0, 8.0)


def reference_error(records):
    try:
        reference_prefixes(records)
    except InvalidExecutionError as error:
        return str(error)
    return None


@settings(max_examples=40, deadline=None)
@given(corpus)
def test_extraction_and_conditions_equal_the_tuple_form(sample):
    records, _ = corpus_run(sample)
    error = reference_error(records)
    if error is not None:
        with pytest.raises(InvalidExecutionError) as raised:
            extract_execution(AirlineState(), records, verify=False)
        assert str(raised.value) == error
        return
    prefixes = reference_prefixes(records)
    execution = extract_execution(AirlineState(), records, verify=False)
    assert execution.prefixes == prefixes
    steps = reference_derive(AirlineState(), execution.transactions, prefixes)
    assert [seen for _, _, seen, _ in steps] == list(execution.apparent_before)
    assert transitivity_violations(execution) == (
        reference_transitivity_violations(prefixes)
    )
    assert is_transitive(execution) == reference_is_transitive(prefixes)
    for t in DELAYS:
        pairs = reference_bounded_delay_violations(
            prefixes, execution.times, t
        )
        assert bounded_delay_violations(execution, t) == pairs
        assert execution.has_bounded_delay(t) == (not pairs)


@pytest.mark.parametrize("kind", ["dangling", "later", "self"])
def test_each_forgery_fails_extraction_with_the_tuple_form_message(kind):
    records, _ = recorded(0, 3, True, "none")
    forged = forge(records, kind, 7, False)
    error = reference_error(forged)
    assert error is not None
    with pytest.raises(InvalidExecutionError) as raised:
        extract_execution(AirlineState(), forged)
    assert str(raised.value) == error


@st.composite
def malformed_prefixes(draw):
    """Prefix subsequences of which some may fail condition (1):
    unsorted, repeated, negative or not below their own index."""
    n = draw(st.integers(min_value=1, max_value=8))
    return [
        tuple(draw(st.lists(st.integers(-1, n), max_size=4)))
        if draw(st.booleans()) else tuple(range(i))
        for i in range(n)
    ]


@settings(max_examples=200, deadline=None)
@given(malformed_prefixes())
def test_condition_1_fails_with_the_tuple_form_message(prefixes):
    transactions = [Allocate(9)] * len(prefixes)
    try:
        expected = reference_check_prefixes(prefixes)
    except InvalidExecutionError as error:
        with pytest.raises(InvalidExecutionError) as raised:
            Execution.run(CounterState(0), transactions, prefixes)
        assert str(raised.value) == str(error)
    else:
        execution = Execution.run(CounterState(0), transactions, prefixes)
        assert execution.prefixes == expected
