"""Tests for Execution: the Section 3.1 conditions (1)-(4)."""

import pytest

from repro.apps.counter import (
    AddUpdate,
    Allocate,
    CounterState,
    Release,
)
from repro.core import Execution, InvalidExecutionError, TimedExecution
from repro.core.update import IDENTITY


def run(transactions, prefixes, initial=CounterState(0)):
    return Execution.run(initial, transactions, prefixes)


#: the executions the tests below build, as (transactions, prefixes).
CORPUS = (
    ([], []),
    ([Allocate(2)] * 3, [(), (0,), (0, 1)]),
    ([Allocate(2)] * 3, [(), (0,), ()]),
    ([Allocate(5)] * 4, [(), (0,), (1,), (0, 1, 2)]),
    ([Allocate(2)] * 3, [(), (), ()]),
    ([Allocate(3), Release(3), Allocate(3)], [(), (), (0,)]),
)


class TestExecutionRun:
    def test_empty_execution(self):
        e = run([], [])
        assert len(e) == 0
        assert e.final_state == CounterState(0)

    def test_complete_prefixes_track_actual(self):
        txns = [Allocate(2)] * 3
        e = run(txns, [(), (0,), (0, 1)])
        # third allocate sees value 2 == limit, so it is a no-op.
        assert e.final_state == CounterState(2)
        assert e.updates[2] == IDENTITY
        for i in e.indices:
            assert e.apparent_before[i] == e.actual_before(i)

    def test_stale_prefix_causes_overshoot(self):
        txns = [Allocate(2)] * 3
        # the third transaction sees nothing: believes value is 0.
        e = run(txns, [(), (0,), ()])
        assert e.final_state == CounterState(3)
        assert e.apparent_before[2] == CounterState(0)
        assert e.actual_before(2) == CounterState(2)

    def test_deficit_and_missing(self):
        txns = [Allocate(5)] * 4
        e = run(txns, [(), (0,), (1,), (0, 1, 2)])
        assert e.deficit(0) == 0
        assert e.deficit(2) == 1
        assert e.missing(2) == (0,)
        assert e.deficit(3) == 0

    def test_condition1_rejects_out_of_range_prefix(self):
        with pytest.raises(InvalidExecutionError):
            run([Allocate(5), Allocate(5)], [(), (1,)])

    def test_condition1_rejects_unsorted_prefix(self):
        with pytest.raises(InvalidExecutionError):
            run([Allocate(5)] * 3, [(), (0,), (1, 0)])

    def test_condition1_rejects_duplicates(self):
        with pytest.raises(InvalidExecutionError):
            run([Allocate(5)] * 3, [(), (0,), (0, 0)])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidExecutionError):
            run([Allocate(5)], [(), ()])

    def test_external_actions_recorded_once_per_initiation(self):
        txns = [Allocate(2)] * 3
        e = run(txns, [(), (), ()])
        # each decision saw a state below the limit, so all three granted.
        actions = e.all_external_actions()
        assert len(actions) == 3
        assert {a.kind for a in actions} == {"granted"}

    def test_apparent_after_is_the_update_applied_to_the_state_seen(self):
        for txns, prefixes in CORPUS:
            e = run(txns, prefixes)
            for i in e.indices:
                assert e.apparent_after(i) == e.updates[i].apply(
                    e.apparent_before[i]
                )
        # a stale prefix: the apparent state after trails the actual one.
        e = run([Allocate(2)] * 3, [(), (0,), ()])
        assert e.apparent_after(2) == CounterState(1)
        assert e.actual_after(2) == CounterState(3)

    def test_actual_state_indexing(self):
        e = run([Allocate(9)] * 3, [(), (0,), (0, 1)])
        assert e.actual_before(0) == CounterState(0)
        assert e.actual_after(0) == CounterState(1)
        assert e.actual_before(2) == CounterState(2)
        assert e.actual_after(2) == e.final_state

    def test_result_of_subsequence(self):
        e = run([Allocate(9)] * 4, [(), (0,), (0, 1), (0, 1, 2)])
        assert e.result_of([0, 2]) == CounterState(2)
        assert e.result_of([]) == CounterState(0)

    def test_validate_accepts_derived_execution(self):
        e = run([Allocate(3), Release(3), Allocate(3)], [(), (), (0,)])
        e.validate()

    def test_validate_rejects_tampered_updates(self):
        e = run([Allocate(3)], [()])
        tampered = Execution(
            e.initial_state,
            e.transactions,
            e.prefixes,
            (AddUpdate(5),),
            e.external_actions,
            e.apparent_before,
            (CounterState(0), CounterState(5)),
        )
        with pytest.raises(InvalidExecutionError):
            tampered.validate()

    def _tampered(self, e, **changed):
        fields = dict(
            initial_state=e.initial_state, transactions=e.transactions,
            prefixes=e.prefixes, updates=e.updates,
            external_actions=e.external_actions,
            apparent_before=e.apparent_before, actual_states=e.actual_states,
        )
        fields.update(changed)
        return Execution(**fields)

    def test_validate_names_the_condition_that_fails(self):
        e = run([Allocate(3), Allocate(3), Allocate(3)], [(), (0,), (0, 1)])
        wrong_seen = self._tampered(
            e, apparent_before=(e.apparent_before[0], CounterState(9))
            + e.apparent_before[2:],
        )
        with pytest.raises(InvalidExecutionError, match=r"condition \(2\) fails at 1"):
            wrong_seen.validate()
        wrong_actual = self._tampered(
            e, actual_states=e.actual_states[:1] + (CounterState(9),)
            + e.actual_states[2:],
        )
        with pytest.raises(InvalidExecutionError, match=r"condition \(4\)"):
            wrong_actual.validate()
        # a per-transaction violation outranks condition (4), even when
        # the wrong actual state comes first in the serial order.
        both = self._tampered(
            wrong_actual, updates=e.updates[:2] + (AddUpdate(5),),
        )
        with pytest.raises(InvalidExecutionError, match=r"condition \(3\) fails at 2"):
            both.validate()

    def test_validate_holds_one_step_of_states_not_a_second_execution(self):
        """Validating an execution ``run`` made folds nothing again:
        with states that grow with its length, it peaks far below what
        the execution itself occupies."""
        import tracemalloc

        from repro.apps.dictionary import INITIAL_DICT_STATE, Insert

        n = 300
        txns = [Insert(f"word-{i}", capacity=10 * n) for i in range(n)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            e = Execution.run(
                INITIAL_DICT_STATE, txns, [tuple(range(i)) for i in range(n)]
            )
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            e.validate()
            peak = tracemalloc.get_traced_memory()[1] - before - held
        finally:
            tracemalloc.stop()
        assert peak * 5 < held


class TestTimedExecution:
    def _timed(self, times):
        base = run([Allocate(9)] * len(times), [tuple(range(i)) for i in range(len(times))])
        return TimedExecution(base, times)

    def test_orderly(self):
        assert self._timed([0.0, 1.0, 2.0]).is_orderly()
        assert not self._timed([0.0, 2.0, 1.0]).is_orderly()

    def test_bounded_delay_with_complete_prefixes(self):
        e = self._timed([0.0, 1.0, 2.0])
        assert e.has_bounded_delay(0.5)

    def test_bounded_delay_violation(self):
        base = run([Allocate(9)] * 3, [(), (), (0, 1)])
        e = TimedExecution(base, [0.0, 10.0, 20.0])
        # transaction 1 misses transaction 0, which is 10 older.
        assert not e.has_bounded_delay(5.0)
        assert e.has_bounded_delay(11.0)

    def test_length_mismatch_rejected(self):
        base = run([Allocate(9)], [()])
        with pytest.raises(InvalidExecutionError):
            TimedExecution(base, [0.0, 1.0])

    def test_negative_times_rejected(self):
        base = run([Allocate(9)], [()])
        with pytest.raises(InvalidExecutionError):
            TimedExecution(base, [-1.0])
