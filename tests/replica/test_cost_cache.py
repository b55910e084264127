"""Unit tests for batched spans and the incremental cost cache.

``MergeView.merge_span`` repairs a whole record batch in one undo/redo
cycle; with a ``cost_fn`` installed the view maintains the per-prefix
constraint-cost series incrementally, invalidating only past the
insertion point.  The from-scratch oracle everywhere is a plain fold.
"""

import pytest

from repro.apps.counter import AddUpdate, CounterState
from repro.replica import (
    FixedIntervalPolicy,
    ListUpdateSource,
    MergeView,
    Replica,
    Timestamp,
    UpdateRecord,
    policy_engine_factory,
)
from tests.helpers import count_python_calls


def cost(state) -> float:
    """A cost that distinguishes states: excess over a limit of 5."""
    return float(max(0, state.value - 5))


def fold_costs(amounts):
    """The from-scratch per-prefix cost series."""
    state = CounterState(0)
    series = [cost(state)]
    for amount in amounts:
        state = AddUpdate(amount).apply(state)
        series.append(cost(state))
    return series


def make_view(**kwargs):
    return MergeView(CounterState(0), cost_fn=cost, **kwargs)


def record(counter, txid, amount):
    return UpdateRecord(
        ts=Timestamp(counter, 0),
        txid=txid,
        transaction=None,
        update=AddUpdate(amount),
        origin=0,
        real_time=float(counter),
        seen_txids=frozenset(),
    )


class TestCostCacheTailPath:
    def test_tail_appends_evaluate_once_each_and_never_hit(self):
        view = make_view()
        for i in range(8):
            view.insert(i, AddUpdate(2))
        # initial state + one evaluation per append; nothing was at risk.
        assert view.cost_stats.evaluations == 9
        assert view.cost_stats.hits == 0
        assert view.cost_stats.invalidated == 0
        assert view.cost_series() == fold_costs([2] * 8)

    def test_cache_is_eagerly_complete_between_merges(self):
        view = make_view()
        for i in range(6):
            view.insert(i, AddUpdate(3))
        assert sorted(view._prefix_costs) == list(range(7))

    def test_state_cost_reads_the_cache(self):
        view = make_view()
        for i in range(4):
            view.insert(i, AddUpdate(4))
        evaluations = view.cost_stats.evaluations
        assert view.state_cost == fold_costs([4] * 4)[-1]
        assert view.cost_stats.evaluations == evaluations  # no new work


class TestCostCacheInvalidation:
    def test_non_tail_insert_invalidates_only_the_suffix(self):
        view = make_view()
        for i in range(10):
            view.insert(i, AddUpdate(1))
        view.insert(4, AddUpdate(7))
        # entries 0..4 survived (counted as hits), 5..10 were stale.
        assert view.cost_stats.hits == 5
        assert view.cost_stats.invalidated == 6
        # eager invariant restored: 0..11 all present and correct.
        assert sorted(view._prefix_costs) == list(range(12))
        expected = fold_costs([1, 1, 1, 1, 7, 1, 1, 1, 1, 1, 1])
        assert view.cost_series() == expected

    def test_insert_at_zero_keeps_only_the_initial_entry(self):
        view = make_view()
        for i in range(5):
            view.insert(i, AddUpdate(2))
        view.insert(0, AddUpdate(9))
        assert view.cost_stats.hits == 1  # just position 0
        assert view.cost_stats.invalidated == 5
        assert view.cost_series() == fold_costs([9, 2, 2, 2, 2, 2])

    def test_uncached_view_pays_the_full_series_every_time(self):
        """The contrast the hit rate measures: without the cache a series
        recomputation re-folds everything from scratch."""
        cached = make_view()
        for i in range(10):
            cached.insert(i, AddUpdate(1))
        cached.insert(3, AddUpdate(5))
        # cached: initial + 10 appends + 8 recomputed suffix entries.
        assert cached.cost_stats.evaluations == 11 + 8
        fresh = make_view()
        for i, amount in enumerate([1, 1, 1, 5, 1, 1, 1, 1, 1, 1, 1]):
            fresh.insert(i, AddUpdate(amount))
        assert fresh.cost_series() == cached.cost_series()


class TestCostAccountingIsConstantTime:
    def _near_tail_merge(self, n):
        view = make_view()
        for i in range(n):
            view.insert(i, AddUpdate(1))
        calls = count_python_calls(
            lambda: view.insert(n - 2, AddUpdate(1))
        )
        return view, calls

    def test_non_tail_merge_counts_hits_without_scanning_the_cache(self):
        """Hits and invalidations are computed from the insertion point
        (the cache is dense without certified skips), so a merge near
        the tail of a 2,000-entry cache executes as many Python-level
        calls as one into a 200-entry cache."""
        small, small_calls = self._near_tail_merge(200)
        large, large_calls = self._near_tail_merge(2000)
        assert large_calls == small_calls <= 100
        assert large.cost_stats.hits == 1999  # entries 0..1998 survive
        assert large.cost_stats.invalidated == 2
        assert large.cost_series() == fold_costs([1] * 2001)


class TestMergeSpan:
    def test_batch_of_sorted_updates_is_one_repair(self):
        view = make_view(policy=FixedIntervalPolicy(4))
        source = ListUpdateSource()
        view.attach(source)
        for i in range(6):
            source.insert(i, AddUpdate(1))
            view.merge_at(i)
        # a batch of three lands in the middle: one undo/redo cycle.
        for offset in range(3):
            source.insert(2 + offset, AddUpdate(2))
        outcome = view.merge_span(2, 3)
        assert not outcome.fastpath
        assert outcome.added == 3
        assert outcome.displacement == 4
        assert view.stats.batch_merges == 1
        assert view.stats.batched_inserts == 3
        assert view.stats.undo_redo_merges == 1
        assert view.cost_series() == fold_costs([1, 1, 2, 2, 2, 1, 1, 1, 1])

    def test_tail_batch_rides_the_fast_path(self):
        view = make_view()
        source = ListUpdateSource()
        view.attach(source)
        source.insert(0, AddUpdate(1))
        view.merge_at(0)
        for offset in range(3):
            source.insert(1 + offset, AddUpdate(2))
        outcome = view.merge_span(1, 3)
        assert outcome.fastpath
        assert outcome.added == 3 and outcome.displacement == 0
        assert view.stats.fastpath_hits == 4  # 1 single + 3 batched
        assert view.state == CounterState(7)

    def test_span_bounds_are_validated(self):
        view = make_view()
        source = ListUpdateSource()
        view.attach(source)
        source.insert(0, AddUpdate(1))
        with pytest.raises(ValueError):
            view.merge_span(0, 0)
        with pytest.raises(IndexError):
            view.merge_span(1, 1)  # span would overrun the log

    def test_merge_at_is_the_single_record_case(self):
        view = make_view()
        outcome = view.insert(0, AddUpdate(1))
        assert outcome.added == 1
        assert view.stats.batch_merges == 0


class TestReplicaIngestBatch:
    def test_batch_ingest_matches_per_record_ingest(self):
        factory = policy_engine_factory(
            lambda: FixedIntervalPolicy(4), cost_fn=cost
        )
        batched = Replica(CounterState(0), engine_factory=factory)
        serial = Replica(CounterState(0), engine_factory=factory)
        early = [record(i, i, 1) for i in range(0, 10, 2)]
        late = [record(i, i, 2) for i in range(1, 10, 2)]
        for r in early:
            batched.ingest(r)
            serial.ingest(r)
        inserted, outcome = batched.ingest_batch(reversed(late))
        for r in late:
            serial.ingest(r)
        assert set(inserted) == set(late)
        assert outcome is not None and outcome.added == 5
        assert batched.state == serial.state
        assert batched.engine.cost_series() == serial.engine.cost_series()
        # one repair instead of five.
        assert batched.engine.stats.undo_redo_merges == 1

    def test_duplicates_are_dropped_from_the_batch(self):
        replica = Replica(CounterState(0))
        first = record(0, 0, 1)
        replica.ingest(first)
        inserted, outcome = replica.ingest_batch(
            [first, record(1, 1, 2), record(2, 2, 3)]
        )
        assert [r.txid for r in inserted] == [1, 2]
        assert outcome.added == 2
        assert replica.state == CounterState(6)

    def test_all_duplicate_batch_is_a_no_op(self):
        fired = []
        replica = Replica(CounterState(0))
        replica.on_merge = fired.append
        first = record(0, 0, 1)
        replica.ingest(first)
        fired.clear()
        inserted, outcome = replica.ingest_batch([first])
        assert inserted == () and outcome is None
        assert fired == []

    def test_on_merge_fires_once_per_batch(self):
        fired = []
        replica = Replica(CounterState(0))
        replica.on_merge = fired.append
        replica.ingest_batch([record(0, 0, 1), record(1, 1, 2)])
        assert len(fired) == 1
        assert fired[0].added == 2


class TestRewindInteraction:
    def test_rewind_invalidates_cached_costs_past_the_checkpoint(self):
        factory = policy_engine_factory(
            lambda: FixedIntervalPolicy(2), cost_fn=cost
        )
        replica = Replica(CounterState(0), engine_factory=factory)
        for i in range(7):
            replica.ingest(record(i, i, 2))
        stable = replica.engine.latest_checkpoint
        assert stable < 7
        lost = replica.lose_volatile()
        assert len(lost) == 7 - stable
        # cache truncated to the surviving prefix, then refills on demand.
        assert max(replica.engine._prefix_costs) == stable
        assert replica.engine.cost_series() == fold_costs([2] * stable)
        assert replica.state == CounterState(2 * stable)
