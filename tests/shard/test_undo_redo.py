"""Tests for the three undo/redo merge profiles of
:class:`repro.replica.MergeView`: the naive full recompute (the
specification, and these tests' reference arm), a snapshot at every
position with the tail fast path ([BK]), and fixed-interval checkpoints
without it ([SKS])."""

import random

import pytest

from repro.apps.counter import AddUpdate, CounterState
from repro.core import apply_sequence
from repro.replica import (
    EveryPositionPolicy,
    FixedIntervalPolicy,
    InitialOnlyPolicy,
    MergeView,
    policy_engine_factory,
)


def naive(state):
    """Recompute the whole log on every insertion."""
    return MergeView(state, policy=InitialOnlyPolicy(), fast_path=False)


def suffix(state):
    """Snapshot after every position; redo only the tail past the insert."""
    return MergeView(state, policy=EveryPositionPolicy())


def checkpoint(state, interval):
    """Snapshot every ``interval`` positions; redo from the nearest one."""
    return MergeView(
        state, policy=FixedIntervalPolicy(interval), fast_path=False
    )


ENGINES = [
    lambda: naive(CounterState(0)),
    lambda: suffix(CounterState(0)),
    lambda: checkpoint(CounterState(0), interval=4),
]


@pytest.mark.parametrize("make_engine", ENGINES)
class TestMergeEngines:
    def test_in_order_inserts(self, make_engine):
        engine = make_engine()
        for i in range(5):
            engine.insert(i, AddUpdate(1))
        assert engine.state == CounterState(5)
        assert engine.log_length == 5

    def test_out_of_order_insert(self, make_engine):
        # floor-at-zero makes the fold order-sensitive; the engine must
        # produce the state of the *sorted* log, not arrival order.
        engine = make_engine()
        engine.insert(0, AddUpdate(3))   # log: [+3]
        engine.insert(1, AddUpdate(-5))  # log: [+3, -5] -> 0
        engine.insert(0, AddUpdate(4))   # log: [+4, +3, -5] -> 2
        assert engine.state == CounterState(2)

    def test_matches_reference_fold_random(self, make_engine):
        rng = random.Random(42)
        engine = make_engine()
        updates = []
        for _ in range(60):
            update = AddUpdate(rng.randint(-3, 4))
            position = rng.randint(0, len(updates))
            updates.insert(position, update)
            engine.insert(position, update)
            assert engine.state == apply_sequence(updates, CounterState(0))

    def test_bad_position_rejected(self, make_engine):
        engine = make_engine()
        with pytest.raises(IndexError):
            engine.insert(1, AddUpdate(1))


class TestWorkAccounting:
    def test_naive_applies_full_log_each_insert(self):
        engine = naive(CounterState(0))
        for i in range(10):
            engine.insert(i, AddUpdate(1))
        # 1 + 2 + ... + 10
        assert engine.stats.updates_applied == 55

    def test_suffix_applies_one_per_in_order_insert(self):
        engine = suffix(CounterState(0))
        for i in range(10):
            engine.insert(i, AddUpdate(1))
        assert engine.stats.updates_applied == 10

    def test_suffix_redo_cost_proportional_to_displacement(self):
        engine = suffix(CounterState(0))
        for i in range(10):
            engine.insert(i, AddUpdate(1))
        before = engine.stats.updates_applied
        engine.insert(4, AddUpdate(1))  # redo positions 4..10 (7 updates)
        assert engine.stats.updates_applied - before == 7

    def test_checkpoint_redo_cost_bounded_by_interval(self):
        engine = checkpoint(CounterState(0), interval=4)
        for i in range(16):
            engine.insert(i, AddUpdate(1))
        before = engine.stats.updates_applied
        engine.insert(15, AddUpdate(1))
        # recompute from checkpoint at 12: positions 12..16 -> 5 updates.
        assert engine.stats.updates_applied - before == 5

    def test_checkpoint_interval_validated(self):
        with pytest.raises(ValueError):
            checkpoint(CounterState(0), interval=0)

    def test_factories(self):
        factory = policy_engine_factory(
            lambda: FixedIntervalPolicy(8), fast_path=False
        )
        first, second = factory(CounterState(0)), factory(CounterState(0))
        assert first.policy.interval == 8 and not first.fast_path
        # policies are stateful: every engine gets its own instance.
        assert first.policy is not second.policy
