"""The incremental fold behind the execution stepper against the
from-scratch Section 3.1 fold, and the cursor's checkpoint bounds."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.airline import AirlineState, Cancel, MoveDown, MoveUp, Request
from repro.core.execution import _FoldCursor, _missing_form, _Stepper
from tests.helpers import reference_derive

CAPACITY = 3
PEOPLE = ["P", "Q", "R", "S"]

#: how a transaction's prefix relates to the one before it, weighted so
#: that most prefixes nest: "extend" keeps the last prefix and adds some
#: newer indices, "complete" is the pure ``range(i)`` append, "shrink"
#: drops a tail (a volatile-loss crash), "rewind" drops a tail and grows
#: a different one, "any" is an arbitrary subsequence.
MOVES = ("extend",) * 6 + ("complete",) * 3 + ("shrink", "rewind", "rewind", "any")


def next_prefix(move, last, i, rng):
    if move == "complete":
        return tuple(range(i))
    if move == "any":
        return tuple(j for j in range(i) if rng.random() < 0.5)
    if move in ("shrink", "rewind"):
        last = last[:rng.randrange(len(last) + 1)]
        if move == "shrink":
            return last
    floor = last[-1] + 1 if last else 0
    return last + tuple(j for j in range(floor, i) if rng.random() < 0.7)


def transaction(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Request(rng.choice(PEOPLE))
    if kind == 1:
        return Cancel(rng.choice(PEOPLE))
    return MoveUp(CAPACITY) if kind == 2 else MoveDown(CAPACITY)


@st.composite
def prefix_walks(draw, min_len=60, max_len=140):
    steps = draw(st.lists(
        st.tuples(st.sampled_from(MOVES), st.integers(0, 2**32 - 1)),
        min_size=min_len, max_size=max_len,
    ))
    transactions, prefixes, last = [], [], ()
    for i, (move, seed) in enumerate(steps):
        rng = random.Random(seed)
        last = next_prefix(move, last, i, rng)
        prefixes.append(last)
        transactions.append(transaction(rng))
    return transactions, prefixes


@given(prefix_walks())
@settings(max_examples=150, deadline=None)
def test_every_step_equals_the_from_scratch_fold(walk):
    transactions, prefixes = walk
    initial = AirlineState()
    stepper = _Stepper(initial)
    for txn, gone in zip(transactions, _missing_form(prefixes)):
        stepper.step(txn, gone)
    derived = zip(
        stepper.updates, stepper.external_actions, stepper.apparent_before,
        stepper.actual_states[1:],
    )
    assert list(derived) == list(
        reference_derive(initial, transactions, prefixes)
    )


# -- the cursor on its own -------------------------------------------------


class Append:
    """An update that appends its index to a tuple state and counts its
    applications."""

    applied = 0

    def __init__(self, index):
        self.index = index

    def apply(self, state):
        Append.applied += 1
        return state + (self.index,)


UPDATES = [Append(j) for j in range(4096)]


def fold_indices(cursor, prefix):
    """Fold ``prefix`` given as its indices: as ``range(end)`` minus its
    missing ones, ``end`` one past its last index."""
    end = prefix[-1] + 1 if prefix else 0
    kept = set(prefix)
    return cursor.fold(end, tuple(j for j in range(end) if j not in kept))


def grown(n):
    """A cursor that has folded ``range(i)`` for every ``i <= n``."""
    cursor = _FoldCursor(UPDATES, ())
    for i in range(n + 1):
        assert cursor.fold(i, ()) == tuple(range(i))
    return cursor


def applies(fold):
    before = Append.applied
    result = fold()
    return result, Append.applied - before


def test_pure_appends_apply_each_update_once_and_hold_log_states():
    n = 4096
    cursor, count = applies(lambda: grown(n))
    assert count == n
    assert len(cursor._checkpoints) <= 2 * math.log2(n) + 2


def test_a_rewind_redoes_less_than_it_discards():
    n = 1000
    for common in (0, 1, 17, 250, 511, 513, 700, 997, 999):
        cursor = grown(n)
        # diverge at ``common``: keep the even indices after it.
        prefix = tuple(range(common)) + tuple(range(common + 1, n + 40, 2))
        result, count = applies(lambda: fold_indices(cursor, prefix))
        assert result == prefix
        redo = count - (len(prefix) - common)
        assert 0 <= redo < n - common


def test_a_shrink_then_regrowth_folds_from_surviving_checkpoints():
    cursor = grown(600)
    for prefix in (tuple(range(300)), tuple(range(123)), tuple(range(0)),
                   tuple(range(450)), (3, 5, 8), tuple(range(9, 40))):
        assert fold_indices(cursor, prefix) == prefix
