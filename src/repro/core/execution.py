"""Executions and the prefix subsequence condition (Section 3.1).

An execution of a set of transaction instances consists of:

* a serial ordering ``T`` of the transaction instances,
* a sequence ``A`` of updates,
* a sequence ``E`` of sets of external actions,
* a sequence of finite integer sequences — the *prefix subsequences*,
* two sequences of database states: the apparent states ``t`` and the
  actual states ``s``,

subject to the four conditions of Section 3.1:

1. the prefix subsequence of transaction ``i`` is a subsequence of
   ``(0, ..., i-1)`` (paper: ``{1, ..., i-1}``; we index from 0);
2. the apparent state seen by transaction ``i`` is the result of applying
   the updates of its prefix subsequence, in order, to the initial state;
3. the update and external actions of transaction ``i`` are determined by
   its decision part applied to that apparent state;
4. the actual state after transaction ``i`` is the result of applying the
   updates of *all* transactions through ``i``, in order, to the initial
   state.

:class:`Execution` stores the data and derives everything that conditions
(2)-(4) determine; :meth:`Execution.validate` re-checks all four conditions
from scratch.
"""

from __future__ import annotations

from itertools import compress, count
from operator import lt, ne
from typing import Iterable, Iterator, List, Sequence, Tuple

from .state import State
from .transaction import Decision, ExternalAction, Transaction
from .update import Update, apply_sequence


class InvalidExecutionError(ValueError):
    """Raised when the data fails the Section 3.1 conditions."""


class _CheckedPrefixes(tuple):
    """Prefix subsequences that have passed condition (1).  An execution
    built from another one's prefixes, or by :meth:`Execution.run`, keeps
    them as they are instead of checking them again."""


def _check_prefixes(prefixes: Iterable[Sequence[int]]) -> _CheckedPrefixes:
    """Validate condition (1) for every transaction and normalize the
    prefixes to tuples."""
    if isinstance(prefixes, _CheckedPrefixes):
        return prefixes
    checked = []
    for index, prefix in enumerate(prefixes):
        prefix = tuple(prefix)
        if not all(map(lt, prefix, prefix[1:])):
            raise InvalidExecutionError(
                f"prefix of transaction {index} is not strictly increasing: "
                f"{prefix}"
            )
        if prefix and (prefix[0] < 0 or prefix[-1] >= index):
            raise InvalidExecutionError(
                f"prefix of transaction {index} is not a subsequence of its "
                f"preceding indices: {prefix}"
            )
        checked.append(prefix)
    return _CheckedPrefixes(checked)


class _FoldCursor:
    """Condition (2)'s apparent states for a run of prefix subsequences,
    each folded on from the last one rather than from the initial state.

    It keeps the last prefix and ``(position, state)`` checkpoints:
    position 0 and the last prefix's end always, and in between only
    positions spaced geometrically back from the end (1, 2, 4, ... apart)
    — O(log n) states.  A prefix resumes from the newest checkpoint
    inside its common part with the last one, so an extension applies
    only its new indices.  While prefixes grow, one that diverges ``d``
    positions before the last one's end redoes fewer than ``d`` common
    positions."""

    def __init__(self, updates: Sequence[Update], initial_state: State):
        #: read by index as the caller appends to it.
        self._updates = updates
        self._prefix: Tuple[int, ...] = ()
        self._marks = [0]
        self._states = [initial_state]

    def fold(self, prefix: Tuple[int, ...]) -> State:
        """The result of applying the updates at ``prefix`` in order."""
        last, marks, states = self._prefix, self._marks, self._states
        if prefix[:len(last)] != last:
            common = next(compress(count(), map(ne, last, prefix)), len(prefix))
            while marks[-1] > common:
                marks.pop()
                states.pop()
        state = states[-1]
        end = len(prefix)
        if end > marks[-1]:
            updates = self._updates
            for position in range(marks[-1] + 1, end + 1):
                state = updates[prefix[position - 1]].apply(state)
                # lay checkpoints 0, 1, 2, 4, ... positions before the end
                distance = end - position
                if not distance & (distance - 1):
                    marks.append(position)
                    states.append(state)
            # drop a checkpoint when the gap it leaves is no larger than
            # its newer neighbour's distance from the end.
            for i in range(len(marks) - 2, 0, -1):
                if marks[i + 1] - marks[i - 1] <= end - marks[i + 1]:
                    del marks[i], states[i]
        self._prefix = prefix
        return state


class Execution:
    """A (finite) execution satisfying the prefix subsequence condition.

    Construct with :meth:`run`, which derives updates, external actions and
    states from the transactions and their prefix subsequences.
    """

    def __init__(
        self,
        initial_state: State,
        transactions: Sequence[Transaction],
        prefixes: Sequence[Sequence[int]],
        updates: Sequence[Update],
        external_actions: Sequence[Tuple[ExternalAction, ...]],
        apparent_before: Sequence[State],
        apparent_after: Sequence[State],
        actual_states: Sequence[State],
    ):
        n = len(transactions)
        if not (
            len(prefixes) == len(updates) == len(external_actions) == n
            and len(apparent_before) == len(apparent_after) == n
            and len(actual_states) == n + 1
        ):
            raise InvalidExecutionError("inconsistent sequence lengths")
        self.initial_state = initial_state
        self.transactions: Tuple[Transaction, ...] = tuple(transactions)
        self.prefixes: Tuple[Tuple[int, ...], ...] = _check_prefixes(prefixes)
        self.updates: Tuple[Update, ...] = tuple(updates)
        self.external_actions: Tuple[Tuple[ExternalAction, ...], ...] = tuple(
            tuple(e) for e in external_actions
        )
        self.apparent_before: Tuple[State, ...] = tuple(apparent_before)
        self.apparent_after: Tuple[State, ...] = tuple(apparent_after)
        #: actual_states[0] is the initial state; actual_states[i + 1] is the
        #: actual state after transaction i (the paper's s_{i+1}).
        self.actual_states: Tuple[State, ...] = tuple(actual_states)

    # -- construction ----------------------------------------------------

    @classmethod
    def run(
        cls,
        initial_state: State,
        transactions: Sequence[Transaction],
        prefixes: Sequence[Sequence[int]],
    ) -> "Execution":
        """Derive a full execution from transactions and prefix subsequences.

        This is the canonical constructor: it runs each decision part
        against the apparent state determined by its prefix subsequence
        (conditions (2)-(3)) and threads the actual states (condition (4)).
        """
        initial_state.require_well_formed()
        transactions = tuple(transactions)
        norm_prefixes = _check_prefixes(prefixes)
        if len(norm_prefixes) != len(transactions):
            raise InvalidExecutionError(
                "need exactly one prefix subsequence per transaction"
            )

        steps = list(cls._derive(initial_state, transactions, norm_prefixes))
        updates = [step[0] for step in steps]
        apparent_before = [step[2] for step in steps]
        return cls(
            initial_state,
            transactions,
            norm_prefixes,
            updates,
            [step[1] for step in steps],
            apparent_before,
            [u.apply(seen) for u, seen in zip(updates, apparent_before)],
            [initial_state] + [step[3] for step in steps],
        )

    @staticmethod
    def _derive(
        initial_state: State,
        transactions: Sequence[Transaction],
        prefixes: Sequence[Tuple[int, ...]],
    ) -> Iterator[Tuple[Update, Tuple[ExternalAction, ...], State, State]]:
        """What conditions (2)-(4) determine, one transaction at a time:
        ``(update, external actions, apparent state, actual state
        after)``.  A generator, so a caller that only compares (see
        :meth:`validate`) never holds more than one step's states beside
        the cursor's O(log n) checkpoints."""
        updates: List[Update] = []
        cursor = _FoldCursor(updates, initial_state)
        actual = initial_state
        for txn, prefix in zip(transactions, prefixes):
            seen = cursor.fold(prefix)
            decision = txn.decide(seen)
            updates.append(decision.update)
            actual = decision.update.apply(actual)
            yield (
                decision.update, tuple(decision.external_actions), seen, actual
            )

    # -- basic accessors -------------------------------------------------

    def __len__(self) -> int:
        return len(self.transactions)

    @property
    def indices(self) -> range:
        return range(len(self.transactions))

    def actual_before(self, i: int) -> State:
        """The actual state before transaction ``i``."""
        return self.actual_states[i]

    def actual_after(self, i: int) -> State:
        """The actual state after transaction ``i``."""
        return self.actual_states[i + 1]

    @property
    def final_state(self) -> State:
        return self.actual_states[-1]

    def apparent_state(self, i: int) -> State:
        """The state transaction ``i`` observed (its decision input)."""
        return self.apparent_before[i]

    def prefix_set(self, i: int) -> frozenset:
        return frozenset(self.prefixes[i])

    def missing(self, i: int) -> Tuple[int, ...]:
        """Indices of preceding transactions *not* seen by transaction ``i``."""
        seen = set(self.prefixes[i])
        return tuple(j for j in range(i) if j not in seen)

    def deficit(self, i: int) -> int:
        """Number of preceding transactions not seen by transaction ``i``.

        Transaction ``i`` is *k-complete* iff ``deficit(i) <= k``.
        """
        return i - len(self.prefixes[i])

    def decision_of(self, i: int) -> Decision:
        return Decision(self.updates[i], self.external_actions[i])

    # -- validation (conditions (1)-(4)) ----------------------------------

    def validate(self) -> None:
        """Re-derive everything and check the Section 3.1 conditions.

        Raises :class:`InvalidExecutionError` on the first violation.
        """
        self.initial_state.require_well_formed()
        actual_differs = False
        for i, (update, externals, seen, actual) in enumerate(
            self._derive(self.initial_state, self.transactions, self.prefixes)
        ):
            if update != self.updates[i]:
                raise InvalidExecutionError(
                    f"condition (3) fails at {i}: stored update "
                    f"{self.updates[i]!r} != derived {update!r}"
                )
            if externals != self.external_actions[i]:
                raise InvalidExecutionError(
                    f"condition (3) fails at {i}: external actions differ"
                )
            if seen != self.apparent_before[i]:
                raise InvalidExecutionError(
                    f"condition (2) fails at {i}: apparent state differs"
                )
            actual_differs = actual_differs or actual != self.actual_states[i + 1]
        if actual_differs:
            raise InvalidExecutionError("condition (4) fails: actual states differ")
        for state in self.actual_states:
            if not state.well_formed():
                raise InvalidExecutionError(
                    f"reached ill-formed state {state!r}"
                )

    # -- derived sequences -------------------------------------------------

    def all_external_actions(self) -> Tuple[ExternalAction, ...]:
        """All external actions, in execution order."""
        return tuple(a for acts in self.external_actions for a in acts)

    def update_subsequence(self, indices: Iterable[int]) -> Tuple[Update, ...]:
        """The updates of the given (sorted) index subsequence."""
        return tuple(self.updates[j] for j in sorted(indices))

    def result_of(self, indices: Iterable[int]) -> State:
        """State obtained by applying the updates at ``indices`` (sorted)
        to the initial state — the paper's "result of a subsequence"."""
        return apply_sequence(self.update_subsequence(indices), self.initial_state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Execution of {len(self)} transactions>"


class TimedExecution(Execution):
    """An execution together with a real initiation time per transaction
    (Section 3.2, final condition)."""

    def __init__(self, execution: Execution, times: Sequence[float]):
        if len(times) != len(execution):
            raise InvalidExecutionError("need one time per transaction")
        # the execution's prefixes passed condition (1) when it was built.
        super().__init__(
            execution.initial_state,
            execution.transactions,
            execution.prefixes,
            execution.updates,
            execution.external_actions,
            execution.apparent_before,
            execution.apparent_after,
            execution.actual_states,
        )
        if any(t < 0 for t in times):
            raise InvalidExecutionError("real times must be nonnegative")
        self.times: Tuple[float, ...] = tuple(times)

    def is_orderly(self) -> bool:
        """True iff real times are monotonic in the transaction order."""
        return all(a <= b for a, b in zip(self.times, self.times[1:]))

    def has_bounded_delay(self, t: float) -> bool:
        """True iff every transaction sees all predecessors whose real time
        is at least ``t`` smaller than its own (t-bounded delay)."""
        for i in self.indices:
            seen = set(self.prefixes[i])
            for j in range(i):
                if self.times[j] <= self.times[i] - t and j not in seen:
                    return False
        return True
