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

:class:`_Stepper` derives what conditions (2)-(4) determine, for
:meth:`Execution.run` and the builder alike; :meth:`Execution.validate`
re-derives only an execution whose fields its caller gave.

Each prefix subsequence is stored as its *missing set*, the ascending
indices below ``i`` that transaction ``i`` did not see
(:class:`MissingSets`): O(k), the count k-completeness bounds, where the
indices seen grow with ``i``.  Condition (1) is "ascending, in ``[0,
i)``"; condition (2)'s fold resumes below the first index whose
membership differs from the last prefix's, found from the two missing
sets in O(k).  For transitivity, ``P_j ⊆ P_i`` iff ``missing(i) ∩ [0, j)
⊆ missing(j)``; with every earlier prefix closed, ``P_i`` is closed iff
that holds for the ``j`` of a cover: the newest ``j`` it saw, which
covers all below it but ``missing(j)``, then the newest uncovered one it
saw, and so on, the uncovered shrinking to their intersection with each
missing set — about one ``j`` per concurrent issuer, O(k) each.
"""

from __future__ import annotations

from itertools import count, filterfalse
from operator import lt
from typing import Iterable, List, Sequence, Tuple

from .state import State
from .transaction import ExternalAction, Transaction
from .update import Update, apply_sequence


class InvalidExecutionError(ValueError):
    """Raised when the data fails the Section 3.1 conditions."""


class MissingSets(tuple):
    """Per transaction ``i``, the ascending indices below ``i`` missing
    from its prefix subsequence, which is ``range(i)`` minus them.
    Building one checks condition (1) in this form, O(k) per
    transaction; an execution given one keeps it as it is."""

    def __new__(cls, missing: Iterable[Sequence[int]]) -> "MissingSets":
        self = super().__new__(cls, map(tuple, missing))
        for index, gone in enumerate(self):
            if not all(map(lt, (-1,) + gone, gone + (index,))):
                raise InvalidExecutionError(
                    f"missing indices of transaction {index} are not "
                    f"strictly increasing in [0, {index}): {gone}"
                )
        return self


def _missing_of(index: int, prefix: Tuple[int, ...]) -> Tuple[int, ...]:
    """Condition (1) for transaction ``index``'s prefix; its missing set."""
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
    return tuple(filterfalse(set(prefix).__contains__, range(index)))


def _missing_form(prefixes: Iterable[Sequence[int]]) -> MissingSets:
    """Validate condition (1) for every prefix subsequence, given as its
    indices or as :class:`MissingSets`, and return the missing form."""
    if isinstance(prefixes, MissingSets):
        return prefixes
    return MissingSets(map(_missing_of, count(), map(tuple, prefixes)))


class _FoldCursor:
    """Condition (2)'s apparent states for a run of prefix subsequences,
    each ``range(end)`` minus its ascending missing indices, folded on
    from the last one rather than from the initial state.

    It keeps ``(position, index, state)`` checkpoints, the state after
    the last prefix's first ``position`` updates, all below ``index``:
    position 0 and the end always, and in between only positions spaced
    geometrically back from the end (1, 2, 4, ... apart) — O(log n)
    states.  A prefix resumes from the newest checkpoint inside its
    common part with the last one, so an extension applies only its new
    indices; while prefixes grow, one that diverges ``d`` positions
    before the last one's end redoes fewer than ``d`` common positions."""

    def __init__(self, updates: Sequence[Update], initial_state: State):
        #: read by index as the caller appends to it.
        self._updates = updates
        self._end, self._gone = 0, ()  # the last prefix
        self._checkpoints = [(0, 0, initial_state)]

    def fold(self, end: int, gone: Tuple[int, ...]) -> State:
        """The result of applying the updates at ``range(end)`` minus the
        ascending ``gone``, in order."""
        last, checkpoints = self._gone, self._checkpoints
        # the missing indices both prefixes share, then the first index
        # in just one of them (or the shorter end): the common part.
        same, most = 0, min(len(last), len(gone))
        while same < most and last[same] == gone[same]:
            same += 1
        common = min(
            last[same:same + 1] + gone[same:same + 1] + (end, self._end)
        ) - same
        while checkpoints[-1][0] > common:
            checkpoints.pop()
        position, index, state = checkpoints[-1]
        size = end - len(gone)
        if size > position:
            updates = self._updates
            skip = set(gone).__contains__
            for position, j in enumerate(
                filterfalse(skip, range(index, end)), position + 1
            ):
                state = updates[j].apply(state)
                # lay checkpoints 0, 1, 2, 4, ... positions before the end
                distance = size - position
                if not distance & (distance - 1):
                    checkpoints.append((position, j + 1, state))
            # drop a checkpoint when the gap it leaves is no larger than
            # its newer neighbour's distance from the end.
            for i in range(len(checkpoints) - 2, 0, -1):
                newer = checkpoints[i + 1][0]
                if newer - checkpoints[i - 1][0] <= size - newer:
                    del checkpoints[i]
        self._end, self._gone = end, gone
        return state


class _Stepper:
    """Conditions (2)-(4), one transaction at a time: fold the apparent
    state its missing set leaves, run its decision part there and apply
    the update to the last actual state, collecting the fields."""

    def __init__(self, initial_state: State):
        self.updates: List[Update] = []
        self.external_actions: List[Tuple[ExternalAction, ...]] = []
        self.apparent_before: List[State] = []
        self.actual_states: List[State] = [initial_state]
        self._cursor = _FoldCursor(self.updates, initial_state)

    def step(self, txn: Transaction, gone: Tuple[int, ...]) -> None:
        seen = self._cursor.fold(len(self.updates), gone)
        decision = txn.decide(seen)
        self.updates.append(decision.update)
        self.external_actions.append(tuple(decision.external_actions))
        self.apparent_before.append(seen)
        self.actual_states.append(decision.update.apply(self.actual_states[-1]))


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
        actual_states: Sequence[State],
    ):
        n = len(transactions)
        if not (
            len(prefixes) == len(updates) == len(external_actions) == n
            and len(apparent_before) == n
            and len(actual_states) == n + 1
        ):
            raise InvalidExecutionError("inconsistent sequence lengths")
        self.initial_state = initial_state
        self.transactions: Tuple[Transaction, ...] = tuple(transactions)
        self._missing = _missing_form(prefixes)
        self.updates: Tuple[Update, ...] = tuple(updates)
        self.external_actions: Tuple[Tuple[ExternalAction, ...], ...] = tuple(
            tuple(e) for e in external_actions
        )
        self.apparent_before: Tuple[State, ...] = tuple(apparent_before)
        #: actual_states[0] is the initial state; actual_states[i + 1] is the
        #: actual state after transaction i (the paper's s_{i+1}).
        self.actual_states: Tuple[State, ...] = tuple(actual_states)
        self._derived = False  # set only by :meth:`_of_steps`

    # -- construction ----------------------------------------------------

    @classmethod
    def run(
        cls,
        initial_state: State,
        transactions: Sequence[Transaction],
        prefixes: Sequence[Sequence[int]],
    ) -> "Execution":
        """Derive a full execution from transactions and prefix
        subsequences, given as tuples of indices, converted once, or as
        :class:`MissingSets`.  The canonical constructor: it steps each
        transaction through conditions (2)-(4) (:class:`_Stepper`).
        """
        initial_state.require_well_formed()
        transactions = tuple(transactions)
        missing = _missing_form(prefixes)
        if len(missing) != len(transactions):
            raise InvalidExecutionError(
                "need exactly one prefix subsequence per transaction"
            )

        stepper = _Stepper(initial_state)
        for txn, gone in zip(transactions, missing):
            stepper.step(txn, gone)
        return cls._of_steps(transactions, missing, stepper)

    @classmethod
    def _of_steps(cls, transactions, missing, stepper) -> "Execution":
        """What ``stepper`` derived, which :meth:`validate` trusts."""
        execution = cls(
            stepper.actual_states[0], transactions, missing, stepper.updates,
            stepper.external_actions, stepper.apparent_before,
            stepper.actual_states,
        )
        execution._derived = True
        return execution

    # -- basic accessors -------------------------------------------------

    def __len__(self) -> int:
        return len(self.transactions)

    @property
    def indices(self) -> range:
        return range(len(self.transactions))

    def apparent_after(self, i: int) -> State:
        """The apparent state after transaction ``i``: its update applied
        to the state it saw, derived on each call."""
        return self.updates[i].apply(self.apparent_before[i])

    def actual_before(self, i: int) -> State:
        """The actual state before transaction ``i``."""
        return self.actual_states[i]

    def actual_after(self, i: int) -> State:
        """The actual state after transaction ``i``."""
        return self.actual_states[i + 1]

    @property
    def final_state(self) -> State:
        return self.actual_states[-1]

    @property
    def prefixes(self) -> Tuple[Tuple[int, ...], ...]:
        """Every prefix subsequence as its indices: O(n²), derived on
        each read; the execution keeps only the missing form."""
        return tuple(map(self.prefix, self.indices))

    def prefix(self, i: int) -> Tuple[int, ...]:
        """Transaction ``i``'s prefix subsequence as its indices: O(i)."""
        return tuple(filterfalse(set(self._missing[i]).__contains__, range(i)))

    def missing(self, i: int) -> Tuple[int, ...]:
        """Indices of preceding transactions *not* seen by transaction
        ``i``, ascending: O(1), as stored."""
        return self._missing[i]

    def deficit(self, i: int) -> int:
        """Number of preceding transactions not seen by transaction ``i``.

        Transaction ``i`` is *k-complete* iff ``deficit(i) <= k``.
        """
        return len(self._missing[i])

    # -- validation (conditions (1)-(4)) ----------------------------------

    def validate(self) -> None:
        """Check the Section 3.1 conditions; raise
        :class:`InvalidExecutionError` on the first violation.

        One built with ``Execution(...)`` from fields its caller gives is
        re-derived by :meth:`run` and compared, condition by condition.
        One that :meth:`run` or the builder made holds only what the
        stepper derived, and folding it again would run the same
        decisions on the same states: for it, only what deriving does
        not check is checked, that every actual state is well-formed.
        """
        if not self._derived:
            derived = Execution.run(
                self.initial_state, self.transactions, self._missing
            )
            for i in self.indices:
                if derived.updates[i] != self.updates[i]:
                    raise InvalidExecutionError(
                        f"condition (3) fails at {i}: stored update "
                        f"{self.updates[i]!r} != derived {derived.updates[i]!r}"
                    )
                if derived.external_actions[i] != self.external_actions[i]:
                    raise InvalidExecutionError(
                        f"condition (3) fails at {i}: external actions differ"
                    )
                if derived.apparent_before[i] != self.apparent_before[i]:
                    raise InvalidExecutionError(
                        f"condition (2) fails at {i}: apparent state differs"
                    )
            if derived.actual_states[1:] != self.actual_states[1:]:
                raise InvalidExecutionError(
                    "condition (4) fails: actual states differ"
                )
        for state in self.actual_states:
            if not state.well_formed():
                raise InvalidExecutionError(
                    f"reached ill-formed state {state!r}"
                )

    # -- derived sequences -------------------------------------------------

    def all_external_actions(self) -> Tuple[ExternalAction, ...]:
        """All external actions, in execution order."""
        return tuple(a for acts in self.external_actions for a in acts)

    def result_of(self, indices: Iterable[int]) -> State:
        """State obtained by applying the updates at ``indices`` (sorted)
        to the initial state — the paper's "result of a subsequence"."""
        return apply_sequence(
            map(self.updates.__getitem__, sorted(indices)), self.initial_state
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Execution of {len(self)} transactions>"


class TimedExecution(Execution):
    """An execution together with a real initiation time per transaction
    (Section 3.2, final condition)."""

    def __init__(self, execution: Execution, times: Sequence[float]):
        if len(times) != len(execution):
            raise InvalidExecutionError("need one time per transaction")
        # the execution's fields passed every check when it was built.
        vars(self).update(vars(execution))
        if any(t < 0 for t in times):
            raise InvalidExecutionError("real times must be nonnegative")
        self.times: Tuple[float, ...] = tuple(times)

    def is_orderly(self) -> bool:
        """True iff real times are monotonic in the transaction order."""
        return all(a <= b for a, b in zip(self.times, self.times[1:]))

    def has_bounded_delay(self, t: float) -> bool:
        """True iff every transaction sees all predecessors whose real time
        is at least ``t`` smaller than its own (t-bounded delay)."""
        from .conditions import bounded_delay_violations

        return not bounded_delay_violations(self, t)
