"""Conditions guaranteed by the system (Section 3).

These are predicates over executions: refinements of the basic prefix
subsequence condition that a SHARD-like system may additionally guarantee,
at some cost in availability.

* **transitivity** — if T is in the prefix of T' and T' in the prefix of
  T'', then T is in the prefix of T'';
* **k-completeness** — a transaction sees all but at most k of its
  predecessors;
* **complete prefix** — the k = 0 special case;
* **centralization** of a group G — each member of G sees all earlier
  members of G;
* **atomicity** of a consecutive run of transactions — they execute
  back-to-back without new external information intervening;
* **t-bounded delay** for timed executions — every transaction sees every
  predecessor initiated at least t earlier.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .execution import Execution, TimedExecution

TransactionPredicate = Callable[[Execution, int], bool]


# -- transitivity ---------------------------------------------------------


def _violations(execution: Execution) -> Iterator[Tuple[int, int, int]]:
    """The triples of :func:`transitivity_violations`, lazily, from the
    missing sets: each transaction checks only the newest ones it saw
    that no other covers, as :mod:`repro.core.execution` argues, and one
    that check does not prove closed tries every ``j`` it saw."""
    missing = [frozenset(execution.missing(i)) for i in execution.indices]
    closed: List[bool] = []
    for i, unseen in enumerate(missing):
        gone = execution.missing(i)
        j = i - 1
        while j in unseen:  # the newest index i saw
            j -= 1
        uncovered = missing[j] if j >= 0 else unseen
        while j >= 0 and closed[j] and missing[j].issuperset(
            gone[:bisect_left(gone, j)]
        ):
            uncovered &= missing[j]
            j = max(uncovered - unseen, default=-1)
        triples = [] if j < 0 else [
            (i, j, h) for j in execution.prefix(i)
            for h in gone[:bisect_left(gone, j)] if h not in missing[j]
        ]
        closed.append(not triples)
        yield from triples


def transitivity_violations(
    execution: Execution,
) -> List[Tuple[int, int, int]]:
    """All triples ``(i, j, h)`` with ``h`` in prefix of ``j``, ``j`` in
    prefix of ``i``, but ``h`` not in prefix of ``i``, ascending."""
    return list(_violations(execution))


def is_transitive(execution: Execution) -> bool:
    """Section 3.2: prefixes are transitively closed.  Stops at the
    first violation."""
    return next(_violations(execution), None) is None


def transitive_closure_prefixes(
    execution: Execution,
) -> Tuple[Tuple[int, ...], ...]:
    """The smallest transitively-closed prefixes containing the given ones.

    Note: enlarging prefixes changes apparent states, so re-running with
    these may change the generated updates; callers wanting a transitive
    execution should rebuild with :meth:`Execution.run`.
    """
    closed: List[frozenset] = []
    for i in execution.indices:
        prefix = execution.prefix(i)
        closed.append(frozenset(prefix).union(*map(closed.__getitem__, prefix)))
    return tuple(tuple(sorted(s)) for s in closed)


# -- completeness ---------------------------------------------------------


def is_k_complete(execution: Execution, index: int, k: int) -> bool:
    """Transaction ``index`` sees all but at most ``k`` of its predecessors."""
    return execution.deficit(index) <= k


def has_complete_prefix(execution: Execution, index: int) -> bool:
    return execution.deficit(index) == 0


def all_k_complete(
    execution: Execution,
    k: int,
    which: Optional[TransactionPredicate] = None,
) -> bool:
    """True iff every transaction (or every one selected by ``which``)
    is k-complete in the execution."""
    return all(
        execution.deficit(i) <= k for i in execution.indices
        if which is None or which(execution, i)
    )


def max_deficit(
    execution: Execution,
    which: Optional[TransactionPredicate] = None,
) -> int:
    """The largest completeness deficit among the selected transactions —
    the smallest k for which they are all k-complete."""
    return max((
        execution.deficit(i) for i in execution.indices
        if which is None or which(execution, i)
    ), default=0)


def family_predicate(*names: str) -> TransactionPredicate:
    """Predicate selecting transactions by family name (e.g. "MOVE_UP")."""
    name_set = frozenset(names)

    def predicate(execution: Execution, i: int) -> bool:
        return execution.transactions[i].name in name_set

    return predicate


# -- centralization ---------------------------------------------------------


def centralization_violations(
    execution: Execution, group: Iterable[int]
) -> List[Tuple[int, int]]:
    """Pairs ``(i, j)`` of group members with ``j < i`` but ``j`` missing
    from ``i``'s prefix subsequence."""
    members = set(group)
    return [
        (i, j) for i in sorted(members) for j in execution.missing(i)
        if j in members
    ]


def is_centralized(execution: Execution, group: Iterable[int]) -> bool:
    """Section 3.2: each transaction in the group sees all earlier group
    members (as if a single agent ran them)."""
    return not centralization_violations(execution, group)


def group_by_family(execution: Execution, *names: str) -> Tuple[int, ...]:
    """Indices of all transactions whose family name is in ``names``."""
    name_set = frozenset(names)
    return tuple(
        i for i in execution.indices
        if execution.transactions[i].name in name_set
    )


def group_by_param(execution: Execution, param: object) -> Tuple[int, ...]:
    """Indices of all transactions mentioning ``param`` among their params
    (e.g. all transactions generating updates involving person P)."""
    return tuple(
        i for i in execution.indices
        if param in execution.transactions[i].params
    )


def group_by_update_param(execution: Execution, param: object) -> Tuple[int, ...]:
    """Indices of all transactions whose *generated update* mentions
    ``param`` — the paper's "transactions that generate updates involving
    P" (Theorem 22), which for decision-driven transactions like MOVE_UP
    cannot be read off the transaction template."""
    return tuple(
        i for i in execution.indices
        if param in execution.updates[i].params
    )


# -- atomicity --------------------------------------------------------------


def is_atomic(execution: Execution, indices: Sequence[int]) -> bool:
    """Section 3.1: a consecutive run of indices is atomic iff (a) each
    member's prefix includes every earlier member, and (b) all members see
    the same subset of the transactions before the run."""
    indices = list(indices)
    if not indices:
        return True
    # the first member misses only transactions before the run, so both
    # hold iff every member misses exactly what it misses.
    return indices == list(range(indices[0], indices[-1] + 1)) and all(
        execution.missing(i) == execution.missing(indices[0]) for i in indices
    )


# -- timed conditions --------------------------------------------------------


def bounded_delay_violations(
    execution: TimedExecution, t: float
) -> List[Tuple[int, int]]:
    """Pairs ``(i, j)`` violating t-bounded delay: ``j`` precedes ``i`` by
    at least ``t`` in real time yet is missing from ``i``'s prefix."""
    times = execution.times
    return [
        (i, j) for i in execution.indices for j in execution.missing(i)
        if times[j] <= times[i] - t
    ]
