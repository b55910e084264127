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

from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from .execution import Execution, TimedExecution
from .transaction import Transaction

TransactionPredicate = Callable[[Execution, int], bool]


# -- transitivity ---------------------------------------------------------


def transitivity_violations(
    execution: Execution,
) -> List[Tuple[int, int, int]]:
    """All triples ``(i, j, h)`` with ``h`` in prefix of ``j``, ``j`` in
    prefix of ``i``, but ``h`` not in prefix of ``i``."""
    violations: List[Tuple[int, int, int]] = []
    prefix_sets = [set(p) for p in execution.prefixes]
    for i in execution.indices:
        seen_i = prefix_sets[i]
        for j in execution.prefixes[i]:
            if prefix_sets[j] <= seen_i:
                continue
            for h in execution.prefixes[j]:
                if h not in seen_i:
                    violations.append((i, j, h))
    return violations


def is_transitive(execution: Execution) -> bool:
    """Section 3.2: prefixes are transitively closed.

    Walks each prefix from newest to oldest and skips a ``j`` that lies
    in the prefix of a ``j'`` already checked: every earlier transaction
    has passed, so ``j``'s prefix lies inside ``j'``'s and hence inside
    this one."""
    prefix_sets = [set(p) for p in execution.prefixes]
    for i in execution.indices:
        seen_i = prefix_sets[i]
        covered: Set[int] = set()
        for j in reversed(execution.prefixes[i]):
            if j in covered:
                continue
            if not prefix_sets[j] <= seen_i:
                return False
            covered |= prefix_sets[j]
    return True


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
        acc = set(execution.prefixes[i])
        for j in execution.prefixes[i]:
            acc |= closed[j]
        closed.append(frozenset(acc))
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
    for i in execution.indices:
        if which is not None and not which(execution, i):
            continue
        if execution.deficit(i) > k:
            return False
    return True


def max_deficit(
    execution: Execution,
    which: Optional[TransactionPredicate] = None,
) -> int:
    """The largest completeness deficit among the selected transactions —
    the smallest k for which they are all k-complete."""
    worst = 0
    for i in execution.indices:
        if which is not None and not which(execution, i):
            continue
        worst = max(worst, execution.deficit(i))
    return worst


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
    members = sorted(set(group))
    violations: List[Tuple[int, int]] = []
    for pos, i in enumerate(members):
        seen = set(execution.prefixes[i])
        for j in members[:pos]:
            if j not in seen:
                violations.append((i, j))
    return violations


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
    if indices != list(range(indices[0], indices[-1] + 1)):
        return False
    start = indices[0]
    base: Optional[frozenset] = None
    for pos, i in enumerate(indices):
        seen = set(execution.prefixes[i])
        for j in indices[:pos]:
            if j not in seen:
                return False
        outside = frozenset(j for j in seen if j < start)
        if base is None:
            base = outside
        elif outside != base:
            return False
    return True


# -- timed conditions --------------------------------------------------------


def bounded_delay_violations(
    execution: TimedExecution, t: float
) -> List[Tuple[int, int]]:
    """Pairs ``(i, j)`` violating t-bounded delay: ``j`` precedes ``i`` by
    at least ``t`` in real time yet is missing from ``i``'s prefix."""
    violations: List[Tuple[int, int]] = []
    for i in execution.indices:
        seen = set(execution.prefixes[i])
        for j in range(i):
            if execution.times[j] <= execution.times[i] - t and j not in seen:
                violations.append((i, j))
    return violations
