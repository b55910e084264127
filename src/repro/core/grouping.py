"""Groupings of an execution for a constraint (Section 5.2, Theorem 9).

A *grouping* of execution ``e`` for constraint ``i`` is a partition of the
indices of ``e`` into groups of consecutive indices such that each group
satisfies one of:

(a) it consists of exactly one index ``j`` and transaction ``T_j``
    preserves the cost of constraint ``i``; or
(b) the apparent state after the group has cost 0 for constraint ``i``.

The *normal states* of ``e`` with respect to a grouping are the actual
states reachable after the groups.  Theorem 9 bounds the cost of normal
states by ``f(k)`` when the relevant transactions are k-complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .execution import Execution
from .state import State

PreservesPredicate = Callable[[Execution, int], bool]
_EPS = 1e-9


@dataclass(frozen=True)
class Grouping:
    """A partition of ``range(n)`` into consecutive groups.

    ``boundaries`` holds the exclusive end index of each group, strictly
    increasing, with the last equal to ``n``.
    """

    n: int
    boundaries: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n == 0:
            if self.boundaries:
                raise ValueError("empty execution admits only the empty grouping")
            return
        if not self.boundaries or self.boundaries[-1] != self.n:
            raise ValueError("boundaries must end at n")
        prev = 0
        for b in self.boundaries:
            if b <= prev:
                raise ValueError("boundaries must be strictly increasing")
            prev = b

    @property
    def groups(self) -> Tuple[Tuple[int, ...], ...]:
        result: List[Tuple[int, ...]] = []
        start = 0
        for b in self.boundaries:
            result.append(tuple(range(start, b)))
            start = b
        return tuple(result)

    def group_ends(self) -> Tuple[int, ...]:
        """Index of the last transaction of each group."""
        return tuple(b - 1 for b in self.boundaries)

    def normal_states(self, execution: Execution) -> Tuple[State, ...]:
        """Actual states after each group (plus the initial state, which is
        trivially normal)."""
        states = [execution.initial_state]
        states.extend(execution.actual_after(end) for end in self.group_ends())
        return tuple(states)

    def is_valid_for(
        self,
        execution: Execution,
        constraint_name: str,
        constraint_cost: Callable[[State], float],
        preserves: PreservesPredicate,
    ) -> bool:
        """Check conditions (a)/(b) for every group."""
        return not self.violations(execution, constraint_cost, preserves)

    def violations(
        self,
        execution: Execution,
        constraint_cost: Callable[[State], float],
        preserves: PreservesPredicate,
    ) -> List[Tuple[int, ...]]:
        """Groups satisfying neither (a) nor (b)."""
        if len(execution) != self.n:
            raise ValueError("grouping does not match execution length")
        bad: List[Tuple[int, ...]] = []
        for group in self.groups:
            if len(group) == 1 and preserves(execution, group[0]):
                continue
            apparent_after = execution.apparent_after(group[-1])
            if constraint_cost(apparent_after) <= _EPS:
                continue
            bad.append(group)
        return bad


def find_grouping(
    execution: Execution,
    constraint_cost: Callable[[State], float],
    preserves: PreservesPredicate,
) -> Optional[Grouping]:
    """Greedily construct a grouping for the execution, or None.

    Scans left to right; whenever the current transaction preserves the
    cost and no group is open, it forms a singleton group; otherwise a
    group stays open until some transaction's apparent-after state has
    cost zero.  Greedy earliest-close is optimal here because condition
    (b) only constrains the closing index.
    """
    boundaries: List[int] = []
    open_since: Optional[int] = None
    for i in execution.indices:
        if open_since is None and preserves(execution, i):
            boundaries.append(i + 1)
            continue
        if open_since is None:
            open_since = i
        if constraint_cost(execution.apparent_after(i)) <= _EPS:
            boundaries.append(i + 1)
            open_since = None
    if open_since is not None:
        return None
    return Grouping(len(execution), tuple(boundaries))
