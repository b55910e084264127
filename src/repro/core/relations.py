"""The missing-information relation ``s <=_k t`` and cost-increase bounds
(Section 4.1).

``s <=_k t`` holds when there is a sequence of updates leading from the
initial state to ``s``, and a subsequence of it containing all but at most
``k`` of the updates, whose result is ``t``: state ``t`` contains all the
information in ``s`` except possibly for the effects of at most ``k``
updates.

A function ``f`` *bounds the cost increase* for constraint ``i`` when
``s <=_k t`` implies ``cost(s, i) <= cost(t, i) + f(k)``: running with
``k`` updates' worth of missing information can hurt by at most ``f(k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Tuple

from .constraint import IntegrityConstraint
from .state import State
from .update import Update, apply_sequence


@dataclass(frozen=True)
class CostBound:
    """A named bounding function ``f`` for a constraint's cost increase."""

    constraint_name: str
    fn: Callable[[int], float]
    description: str = ""

    def __call__(self, k: int) -> float:
        if k < 0:
            raise ValueError("k must be nonnegative")
        return self.fn(k)


def linear_bound(constraint_name: str, per_update: float) -> CostBound:
    """The common linear case ``f(k) = per_update * k`` (e.g. 900k for the
    airline overbooking constraint)."""
    return CostBound(
        constraint_name,
        lambda k: per_update * k,
        description=f"f(k) = {per_update}k",
    )


@dataclass(frozen=True)
class InformationPair:
    """A witnessed instance of ``s <=_k t``.

    ``full`` is the update sequence leading to ``s``; ``kept`` are the
    (sorted) positions retained in the subsequence leading to ``t``.
    """

    initial_state: State
    full: Tuple[Update, ...]
    kept: Tuple[int, ...]

    def __post_init__(self) -> None:
        if list(self.kept) != sorted(set(self.kept)):
            raise ValueError("kept positions must be sorted and unique")
        if self.kept and (self.kept[0] < 0 or self.kept[-1] >= len(self.full)):
            raise ValueError("kept positions out of range")

    @property
    def k(self) -> int:
        """Number of missing updates: the k of ``s <=_k t``."""
        return len(self.full) - len(self.kept)

    @property
    def s(self) -> State:
        """The full-information state."""
        return apply_sequence(self.full, self.initial_state)

    @property
    def t(self) -> State:
        """The partial-information state."""
        return apply_sequence(
            (self.full[j] for j in self.kept), self.initial_state
        )

    def append(self, update: Update) -> "InformationPair":
        """Extend both sequences by one shared update.

        This is the engine of Lemma 3: applying the *same* atomic suffix to
        both sides preserves ``s <=_k t`` with the same k.
        """
        return InformationPair(
            self.initial_state,
            self.full + (update,),
            self.kept + (len(self.full),),
        )


def bound_holds(
    bound: CostBound,
    constraint: IntegrityConstraint,
    pair: InformationPair,
) -> bool:
    """Check ``cost(s, i) <= cost(t, i) + f(k)`` for one witnessed pair."""
    return constraint.cost(pair.s) <= constraint.cost(pair.t) + bound(pair.k) + 1e-9


def bound_violations(
    bound: CostBound,
    constraint: IntegrityConstraint,
    pairs: Iterable[InformationPair],
) -> List[InformationPair]:
    """All pairs among ``pairs`` for which the bound fails."""
    return [p for p in pairs if not bound_holds(bound, constraint, p)]


def pairs_from_execution(
    execution, index: int
) -> InformationPair:
    """The ``s <=_k t`` pair induced by transaction ``index`` of an
    execution: ``s`` its actual-before state, ``t`` its apparent state
    (Lemma 4 part 1)."""
    return InformationPair(
        execution.initial_state,
        tuple(execution.updates[:index]),
        execution.prefix(index),
    )
