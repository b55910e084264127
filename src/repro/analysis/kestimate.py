"""Measuring the information deficit k of a run.

The paper's conditional claims are parameterized by k — how many
preceding transactions a transaction failed to see.  Real runs don't come
with a k; this module measures it, both the plain completeness deficit
and the witness-refined deficits of Theorem 20 (only *critical* missing
transactions count), per transaction and per family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..apps.airline.state import AirlineState
from ..apps.airline.witnesses import (
    refined_overbooking_deficit,
    refined_underbooking_deficit,
)
from ..core.execution import Execution
from ..sim.metrics import Summary


@dataclass
class DeficitProfile:
    """Deficit statistics for one execution."""

    per_transaction: Tuple[int, ...]
    by_family: Dict[str, Summary]
    overall: Summary

    @property
    def max(self) -> int:
        return int(self.overall.max)

    def family_max(self, family: str) -> int:
        summary = self.by_family.get(family)
        return int(summary.max) if summary else 0


def deficit_profile(execution: Execution) -> DeficitProfile:
    """Plain completeness deficits, overall and per transaction family."""
    deficits = tuple(execution.deficit(i) for i in execution.indices)
    per_family: Dict[str, List[float]] = {}
    for i in execution.indices:
        family = execution.transactions[i].name
        per_family.setdefault(family, []).append(float(deficits[i]))
    return DeficitProfile(
        per_transaction=deficits,
        by_family={f: Summary.of(v) for f, v in per_family.items()},
        overall=Summary.of([float(d) for d in deficits]),
    )


@dataclass
class RefinedDeficits:
    """Theorem 20's witness-refined deficits for one airline execution."""

    plain: Tuple[int, ...]
    overbooking: Tuple[int, ...]
    underbooking: Tuple[int, ...]

    def max_plain(self) -> int:
        return max(self.plain, default=0)

    def max_overbooking(self) -> int:
        return max(self.overbooking, default=0)

    def max_underbooking(self) -> int:
        return max(self.underbooking, default=0)

    def mean_reduction(self) -> float:
        """Average of (plain - refined_overbooking) over transactions with
        plain deficit > 0: how much slack the refinement recovers."""
        diffs = [
            p - r
            for p, r in zip(self.plain, self.overbooking)
            if p > 0
        ]
        return sum(diffs) / len(diffs) if diffs else 0.0


def refined_deficits(execution: Execution) -> RefinedDeficits:
    """Witness-refined deficits at every transaction (airline app only)."""
    plain: List[int] = []
    over: List[int] = []
    under: List[int] = []
    for i in execution.indices:
        state = execution.actual_before(i)
        assert isinstance(state, AirlineState)
        seq = execution.updates[:i]
        kept = execution.prefix(i)
        plain.append(execution.deficit(i))
        over.append(refined_overbooking_deficit(seq, kept, state.assigned))
        under.append(refined_underbooking_deficit(seq, kept, state.assigned))
    return RefinedDeficits(tuple(plain), tuple(over), tuple(under))
