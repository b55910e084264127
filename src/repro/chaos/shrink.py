"""Greedy counterexample shrinking (single-delta ddmin).

Given a failing plan and a ``still_fails`` predicate (rerun the plan,
check that a violation of the *original* failing oracles survives), the
shrinker repeatedly tries dropping one fault at a time, keeping any
removal that preserves the failure, until no single removal does.  Runs
are deterministic, so every probe is a faithful replay — the result is
a locally minimal reproducer, typically one to three faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .faults import FaultPlan


@dataclass(frozen=True)
class ShrinkResult:
    plan: FaultPlan
    #: how many candidate plans were re-run while shrinking.
    probes: int


#: probe budget: candidate re-runs one shrink may spend.
MAX_PROBES = 64


def shrink_plan(
    plan: FaultPlan, still_fails: Callable[[FaultPlan], bool]
) -> ShrinkResult:
    """Minimize ``plan`` while ``still_fails`` holds.

    ``still_fails`` must be True for ``plan`` itself (the caller found
    the violation); the returned plan also satisfies it, and no single
    fault can be removed from it without losing the failure (unless the
    probe budget ran out first).
    """
    current = plan
    probes = 0
    improved = True
    while improved and probes < MAX_PROBES:
        improved = False
        for index in range(len(current.faults)):
            if probes >= MAX_PROBES:
                break
            candidate = current.without(index)
            probes += 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break  # restart scan over the smaller plan
    return ShrinkResult(plan=current, probes=probes)
