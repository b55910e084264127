"""Executable forms of the paper's general theorems (Sections 4 and 5.2).

Each checker takes an execution together with the application facts the
theorem assumes (which transactions preserve/compensate/are unsafe for a
constraint, and a cost-increase bound f), evaluates both the hypotheses
and the conclusion, and returns a :class:`TheoremReport`.

A report's ``vacuous`` flag distinguishes "the hypotheses did not hold, so
the theorem asserts nothing" from "hypotheses held and the conclusion was
checked".  The implication ``holds`` is True unless hypotheses held and
the conclusion failed — which, for a correct implementation of the model,
can never happen; the benchmark harness exercises exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence

from .builder import ExecutionBuilder
from .execution import Execution
from .grouping import Grouping
from .relations import CostBound
from .state import State
from .transaction import Transaction

_EPS = 1e-9

CostFn = Callable[[State], float]
TransactionPredicate = Callable[[Execution, int], bool]


@dataclass
class TheoremReport:
    """Outcome of checking one theorem instance against one execution."""

    name: str
    hypothesis_holds: bool
    conclusion_holds: bool
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def vacuous(self) -> bool:
        return not self.hypothesis_holds

    @property
    def holds(self) -> bool:
        """The implication hypothesis => conclusion."""
        return (not self.hypothesis_holds) or self.conclusion_holds

    def __bool__(self) -> bool:
        return self.holds


# -- Theorem 5: per-step bound for cost-preserving k-complete transactions --


def theorem5(
    execution: Execution,
    index: int,
    cost: CostFn,
    bound: CostBound,
    preserves: TransactionPredicate,
    k: int,
) -> TheoremReport:
    """Theorem 5: if T (at ``index``) is k-complete and preserves the cost
    of constraint i, then cost(s') <= cost(s) or cost(s') <= f(k)."""
    hypothesis = execution.deficit(index) <= k and preserves(execution, index)
    before = cost(execution.actual_before(index))
    after = cost(execution.actual_after(index))
    conclusion = after <= before + _EPS or after <= bound(k) + _EPS
    return TheoremReport(
        "theorem5",
        hypothesis,
        conclusion,
        details={"index": index, "cost_before": before, "cost_after": after,
                 "k": k, "f(k)": bound(k)},
    )


# -- Theorem 7: invariant bound when unsafe transactions are k-complete --


def theorem7(
    execution: Execution,
    cost: CostFn,
    bound: CostBound,
    preserves: TransactionPredicate,
    unsafe: TransactionPredicate,
    k: int,
) -> TheoremReport:
    """Theorem 7: if every transaction preserves the cost of constraint i
    and every occurrence of an unsafe transaction is k-complete, then every
    reachable state s has cost(s, i) <= f(k)."""
    hyp_preserve = all(preserves(execution, i) for i in execution.indices)
    hyp_complete = all(
        execution.deficit(i) <= k
        for i in execution.indices
        if unsafe(execution, i)
    )
    hypothesis = hyp_preserve and hyp_complete
    limit = bound(k)
    worst_index, worst_cost = None, 0.0
    for i, state in enumerate(execution.actual_states):
        c = cost(state)
        if c > worst_cost:
            worst_index, worst_cost = i, c
    conclusion = worst_cost <= limit + _EPS
    return TheoremReport(
        "theorem7",
        hypothesis,
        conclusion,
        details={
            "k": k,
            "f(k)": limit,
            "max_cost": worst_cost,
            "argmax_state": worst_index,
            "all_preserve": hyp_preserve,
            "unsafe_k_complete": hyp_complete,
        },
    )


# -- Theorem 9: grouping bound at normal states --


def theorem9(
    execution: Execution,
    grouping: Grouping,
    cost: CostFn,
    bound: CostBound,
    preserves: TransactionPredicate,
    k: int,
) -> TheoremReport:
    """Theorem 9: for a valid grouping for constraint i, if all
    cost-preserving transactions and all end-of-group transactions are
    k-complete, then every normal state has cost at most f(k)."""
    grouping_valid = grouping.is_valid_for(
        execution, "", cost, preserves
    )
    ends = set(grouping.group_ends())
    hyp_complete = all(
        execution.deficit(i) <= k
        for i in execution.indices
        if preserves(execution, i) or i in ends
    )
    hypothesis = grouping_valid and hyp_complete
    limit = bound(k)
    normal = grouping.normal_states(execution)
    worst = max((cost(s) for s in normal), default=0.0)
    conclusion = worst <= limit + _EPS
    return TheoremReport(
        "theorem9",
        hypothesis,
        conclusion,
        details={
            "k": k,
            "f(k)": limit,
            "max_normal_cost": worst,
            "num_groups": len(grouping.boundaries),
            "grouping_valid": grouping_valid,
        },
    )


# -- Lemma 1 / Corollary 2 / Lemma 12: compensation --


def lemma12(
    execution: Execution,
    kept_indices: Sequence[int],
    compensator: Transaction,
    cost: CostFn,
    bound: CostBound,
    max_suffix: int = 10_000,
) -> TheoremReport:
    """Lemma 12: let u be a subsequence of the indices of e missing at most
    k of them, and s the actual state after e.  Then either
    cost(s, i) <= f(k), or e extends by an atomic suffix of compensating
    transactions — the first seeing exactly u, each next seeing u plus the
    earlier suffix members — after which the actual cost is <= f(k).

    The report's details include the extended execution when a suffix was
    needed (under key ``"extension"``) and the suffix length.
    """
    kept = tuple(sorted(set(kept_indices)))
    k = len(execution) - len(kept)
    limit = bound(k)
    s_cost = cost(execution.final_state)
    if s_cost <= limit + _EPS:
        return TheoremReport(
            "lemma12",
            True,
            True,
            details={"k": k, "f(k)": limit, "cost": s_cost, "suffix_len": 0},
        )

    builder = ExecutionBuilder(execution.initial_state)
    for i, txn in enumerate(execution.transactions):
        builder.add(txn, execution.prefix(i))
    seen = list(kept)
    for _ in range(max_suffix):
        new_index = builder.add(compensator, seen)
        seen.append(new_index)
        if cost(builder.apparent_after(new_index)) <= _EPS:
            break
    else:
        return TheoremReport(
            "lemma12",
            True,
            False,
            details={"k": k, "f(k)": limit,
                     "error": "apparent cost never reached zero"},
        )

    extended = builder.build()
    final_cost = cost(extended.final_state)
    return TheoremReport(
        "lemma12",
        True,
        final_cost <= limit + _EPS,
        details={
            "k": k,
            "f(k)": limit,
            "cost_before_suffix": s_cost,
            "cost_after_suffix": final_cost,
            "suffix_len": len(seen) - len(kept),
            "extension": extended,
        },
    )


def preserves_by_family(
    families: Sequence[str],
) -> TransactionPredicate:
    """Predicate from a list of transaction family names (app property
    tables declare which families preserve a constraint's cost)."""
    family_set = frozenset(families)

    def predicate(execution: Execution, i: int) -> bool:
        return execution.transactions[i].name in family_set

    return predicate


def unsafe_by_family(families: Sequence[str]) -> TransactionPredicate:
    """Predicate selecting the unsafe transaction families."""
    return preserves_by_family(families)
