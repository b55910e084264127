"""Executable forms of the paper's airline-specific results (Section 5).

Each function evaluates one numbered result against a concrete execution:
it checks the hypotheses, checks the conclusion, and returns a
:class:`~repro.core.theorems.TheoremReport` whose ``holds`` property is
the implication.  The benchmark harness sweeps workloads and parameters
through these; the test suite checks them on targeted executions.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ...core.conditions import (
    group_by_family,
    group_by_update_param,
    is_centralized,
    is_transitive,
)
from ...core.execution import Execution, TimedExecution
from ...core.grouping import Grouping
from ...core.theorems import TheoremReport, lemma12, preserves_by_family
from .constraints import (
    DEFAULT_OVER_COST,
    DEFAULT_UNDER_COST,
    OverbookingConstraint,
    UnderbookingConstraint,
    overbooking_bound,
    underbooking_bound,
)
from .priority import precedes
from .state import AirlineState, Person
from .transactions import MoveDown, MoveUp
from .witnesses import (
    persons_mentioned,
    refined_overbooking_deficit,
    refined_underbooking_deficit,
)

_EPS = 1e-9

#: which families preserve each constraint's cost (Section 4.1).
OVERBOOKING_PRESERVERS = ("REQUEST", "CANCEL", "MOVE_UP", "MOVE_DOWN")
UNDERBOOKING_PRESERVERS = ("MOVE_UP", "MOVE_DOWN")
OVERBOOKING_UNSAFE = ("MOVE_UP",)
UNDERBOOKING_UNSAFE = ("REQUEST", "CANCEL", "MOVE_DOWN")


def _over(capacity: int, over_cost: float) -> OverbookingConstraint:
    return OverbookingConstraint(capacity, over_cost)


def _under(capacity: int, under_cost: float) -> UnderbookingConstraint:
    return UnderbookingConstraint(capacity, under_cost)


# -- Corollary 6: per-step bounds ----------------------------------------------


def corollary6_overbooking(
    execution: Execution,
    index: int,
    k: int,
    capacity: int,
    over_cost: float = DEFAULT_OVER_COST,
) -> TheoremReport:
    """Corollary 6(1): for any k-complete transaction, the overbooking
    cost after it is at most its value before, or at most 900k."""
    constraint = _over(capacity, over_cost)
    hypothesis = execution.deficit(index) <= k
    before = constraint.cost(execution.actual_before(index))
    after = constraint.cost(execution.actual_after(index))
    limit = overbooking_bound(over_cost)(k)
    conclusion = after <= before + _EPS or after <= limit + _EPS
    return TheoremReport(
        "corollary6.1", hypothesis, conclusion,
        details={"index": index, "before": before, "after": after, "f(k)": limit},
    )


def corollary6_underbooking(
    execution: Execution,
    index: int,
    k: int,
    capacity: int,
    under_cost: float = DEFAULT_UNDER_COST,
) -> TheoremReport:
    """Corollary 6(2): for a k-complete MOVE_UP or MOVE_DOWN, the
    underbooking cost after it is at most its value before, or 300k."""
    constraint = _under(capacity, under_cost)
    is_mover = execution.transactions[index].name in ("MOVE_UP", "MOVE_DOWN")
    hypothesis = is_mover and execution.deficit(index) <= k
    before = constraint.cost(execution.actual_before(index))
    after = constraint.cost(execution.actual_after(index))
    limit = underbooking_bound(under_cost)(k)
    conclusion = after <= before + _EPS or after <= limit + _EPS
    return TheoremReport(
        "corollary6.2", hypothesis, conclusion,
        details={"index": index, "before": before, "after": after, "f(k)": limit},
    )


# -- Corollary 8: invariant overbooking bound ----------------------------------


def corollary8(
    execution: Execution,
    k: int,
    capacity: int,
    over_cost: float = DEFAULT_OVER_COST,
) -> TheoremReport:
    """Corollary 8: if all MOVE_UPs are k-complete, every reachable state
    has overbooking cost at most 900k."""
    constraint = _over(capacity, over_cost)
    hypothesis = all(
        execution.deficit(i) <= k
        for i in execution.indices
        if execution.transactions[i].name == "MOVE_UP"
    )
    limit = overbooking_bound(over_cost)(k)
    worst = max(
        (constraint.cost(s) for s in execution.actual_states), default=0.0
    )
    return TheoremReport(
        "corollary8", hypothesis, worst <= limit + _EPS,
        details={"k": k, "f(k)": limit, "max_overbooking_cost": worst},
    )


# -- Corollaries 10 and 11: grouped underbooking / total bounds -----------------


def _grouping_hypothesis(
    execution: Execution, grouping: Grouping, k: int
) -> bool:
    """All movers and all end-of-group transactions are k-complete."""
    ends = set(grouping.group_ends())
    preserving = preserves_by_family(UNDERBOOKING_PRESERVERS)
    return all(
        execution.deficit(i) <= k
        for i in execution.indices
        if preserving(execution, i) or i in ends
    )


def corollary10(
    execution: Execution,
    grouping: Grouping,
    k: int,
    capacity: int,
    under_cost: float = DEFAULT_UNDER_COST,
) -> TheoremReport:
    """Corollary 10: for a grouping for the underbooking constraint with
    the movers and group-end transactions k-complete, every normal state
    has underbooking cost at most 300k."""
    constraint = _under(capacity, under_cost)
    preserving = preserves_by_family(UNDERBOOKING_PRESERVERS)
    valid = grouping.is_valid_for(
        execution, constraint.name, constraint.cost, preserving
    )
    hypothesis = valid and _grouping_hypothesis(execution, grouping, k)
    limit = underbooking_bound(under_cost)(k)
    worst = max(
        (constraint.cost(s) for s in grouping.normal_states(execution)),
        default=0.0,
    )
    return TheoremReport(
        "corollary10", hypothesis, worst <= limit + _EPS,
        details={"k": k, "f(k)": limit, "max_normal_underbooking": worst,
                 "grouping_valid": valid},
    )


def corollary11(
    execution: Execution,
    grouping: Grouping,
    k: int,
    capacity: int,
    over_cost: float = DEFAULT_OVER_COST,
    under_cost: float = DEFAULT_UNDER_COST,
) -> TheoremReport:
    """Corollary 11: under the Corollary 10 hypotheses *plus* all MOVE_UPs
    k-complete (Corollary 8), every normal state has total cost at most
    900k — using the fact that each well-formed state violates at most one
    of the two constraints."""
    over = _over(capacity, over_cost)
    under = _under(capacity, under_cost)
    preserving = preserves_by_family(UNDERBOOKING_PRESERVERS)
    valid = grouping.is_valid_for(
        execution, under.name, under.cost, preserving
    )
    move_ups_ok = all(
        execution.deficit(i) <= k
        for i in execution.indices
        if execution.transactions[i].name == "MOVE_UP"
    )
    hypothesis = (
        valid and move_ups_ok and _grouping_hypothesis(execution, grouping, k)
    )
    limit = max(overbooking_bound(over_cost)(k), underbooking_bound(under_cost)(k))
    worst = max(
        (over.cost(s) + under.cost(s) for s in grouping.normal_states(execution)),
        default=0.0,
    )
    return TheoremReport(
        "corollary11", hypothesis, worst <= limit + _EPS,
        details={"k": k, "limit": limit, "max_normal_total": worst},
    )


# -- Corollary 13: compensation repairs -----------------------------------------


def corollary13_overbooking(
    execution: Execution,
    kept: Sequence[int],
    capacity: int,
    over_cost: float = DEFAULT_OVER_COST,
) -> TheoremReport:
    """Corollary 13(1): either the overbooking cost is already <= 900k, or
    an atomic suffix of MOVE_DOWNs (first seeing exactly ``kept``) repairs
    it to <= 900k, where k is the number of indices missing from ``kept``."""
    constraint = _over(capacity, over_cost)
    report = lemma12(
        execution, kept, MoveDown(capacity), constraint.cost,
        overbooking_bound(over_cost),
    )
    report.name = "corollary13.1"
    return report


def corollary13_underbooking(
    execution: Execution,
    kept: Sequence[int],
    capacity: int,
    under_cost: float = DEFAULT_UNDER_COST,
) -> TheoremReport:
    """Corollary 13(2): the MOVE_UP analogue for the underbooking cost."""
    constraint = _under(capacity, under_cost)
    report = lemma12(
        execution, kept, MoveUp(capacity), constraint.cost,
        underbooking_bound(under_cost),
    )
    report.name = "corollary13.2"
    return report


# -- Theorem 20: refined per-step bounds ----------------------------------------


def theorem20_overbooking(
    execution: Execution,
    index: int,
    capacity: int,
    over_cost: float = DEFAULT_OVER_COST,
) -> TheoremReport:
    """Theorem 20(1): with k = the number of *assigned* persons whose
    assignment witness the transaction's prefix fails to retain, the
    overbooking cost after it is <= its value before, or <= 900k.

    Unlike Corollary 6, k here counts only critical missing information;
    the report's details expose both deficits for comparison.
    """
    constraint = _over(capacity, over_cost)
    seq = execution.updates[:index]
    state = execution.actual_before(index)
    assert isinstance(state, AirlineState)
    k = refined_overbooking_deficit(seq, execution.prefix(index), state.assigned)
    before = constraint.cost(state)
    after = constraint.cost(execution.actual_after(index))
    limit = overbooking_bound(over_cost)(k)
    conclusion = after <= before + _EPS or after <= limit + _EPS
    return TheoremReport(
        "theorem20.1", True, conclusion,
        details={"index": index, "refined_k": k,
                 "plain_k": execution.deficit(index),
                 "before": before, "after": after, "f(k)": limit},
    )


def theorem20_underbooking(
    execution: Execution,
    index: int,
    capacity: int,
    under_cost: float = DEFAULT_UNDER_COST,
) -> TheoremReport:
    """Theorem 20(2): the mover analogue with k = the number of
    *unassigned* persons for whom the prefix misses the last cancel or
    last move_down."""
    constraint = _under(capacity, under_cost)
    is_mover = execution.transactions[index].name in ("MOVE_UP", "MOVE_DOWN")
    seq = execution.updates[:index]
    state = execution.actual_before(index)
    assert isinstance(state, AirlineState)
    k = refined_underbooking_deficit(
        seq, execution.prefix(index), state.assigned
    )
    before = constraint.cost(state)
    after = constraint.cost(execution.actual_after(index))
    limit = underbooking_bound(under_cost)(k)
    conclusion = after <= before + _EPS or after <= limit + _EPS
    return TheoremReport(
        "theorem20.2", is_mover, conclusion,
        details={"index": index, "refined_k": k,
                 "plain_k": execution.deficit(index),
                 "before": before, "after": after, "f(k)": limit},
    )


# -- Theorems 22 and 23: centralization prevents overbooking ---------------------


def theorem22(
    execution: Execution,
    capacity: int,
    over_cost: float = DEFAULT_OVER_COST,
) -> TheoremReport:
    """Theorem 22: in a transitive execution with the MOVE_UPs centralized
    and, for each person P, the transactions generating updates involving
    P centralized, every reachable state has overbooking cost zero."""
    constraint = _over(capacity, over_cost)
    transitive = is_transitive(execution)
    movers_central = is_centralized(
        execution, group_by_family(execution, "MOVE_UP")
    )
    per_person = all(
        is_centralized(execution, group_by_update_param(execution, p))
        for p in persons_mentioned(execution.updates)
    )
    hypothesis = transitive and movers_central and per_person
    worst = max(
        (constraint.cost(s) for s in execution.actual_states), default=0.0
    )
    return TheoremReport(
        "theorem22", hypothesis, worst <= _EPS,
        details={"transitive": transitive, "movers_centralized": movers_central,
                 "per_person_centralized": per_person,
                 "max_overbooking_cost": worst},
    )


def theorem23(
    execution: Execution,
    capacity: int,
    over_cost: float = DEFAULT_OVER_COST,
) -> TheoremReport:
    """Theorem 23: the Theorem 22 variant replacing the per-person
    hypothesis with "at most one REQUEST(P) per person"."""
    constraint = _over(capacity, over_cost)
    transitive = is_transitive(execution)
    movers_central = is_centralized(
        execution, group_by_family(execution, "MOVE_UP")
    )
    request_counts: dict = {}
    for txn in execution.transactions:
        if txn.name == "REQUEST":
            person = txn.params[0]
            request_counts[person] = request_counts.get(person, 0) + 1
    single_requests = all(c <= 1 for c in request_counts.values())
    hypothesis = transitive and movers_central and single_requests
    worst = max(
        (constraint.cost(s) for s in execution.actual_states), default=0.0
    )
    return TheoremReport(
        "theorem23", hypothesis, worst <= _EPS,
        details={"transitive": transitive, "movers_centralized": movers_central,
                 "single_requests": single_requests,
                 "max_overbooking_cost": worst},
    )


# -- Theorems 25 and 27: fairness ------------------------------------------------


def _fairness_preconditions(
    execution: Execution, p: Person, q: Person
) -> Tuple[bool, bool, bool]:
    transitive = is_transitive(execution)
    movers = group_by_family(execution, "MOVE_UP", "MOVE_DOWN")
    movers_central = is_centralized(execution, movers)
    single = True
    for person in (p, q):
        requests = sum(
            1 for t in execution.transactions
            if t.name == "REQUEST" and t.params[0] == person
        )
        cancels = sum(
            1 for t in execution.transactions
            if t.name == "CANCEL" and t.params[0] == person
        )
        if requests != 1 or cancels != 0:
            single = False
    return transitive, movers_central, single


def _first_mover_seeing_both(
    execution: Execution, p: Person, q: Person
) -> Optional[int]:
    """The first MOVE_UP/MOVE_DOWN whose prefix includes both REQUESTs."""
    req_index = {}
    for i, txn in enumerate(execution.transactions):
        if txn.name == "REQUEST" and txn.params[0] in (p, q):
            req_index.setdefault(txn.params[0], i)
    if p not in req_index or q not in req_index:
        return None
    for i in execution.indices:
        if execution.transactions[i].name not in ("MOVE_UP", "MOVE_DOWN"):
            continue
        gone = execution.missing(i)
        if all(r < i and r not in gone for r in req_index.values()):
            return i
    return None


def theorem25(
    execution: Execution, p: Person, q: Person
) -> TheoremReport:
    """Theorem 25: transitive execution, centralized movers, P and Q each
    with exactly one REQUEST and no CANCEL.  For any mover T seeing both
    requests: if P < Q in T's apparent state, then P < Q in the actual
    state before T and in all later actual states."""
    transitive, movers_central, single = _fairness_preconditions(execution, p, q)
    mover = _first_mover_seeing_both(execution, p, q)
    hypothesis = transitive and movers_central and single and mover is not None
    conclusion = True
    details = {
        "transitive": transitive,
        "movers_centralized": movers_central,
        "single_requests": single,
        "first_informed_mover": mover,
    }
    if mover is not None:
        apparent = execution.apparent_before[mover]
        p_first = precedes(apparent, p, q)
        q_first = precedes(apparent, q, p)
        details["apparent_order"] = (
            f"{p}<{q}" if p_first else (f"{q}<{p}" if q_first else "unknown")
        )
        if p_first or q_first:
            winner, loser = (p, q) if p_first else (q, p)
            for i in range(mover, len(execution) + 1):
                state = execution.actual_states[i]
                assert isinstance(state, AirlineState)
                if state.is_known(winner) and state.is_known(loser):
                    if precedes(state, loser, winner):
                        conclusion = False
                        details["violated_at_state"] = i
                        break
    return TheoremReport("theorem25", hypothesis, conclusion, details=details)


def lemma26(
    execution: Execution, p: Person, q: Person
) -> TheoremReport:
    """Lemma 26: transitive execution, centralized movers, P and Q each
    with exactly one REQUEST and no CANCEL, REQUEST(P) preceding
    REQUEST(Q) in the serial order, and every mover with REQUEST(Q) in
    its prefix also having REQUEST(P).  Then P < Q in every actual state
    where both are known."""
    transitive, movers_central, single = _fairness_preconditions(execution, p, q)
    req_index = {}
    for i, txn in enumerate(execution.transactions):
        if txn.name == "REQUEST" and txn.params[0] in (p, q):
            req_index.setdefault(txn.params[0], i)
    ordered = (
        p in req_index and q in req_index and req_index[p] < req_index[q]
    )
    informed_together = True
    if ordered:
        for i in execution.indices:
            if execution.transactions[i].name not in ("MOVE_UP", "MOVE_DOWN"):
                continue
            gone = execution.missing(i)  # REQUEST(P) is the older one
            if req_index[q] < i and req_index[q] not in gone and (
                req_index[p] in gone
            ):
                informed_together = False
                break
    hypothesis = (
        transitive and movers_central and single and ordered
        and informed_together
    )
    conclusion = True
    violated_at = None
    for i, state in enumerate(execution.actual_states):
        assert isinstance(state, AirlineState)
        if state.is_known(p) and state.is_known(q):
            if not precedes(state, p, q):
                conclusion = False
                violated_at = i
                break
    return TheoremReport(
        "lemma26", hypothesis, conclusion,
        details={
            "transitive": transitive, "movers_centralized": movers_central,
            "single_requests": single, "request_order_ok": ordered,
            "movers_informed_together": informed_together,
            "violated_at_state": violated_at,
        },
    )


def theorem27(
    execution: TimedExecution,
    t: float,
    p: Person,
    q: Person,
) -> TheoremReport:
    """Theorem 27: transitive, orderly, t-bounded-delay timed execution
    with centralized movers; P and Q each request exactly once with no
    cancels; REQUEST(P) precedes REQUEST(Q) by at least time t.  Then
    P < Q in every actual state where both are known."""
    transitive, movers_central, single = _fairness_preconditions(execution, p, q)
    orderly = execution.is_orderly()
    delay_ok = execution.has_bounded_delay(t)
    req_time = {}
    for i, txn in enumerate(execution.transactions):
        if txn.name == "REQUEST" and txn.params[0] in (p, q):
            req_time.setdefault(txn.params[0], execution.times[i])
    gap_ok = (
        p in req_time
        and q in req_time
        and req_time[q] - req_time[p] >= t
    )
    hypothesis = (
        transitive and movers_central and single and orderly and delay_ok
        and gap_ok
    )
    conclusion = True
    violated_at = None
    for i, state in enumerate(execution.actual_states):
        assert isinstance(state, AirlineState)
        if state.is_known(p) and state.is_known(q):
            if not precedes(state, p, q):
                conclusion = False
                violated_at = i
                break
    return TheoremReport(
        "theorem27", hypothesis, conclusion,
        details={
            "transitive": transitive, "movers_centralized": movers_central,
            "single_requests": single, "orderly": orderly,
            "t_bounded_delay": delay_ok, "gap_ok": gap_ok,
            "violated_at_state": violated_at,
        },
    )
