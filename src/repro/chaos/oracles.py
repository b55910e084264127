"""Invariant oracles: what must still hold after a faulted run.

Each oracle is a function from an :class:`OracleContext` (the finished,
quiesced run plus its records, extracted execution and trace stream) to
a list of :class:`Violation`\\ s — empty means the invariant held.  The
registry :data:`ORACLES` maps names to oracle functions.

:func:`judge` is the one way a finished run is judged, simulated
(:func:`repro.chaos.harness.run_chaos`) or recorded
(:func:`repro.chaos.offline.check_recorded_run`): it extracts and
validates the execution, fills the context and runs the oracles.

The oracles are thin adapters over the checkers the repo already has —
``core/conditions.py``, ``apps/airline/theorems.py``, the run's own
convergence answers — pointed at adversarial schedules:

* ``convergence`` — after healing and quiescing, all nodes hold the same
  item set, and replicas holding the same records agree: equal states
  in a live cluster, equal copies of every record in a recording (the
  paper's headline claim);
* ``conditions`` — the run's history extracts to a valid execution
  satisfying the Section 3.1 conditions (1)-(4);
* ``transitivity`` — prefixes are transitively closed.  Only in the
  *default* oracle set when the configuration promises transitivity
  (``piggyback=True``); naming it explicitly always checks — that is
  how the weakened ``piggyback=False`` ablation is shown to fail;
* ``bounded_delay`` / ``k_completeness`` — the timed-execution
  refinements under a t-bound derived from the plan and the gossip
  parameters (see :func:`repro.chaos.harness.compute_t_bound`);
* ``cost_bounds`` — Corollary 8's invariant overbooking bound at the
  measured mover deficit, and Corollary 6's per-step bounds at each
  transaction's own deficit;
* ``fairness`` — Theorem 25 on sampled passenger pairs (vacuous unless
  the scenario centralizes movers — the implication must still hold);
* ``trace`` — the trace stream itself is well-formed: time-monotone,
  crash/recover alternate per node, and no node initiates, delivers or
  gossips while crashed.
* ``consistency_rc`` / ``consistency_ra`` / ``consistency_causal`` /
  ``consistency_prefix`` — the black-box transactional checkers of
  :mod:`repro.consistency` (Biswas & Enea) over the history the run
  recorded: update records plus crash events, nothing internal.  Node
  sessions split at crashes (a respawned incarnation is a new session),
  so the default-set members hold for *any* faulted run of a correct
  implementation: ``consistency_rc`` and ``consistency_ra`` always run;
  ``consistency_causal`` joins the default set only when the
  configuration promises causally closed visibility
  (``expect_transitive``, i.e. piggybacking on); ``consistency_prefix``
  runs only when named — gossip reordering legitimately produces
  non-prefix snapshots, and showing exactly that is E18's job.

Checking a *recorded* run from its files alone is
:mod:`repro.chaos.offline` (``python -m repro.chaos.offline --history
DIR``), which goes through the same :func:`judge`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..apps.airline.theorems import (
    corollary6_overbooking,
    corollary6_underbooking,
    corollary8,
    theorem25,
)
from ..core.conditions import (
    bounded_delay_violations,
    family_predicate,
    is_k_complete,
    max_deficit,
    transitivity_violations,
)
from ..core.execution import TimedExecution
from ..core.state import State
from ..replica import UpdateRecord
from ..shard.history import extract_execution
from ..sim.trace import TraceEvent
from .faults import FaultPlan

#: families whose deficits the cost-bound oracles quantify over.
MOVER_FAMILIES = ("MOVE_UP", "MOVE_DOWN")

#: event kinds a crashed node must not emit (fault_inject is exempt:
#: lose_volatile legitimately fires while the node is down).
ACTIVE_KINDS = frozenset({
    "initiate", "deliver", "merge_fastpath", "merge_undo", "merge_batch",
    "merge_certified", "gossip_syn", "gossip_delta", "gossip_skip",
})


@dataclass(frozen=True)
class Violation:
    """One oracle failure, carrying enough detail to reproduce."""

    oracle: str
    description: str
    details: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "oracle": self.oracle,
            "description": self.description,
            "details": {k: repr(v) for k, v in sorted(self.details.items())},
        }


@dataclass
class OracleContext:
    """Everything the oracles may inspect about one finished run."""

    #: a quiesced ShardCluster or a RecordedRun; the oracles ask it only
    #: converged(), missing_counts() and disagreements().
    cluster: object
    plan: FaultPlan
    capacity: int
    #: None when extraction itself failed (see ``extract_error``).
    execution: Optional[TimedExecution]
    extract_error: Optional[str]
    #: does the configuration promise transitive prefixes?
    expect_transitive: bool
    #: does the configuration centralize the movers (fairness regime)?
    movers_centralized: bool
    #: the sound delay bound for this plan + gossip configuration.
    t_bound: float
    events: Tuple[TraceEvent, ...] = ()
    records: Sequence[UpdateRecord] = ()  # one per txid, any order
    _history: object = field(default=None, init=False, repr=False)


Oracle = Callable[[OracleContext], List[Violation]]


def oracle_convergence(ctx: OracleContext) -> List[Violation]:
    run = ctx.cluster
    out: List[Violation] = []
    if not run.converged():
        out.append(Violation(
            "convergence", "nodes disagree on the delivered item set",
            {"missing": run.missing_counts()},
        ))
    disagreements = run.disagreements()
    if disagreements:
        out.append(Violation(
            "convergence",
            "replicas holding the same records disagree at "
            f"{list(disagreements)}",
            {"at": disagreements},
        ))
    return out


def oracle_conditions(ctx: OracleContext) -> List[Violation]:
    if ctx.extract_error is not None:
        return [Violation(
            "conditions",
            "history does not extract to a valid Section 3.1 execution",
            {"error": ctx.extract_error},
        )]
    return []


def oracle_transitivity(ctx: OracleContext) -> List[Violation]:
    if ctx.execution is None:
        return []
    triples = transitivity_violations(ctx.execution)
    if not triples:
        return []
    return [Violation(
        "transitivity",
        f"{len(triples)} intransitive prefix triple(s)",
        {"sample": triples[:5]},
    )]


def oracle_bounded_delay(ctx: OracleContext) -> List[Violation]:
    if ctx.execution is None:
        return []
    pairs = bounded_delay_violations(ctx.execution, ctx.t_bound)
    if not pairs:
        return []
    return [Violation(
        "bounded_delay",
        f"{len(pairs)} pair(s) violate {ctx.t_bound:.1f}-bounded delay",
        {"sample": pairs[:5], "t_bound": ctx.t_bound},
    )]


def oracle_k_completeness(ctx: OracleContext) -> List[Violation]:
    """Each transaction must be k-complete for the k that t-bounded
    delay permits it: only predecessors initiated within ``t_bound``
    of it may be missing from its prefix."""
    if ctx.execution is None:
        return []
    execution = ctx.execution
    times = execution.times
    out: List[Violation] = []
    for i in execution.indices:
        # when every missing predecessor is recent, it is among the
        # allowed ones, so the deficit cannot exceed them.
        cutoff = times[i] - ctx.t_bound
        if all(times[j] > cutoff for j in execution.missing(i)):
            continue
        allowed = sum(1 for j in range(i) if times[j] > cutoff)
        if not is_k_complete(execution, i, allowed):
            out.append(Violation(
                "k_completeness",
                f"transaction {i} misses more than its {allowed} "
                "recent predecessors",
                {"index": i, "deficit": execution.deficit(i),
                 "allowed": allowed},
            ))
    return out


def oracle_cost_bounds(ctx: OracleContext) -> List[Violation]:
    if ctx.execution is None:
        return []
    execution = ctx.execution
    out: List[Violation] = []
    movers_up = family_predicate("MOVE_UP")
    k = max_deficit(execution, movers_up)
    report = corollary8(execution, k, ctx.capacity)
    if not report.holds:
        out.append(Violation(
            "cost_bounds",
            f"Corollary 8 violated at measured k={k}",
            dict(report.details),
        ))
    for i in execution.indices:
        name = execution.transactions[i].name
        deficit = execution.deficit(i)
        if name == "MOVE_UP":
            step = corollary6_overbooking(execution, i, deficit, ctx.capacity)
            if not step.holds:
                out.append(Violation(
                    "cost_bounds",
                    f"Corollary 6(1) violated at transaction {i}",
                    dict(step.details),
                ))
        if name in MOVER_FAMILIES:
            step = corollary6_underbooking(execution, i, deficit, ctx.capacity)
            if not step.holds:
                out.append(Violation(
                    "cost_bounds",
                    f"Corollary 6(2) violated at transaction {i}",
                    dict(step.details),
                ))
    return out


def oracle_fairness(ctx: OracleContext) -> List[Violation]:
    """Theorem 25 on sampled passenger pairs.  The implication must hold
    unconditionally; unless the scenario centralizes the movers the
    hypothesis is false and the check is (deliberately) vacuous."""
    if ctx.execution is None or not ctx.movers_centralized:
        return []
    execution = ctx.execution
    persons = []
    for txn in execution.transactions:
        if txn.name == "REQUEST" and txn.params[0] not in persons:
            persons.append(txn.params[0])
    out: List[Violation] = []
    for p, q in list(combinations(persons[:4], 2)):
        report = theorem25(execution, p, q)
        if not report.holds:
            out.append(Violation(
                "fairness",
                f"Theorem 25 violated for pair ({p}, {q})",
                dict(report.details),
            ))
    return out


def oracle_trace(ctx: OracleContext) -> List[Violation]:
    out: List[Violation] = []
    down: Dict[int, bool] = {}
    last_time = float("-inf")
    for event in ctx.events:
        if event.time < last_time:
            out.append(Violation(
                "trace", "trace times went backwards",
                {"at": event.time, "after": last_time, "kind": event.kind},
            ))
        last_time = event.time
        node = event.node
        if event.kind == "crash":
            if down.get(node, False):
                out.append(Violation(
                    "trace", f"node {node} crashed while already down",
                    {"at": event.time},
                ))
            down[node] = True
        elif event.kind == "recover":
            if not down.get(node, False):
                out.append(Violation(
                    "trace", f"node {node} recovered while already up",
                    {"at": event.time},
                ))
            down[node] = False
        elif event.kind in ACTIVE_KINDS and down.get(node, False):
            out.append(Violation(
                "trace",
                f"{event.kind} at node {node} while crashed",
                {"at": event.time},
            ))
    still_down = sorted(n for n, d in down.items() if d)
    if still_down:
        out.append(Violation(
            "trace", f"nodes {still_down} never recovered",
        ))
    return out


def _consistency_history(ctx: OracleContext):
    """The run's checker history, built once per context from its
    records plus crash events, never cluster internals."""
    if ctx._history is None:
        from ..consistency.adapters import history_from_trace

        ctx._history = history_from_trace(ctx.records, ctx.events)
    return ctx._history


def _make_consistency_oracle(name: str, model: str) -> Oracle:
    def oracle(ctx: OracleContext) -> List[Violation]:
        from ..consistency.checkers import check

        history = _consistency_history(ctx)
        if len(history) == 0:
            return []
        verdict = check(history, model)
        if verdict.ok:
            return []
        if verdict.status == "indeterminate":
            description = (
                f"{model} check indeterminate: "
                f"{verdict.witness.description if verdict.witness else ''}"
            )
        else:
            description = f"history violates {model} consistency"
        details: Dict[str, object] = {
            "status": verdict.status,
            "transactions": len(history),
            "dangling_refs": history.meta.get("dangling_refs", 0),
        }
        if verdict.witness is not None:
            details["witness"] = verdict.witness.description
            details["cycle"] = [
                reason for _, _, reason in verdict.witness.edges
            ]
        return [Violation(name, description, details)]

    return oracle


#: the consistency-model oracle family: oracle name → checker model.
CONSISTENCY_ORACLES: Dict[str, str] = {
    "consistency_rc": "read_committed",
    "consistency_ra": "read_atomic",
    "consistency_causal": "causal",
    "consistency_prefix": "prefix",
}

ORACLES: Dict[str, Oracle] = {
    "convergence": oracle_convergence,
    "conditions": oracle_conditions,
    "transitivity": oracle_transitivity,
    "bounded_delay": oracle_bounded_delay,
    "k_completeness": oracle_k_completeness,
    "cost_bounds": oracle_cost_bounds,
    "fairness": oracle_fairness,
    "trace": oracle_trace,
    **{
        name: _make_consistency_oracle(name, model)
        for name, model in CONSISTENCY_ORACLES.items()
    },
}


def run_oracles(
    ctx: OracleContext,
    names: Optional[Tuple[str, ...]] = None,
) -> List[Violation]:
    """Run the named oracles, in registry order.

    The default set is every oracle whose invariant the configuration
    promises: ``transitivity`` and ``consistency_causal`` are dropped
    when ``ctx.expect_transitive`` is False (piggybacking off —
    intransitive prefixes and causality gaps are *expected*), and
    ``consistency_prefix`` never joins by itself (reordered gossip
    legitimately yields non-prefix snapshots).  Naming an oracle
    explicitly always runs it, which is how the weakened-ablation tests
    demonstrate the violations.
    """
    if names is None:
        names = tuple(
            name for name in ORACLES
            if name != "consistency_prefix" and (
                ctx.expect_transitive
                or name not in ("transitivity", "consistency_causal")
            )
        )
    out: List[Violation] = []
    for name in names:
        oracle = ORACLES.get(name)
        if oracle is None:
            raise ValueError(f"unknown oracle {name!r}")
        out.extend(oracle(ctx))
    return out


def judge(
    run: object,
    initial_state: State,
    records: Sequence[UpdateRecord],
    names: Optional[Tuple[str, ...]] = None,
    **context,
) -> Tuple[Tuple[Violation, ...], Optional[TimedExecution]]:
    """Judge one finished run, simulated or recorded: extract and
    validate its execution from ``records``, then run the ``names``
    oracles (default: see :func:`run_oracles`) over it.

    ``context`` holds the other :class:`OracleContext` fields.  Returns
    (violations, execution); an extraction or validation failure is the
    ``conditions`` violation ``"{Type}: {message}"``, with no execution.
    """
    try:
        execution: Optional[TimedExecution] = extract_execution(
            initial_state, records, verify=True
        )
        execution.validate()
        error = None
    except Exception as exc:
        execution, error = None, f"{type(exc).__name__}: {exc}"
    ctx = OracleContext(
        cluster=run, execution=execution, extract_error=error,
        records=records, **context,
    )
    return tuple(run_oracles(ctx, names)), execution
