"""Reconstructing the formal execution from a SHARD run.

The serial order of the formal execution is the global timestamp order of
the transactions; each transaction's prefix subsequence is the set of
transactions its origin node's log contained when the decision ran.  The
Lamport clock guarantees every seen transaction has a smaller timestamp,
so the prefix subsequence condition holds *by construction* — this module
asserts it rather than assumes it.

With ``verify=True`` the extracted execution is re-derived through
:meth:`Execution.run`, and the re-run decisions are checked against the
updates the simulator actually produced — the formal model and the system
simulation must agree exactly (condition (3)).  A run known only from
its recorded node logs is a :class:`RecordedRun`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from ..core.execution import (
    Execution, InvalidExecutionError, MissingSets, TimedExecution,
)
from ..core.state import State
from ..replica.log import UpdateRecord, missing_positions
from ..sim.trace import TraceEvent


def extract_execution(
    initial_state: State,
    records: Iterable[UpdateRecord],
    verify: bool = True,
) -> TimedExecution:
    """Build the paper's execution object from a run's update records,
    each prefix subsequence as the record's missing positions
    (:func:`repro.replica.log.missing_positions`): O(runs + k) each."""
    ordered = sorted(records, key=lambda r: r.ts)
    missing = missing_positions(ordered)
    for i, (record, gone) in enumerate(zip(ordered, missing)):
        # every seen txid that is a record's lies below i, so a seen-set
        # larger than what its missing set leaves names one that is not.
        if gone is not None and len(record.seen_txids) == i - len(gone):
            continue
        dangling = set(record.seen_txids) - {r.txid for r in ordered}
        if dangling:
            raise InvalidExecutionError(
                f"transaction {record.txid} saw transaction {min(dangling)}, "
                "which is not among the records"
            )
        if gone is None:
            raise InvalidExecutionError(
                f"transaction {record.txid} saw a transaction with a larger "
                "timestamp; Lamport clock invariant violated"
            )

    execution = Execution.run(
        initial_state,
        [r.transaction for r in ordered],
        MissingSets(missing),
    )

    if verify:
        for i, record in enumerate(ordered):
            if execution.updates[i] != record.update:
                raise InvalidExecutionError(
                    f"re-derived update for transaction {record.txid} "
                    f"({execution.updates[i]!r}) differs from the one the "
                    f"simulator produced ({record.update!r})"
                )

    times = [r.real_time for r in ordered]
    return TimedExecution(execution, times)


@dataclass
class RecordedRun:
    """A finished run as its node logs and trace events recorded it.

    The logs are merged once, by txid: ``records`` is their union in
    timestamp order, ``txids`` each node's txid set, and ``disagreeing``
    the txids whose copies differ between logs.  Equal copies replay to
    equal states, so the run is mutually consistent exactly when no
    copies differ.  The oracles ask it what they ask a live cluster:
    ``converged()``, ``missing_counts()``, ``disagreements()``.
    """

    initial_state: Optional[State]  # None when only records are read
    logs: Dict[int, Tuple[UpdateRecord, ...]]
    events: Tuple[TraceEvent, ...] = ()
    records: Tuple[UpdateRecord, ...] = field(init=False)
    txids: Dict[int, FrozenSet[int]] = field(init=False)
    disagreeing: Tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        merged: Dict[int, UpdateRecord] = {}
        disagreeing: Set[int] = set()
        for _, log in sorted(self.logs.items()):
            for record in log:
                if merged.setdefault(record.txid, record) != record:
                    disagreeing.add(record.txid)
        self.records = tuple(sorted(merged.values(), key=lambda r: r.ts))
        self.txids = {
            node: frozenset(r.txid for r in log)
            for node, log in sorted(self.logs.items())
        }
        self.disagreeing = tuple(sorted(disagreeing))

    def missing_counts(self) -> Dict[int, int]:
        """Per node: how many txids of the union its log lacks."""
        return {n: len(self.records) - len(t) for n, t in self.txids.items()}

    def converged(self) -> bool:
        return not any(self.missing_counts().values())

    def disagreements(self) -> Tuple[int, ...]:
        return self.disagreeing

    def mutually_consistent(self) -> bool:
        return not self.disagreeing
