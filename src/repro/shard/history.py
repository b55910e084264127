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
simulation must agree exactly (condition (3)).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..core.execution import Execution, InvalidExecutionError, TimedExecution
from ..core.state import State
from ..replica import UpdateRecord


def extract_execution(
    initial_state: State,
    records: Iterable[UpdateRecord],
    verify: bool = True,
) -> TimedExecution:
    """Build the paper's execution object from a run's update records."""
    ordered = sorted(records, key=lambda r: r.ts)
    index_of: Dict[int, int] = {r.txid: i for i, r in enumerate(ordered)}

    transactions = [r.transaction for r in ordered]
    prefixes: List[tuple] = []
    for i, record in enumerate(ordered):
        try:
            prefix = sorted(map(index_of.__getitem__, record.seen_txids))
        except KeyError:
            missing = min(set(record.seen_txids) - index_of.keys())
            raise InvalidExecutionError(
                f"transaction {record.txid} saw transaction {missing}, "
                "which is not among the records"
            ) from None
        if prefix and prefix[-1] >= i:
            raise InvalidExecutionError(
                f"transaction {record.txid} saw a transaction with a larger "
                "timestamp; Lamport clock invariant violated"
            )
        prefixes.append(tuple(prefix))

    execution = Execution.run(initial_state, transactions, prefixes)

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
