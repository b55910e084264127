"""Oracles over *recorded* histories: no simulator, no sockets.

The oracle suite was written against a live ``ShardCluster``; this
module rebuilds an oracle-checkable run from the files a runtime
deployment leaves behind (see :mod:`repro.runtime.history`) — per-node
log snapshots plus the merged trace-event streams — and feeds it to the
same :func:`repro.chaos.oracles.run_oracles` the simulator campaigns
use.  That is the oracle-portability claim made concrete: conditions
(1)–(4), convergence, transitivity and the trace discipline are
properties of the *recorded history*, checkable long after the cluster
is gone (Biswas & Enea's black-box stance, PAPERS.md).

``python -m repro.chaos.offline --history DIR`` is the command-line
face of this module (the package init does not import it, so ``-m``
runs its body once); it follows the ``python -m repro.chaos`` exit
convention — 0: every oracle passed; 1: at least one violation;
2: usage error (unreadable or empty history, unknown oracle).  Its
``--format=json`` object carries the campaign-report field shapes:
``violations`` is a count, ``failures`` the detailed list.  The default
offline set includes the black-box transactional consistency checkers
(``consistency_rc`` / ``consistency_ra`` / ``consistency_causal``,
:mod:`repro.consistency`); name ``consistency_prefix`` explicitly to
run the opt-in prefix check as well.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..apps.airline.state import AirlineState
from ..core.execution import TimedExecution
from ..core.state import State
from ..core.update import apply_sequence
from ..replica import UpdateRecord
from ..shard.history import extract_execution
from ..sim.trace import TraceEvent
from .faults import FaultPlan
from .oracles import ORACLES, OracleContext, Violation, run_oracles

#: the oracles meaningful without live cluster internals or a sound
#: time bound: exactly what a recorded history supports.  The
#: ``consistency_*`` family (``repro.consistency``) is black-box by
#: construction; ``consistency_prefix`` stays opt-in here as everywhere
#: (reordered gossip legitimately yields non-prefix snapshots).
OFFLINE_ORACLES: Tuple[str, ...] = (
    "convergence", "conditions", "transitivity", "trace",
    "consistency_rc", "consistency_ra", "consistency_causal",
)


class _RecordedBroadcast:
    """The slice of the broadcast layer the convergence oracle reads."""

    def __init__(self, logs: Dict[int, Tuple[UpdateRecord, ...]]):
        self._txids = {
            node: frozenset(r.txid for r in records)
            for node, records in logs.items()
        }

    def missing_counts(self) -> Dict[int, int]:
        union = frozenset().union(*self._txids.values()) \
            if self._txids else frozenset()
        return {
            node: len(union - known)
            for node, known in sorted(self._txids.items())
        }


@dataclass
class RecordedRun:
    """A finished run reconstructed from history files.

    Quacks like the cluster where the oracles look: ``converged()``,
    ``mutually_consistent()``, ``broadcast.missing_counts()``.
    """

    initial_state: State
    logs: Dict[int, Tuple[UpdateRecord, ...]]
    events: Tuple[TraceEvent, ...] = ()

    def __post_init__(self) -> None:
        self.broadcast = _RecordedBroadcast(self.logs)

    def converged(self) -> bool:
        sets = {
            frozenset(r.txid for r in records)
            for records in self.logs.values()
        }
        return len(sets) <= 1

    def mutually_consistent(self) -> bool:
        """Nodes with equal logs must replay to equal states (the
        paper's mutual consistency, re-derived from the records)."""
        by_log: Dict[frozenset, State] = {}
        for records in self.logs.values():
            key = frozenset(r.txid for r in records)
            state = apply_sequence(
                (r.update for r in sorted(records, key=lambda r: r.ts)),
                self.initial_state,
            )
            if key in by_log and by_log[key] != state:
                return False
            by_log.setdefault(key, state)
        return True

    def all_records(self) -> Tuple[UpdateRecord, ...]:
        """The union of the node logs, deduplicated by txid."""
        seen: Dict[int, UpdateRecord] = {}
        for records in self.logs.values():
            for record in records:
                seen.setdefault(record.txid, record)
        return tuple(sorted(seen.values(), key=lambda r: r.ts))


def check_recorded_run(
    run: RecordedRun,
    plan: Optional[FaultPlan] = None,
    capacity: int = 100,
    names: Tuple[str, ...] = OFFLINE_ORACLES,
) -> Tuple[Tuple[Violation, ...], Optional[TimedExecution]]:
    """Run the offline oracle set over a recorded run.

    Returns (violations, extracted execution).  Extraction re-derives
    every decision from the recorded prefixes and compares the updates
    with what the cluster actually shipped — conditions (1)–(4) checked
    against the recording, not against any in-memory state.
    """
    execution: Optional[TimedExecution] = None
    extract_error: Optional[str] = None
    try:
        execution = extract_execution(
            run.initial_state, run.all_records(), verify=True
        )
        execution.validate()
    except Exception as exc:
        extract_error = f"{type(exc).__name__}: {exc}"
    ctx = OracleContext(
        cluster=run,
        plan=plan if plan is not None else FaultPlan(()),
        capacity=capacity,
        execution=execution,
        extract_error=extract_error,
        expect_transitive=True,
        movers_centralized=False,
        t_bound=float("inf"),
        events=run.events,
    )
    return tuple(run_oracles(ctx, names)), execution


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.chaos.offline --history DIR``: check a
    *recorded* run — the history files a runtime cluster left behind —
    with the offline oracle set; exit codes and JSON as in the module
    docstring."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.offline",
        description="run the offline oracles over a recorded history",
    )
    parser.add_argument(
        "--history", required=True,
        help="directory of events-*.jsonl / records-*.jsonl files",
    )
    parser.add_argument(
        "--plan", default=None,
        help="optional FaultPlan JSON file the run replayed",
    )
    parser.add_argument(
        "--oracles", default=None,
        help="comma-separated oracle names (default: the offline set)",
    )
    parser.add_argument("--capacity", type=int, default=100)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args(argv)

    # local: only this entry path reads history files (and pulls asyncio).
    from ..runtime.history import load_history

    names = OFFLINE_ORACLES
    if args.oracles is not None:
        names = tuple(
            name.strip() for name in args.oracles.split(",") if name.strip()
        )
        unknown = sorted(set(names) - set(ORACLES))
        if unknown:
            print(f"error: unknown oracle(s) {unknown}; "
                  f"known: {sorted(ORACLES)}")
            return 2
    try:
        events, logs = load_history(args.history)
    except OSError as exc:
        print(f"error: cannot load history from {args.history}: {exc}")
        return 2
    if not logs:
        print(f"error: no records-*.jsonl files under {args.history}")
        return 2
    plan = None
    if args.plan is not None:
        with open(args.plan, "r", encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
    run = RecordedRun(AirlineState(), logs, events)
    violations, execution = check_recorded_run(
        run, plan=plan, capacity=args.capacity, names=names
    )
    if args.format == "json":
        print(json.dumps({
            "nodes": sorted(logs),
            "records": len(run.all_records()),
            "events": len(events),
            "oracles": list(names),
            "transactions": len(execution) if execution is not None else 0,
            "violations": len(violations),
            "failures": [v.as_dict() for v in violations],
            "ok": not violations,
        }, indent=2, sort_keys=True))
    else:
        print(
            f"recorded run: {len(logs)} node log(s), "
            f"{len(run.all_records())} record(s), {len(events)} event(s)"
        )
        if execution is not None:
            print(
                f"extracted execution: {len(execution)} transactions; "
                "conditions (1)-(4) hold"
            )
        for violation in violations:
            print(f"VIOLATION [{violation.oracle}] {violation.description}")
        print("ok" if not violations else f"{len(violations)} violation(s)")
    return 0 if not violations else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
