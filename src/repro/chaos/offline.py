"""Oracles over *recorded* histories: no simulator, no sockets.

A runtime deployment leaves per-node log snapshots plus trace-event
streams behind (see :mod:`repro.runtime.history`).
:func:`repro.runtime.history.load_run` reads them into one
:class:`~repro.shard.history.RecordedRun` — the node logs merged by txid
once, every copy of a record compared with the others — and
:func:`check_recorded_run` hands it to :func:`repro.chaos.oracles.judge`,
the judge the simulator campaigns use too.  That is the
oracle-portability claim made concrete: conditions (1)–(4),
convergence, copy agreement, transitivity and the trace discipline are
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
from typing import List, Optional, Tuple

from ..apps.airline.state import AirlineState
from ..core.execution import TimedExecution
from ..shard.history import RecordedRun
from .faults import FaultPlan
from .oracles import ORACLES, Violation, judge

#: the oracles meaningful without live cluster internals or a sound
#: time bound: exactly what a recorded history supports.  The
#: ``consistency_*`` family (``repro.consistency``) is black-box by
#: construction; ``consistency_prefix`` stays opt-in here as everywhere
#: (reordered gossip legitimately yields non-prefix snapshots).
OFFLINE_ORACLES: Tuple[str, ...] = (
    "convergence", "conditions", "transitivity", "trace",
    "consistency_rc", "consistency_ra", "consistency_causal",
)


def check_recorded_run(
    run: RecordedRun,
    plan: Optional[FaultPlan] = None,
    capacity: int = 100,
    names: Tuple[str, ...] = OFFLINE_ORACLES,
) -> Tuple[Tuple[Violation, ...], Optional[TimedExecution]]:
    """Judge a recorded run with the offline oracle set.

    Returns (violations, extracted execution): conditions (1)–(4) are
    checked against the recording, not against any in-memory state.
    """
    return judge(
        run, run.initial_state, run.records, names,
        plan=plan if plan is not None else FaultPlan(()),
        capacity=capacity,
        expect_transitive=True,
        movers_centralized=False,
        t_bound=float("inf"),
        events=run.events,
    )


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
    from ..runtime.history import load_run

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
        run = load_run(args.history, AirlineState())
    except OSError as exc:
        print(f"error: cannot load history from {args.history}: {exc}")
        return 2
    if not run.logs:
        print(f"error: no records-*.jsonl files under {args.history}")
        return 2
    plan = None
    if args.plan is not None:
        with open(args.plan, "r", encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
    violations, execution = check_recorded_run(
        run, plan=plan, capacity=args.capacity, names=names
    )
    if args.format == "json":
        print(json.dumps({
            "nodes": sorted(run.logs),
            "records": len(run.records),
            "events": len(run.events),
            "oracles": list(names),
            "transactions": len(execution) if execution is not None else 0,
            "violations": len(violations),
            "failures": [v.as_dict() for v in violations],
            "ok": not violations,
        }, indent=2, sort_keys=True))
    else:
        print(
            f"recorded run: {len(run.logs)} node log(s), "
            f"{len(run.records)} record(s), {len(run.events)} event(s)"
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
