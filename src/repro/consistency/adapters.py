"""Build checker histories from recorded runs — records and events only.

Both adapters are *black-box*: they consume exactly what a finished run
leaves behind — :class:`~repro.replica.log.UpdateRecord` entries (the
union of the surviving node logs) plus, optionally, trace events for
crash times — and never touch a simulator or cluster object.  The same
code therefore serves live chaos campaigns (records straight off the
cluster), offline ``--history`` runs (records decoded from
``records-<node>.jsonl``), and any foreign system that can produce the
wire format.

The mapping, per record:

* **transaction** — txid, with reads and writes named by the footprint
  registry (:mod:`repro.consistency.footprints`);
* **write-read** — the decision saw ``seen_txids``; the source of a read
  of key *k* is the max-timestamp visible writer of *k* (replicas apply
  updates in timestamp order, so that writer's value is what the
  observed state held), or the initial transaction when no visible
  transaction wrote *k*;
* **visibility** — the paper's prefix subsequence (§3.1–3.2) is "every
  record before it in timestamp order except its *k* missing ones", so
  :func:`missing_positions` computes each record's missing positions in
  O(runs + k) amortised, without enumerating the seen-set.  A read's
  source is then found by walking the key's writers back from the
  record, past the missing ones, and the missing sets ride on the
  :class:`~repro.consistency.model.History` as its ``visibility``
  witness for the checkers to verify;
* **session order** — one session per node *incarnation*:
  ``"<origin>"``, splitting to ``"<origin>.<n>"`` after the n-th crash
  of that node.  A crash may lose volatile state, and the paper's
  guarantees are per-surviving-session; splitting keeps the session
  axioms honest without hiding cross-session anomalies (they still show
  up through the write-read relation).

``seen_txids`` entries whose records did not survive (lost to a
volatile-state crash before any gossip) cannot be interpreted and are
dropped; the count is recorded in ``History.meta["dangling_refs"]``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..replica.log import UpdateRecord, missing_positions
from ..sim.trace import TraceEvent
from .footprints import FootprintRegistry, airline_footprints
from .model import History, HTransaction


def crash_times_from_events(
    events: Iterable[TraceEvent],
) -> Dict[int, Tuple[float, ...]]:
    """node → times it crashed, from ``crash`` trace events."""
    out: Dict[int, List[float]] = {}
    for event in events:
        if event.kind == "crash" and event.node is not None:
            out.setdefault(event.node, []).append(event.time)
    return {node: tuple(sorted(times)) for node, times in out.items()}


def _session(
    origin: int,
    real_time: float,
    crash_times: Mapping[int, Tuple[float, ...]],
) -> str:
    incarnation = sum(
        1 for at in crash_times.get(origin, ()) if at <= real_time
    )
    if incarnation == 0:
        return str(origin)
    return f"{origin}.{incarnation}"


def history_from_records(
    records: Iterable[UpdateRecord],
    *,
    crash_times: Optional[Mapping[int, Tuple[float, ...]]] = None,
    footprints: Optional[FootprintRegistry] = None,
) -> History:
    """The checker history of a set of surviving update records.

    Each key keeps its writers' positions in timestamp order, so a
    read's source is found by walking back past the reader's missing
    positions: O(k).  A record whose seen-set :func:`missing_positions`
    cannot express is resolved by walking its visible records instead,
    and the history then carries no visibility witness.
    """
    registry = footprints or airline_footprints()
    crash_times = crash_times or {}
    ordered = sorted(records, key=lambda r: r.ts)
    missing = missing_positions(ordered)
    universe: Dict[int, UpdateRecord] = {r.txid: r for r in ordered}
    writes_of: Dict[int, Tuple[str, ...]] = {}
    reads_of: Dict[int, Tuple[str, ...]] = {}
    for record in ordered:
        fp = registry.of(record)
        reads_of[record.txid] = fp.reads
        writes_of[record.txid] = fp.writes

    dangling = 0
    writers: Dict[str, List[int]] = {}  # key → positions, ascending
    transactions: List[HTransaction] = []
    for i, record in enumerate(ordered):
        reads: List[Tuple[str, Optional[int]]] = []
        gone = missing[i]
        if gone is not None:
            # every seen txid that is a record lies below i.
            dangling += len(record.seen_txids) - i + len(gone)
            skip = frozenset(gone)
            for key in reads_of[record.txid]:
                below = writers.get(key, ())
                j = len(below) - 1
                while j >= 0 and below[j] in skip:
                    j -= 1
                reads.append(
                    (key, ordered[below[j]].txid if j >= 0 else None)
                )
        else:
            visible: List[UpdateRecord] = []
            for txid in record.seen_txids:
                seen = universe.get(txid)
                if seen is None:
                    dangling += 1
                elif txid != record.txid:
                    visible.append(seen)
            visible.sort(key=lambda r: r.ts)
            for key in reads_of[record.txid]:
                src: Optional[int] = None
                for candidate in visible:  # last wins: max-ts visible writer
                    if key in writes_of[candidate.txid]:
                        src = candidate.txid
                reads.append((key, src))
        for key in writes_of[record.txid]:
            writers.setdefault(key, []).append(i)
        transactions.append(HTransaction(
            txid=record.txid,
            session=_session(record.origin, record.real_time, crash_times),
            reads=tuple(reads),
            writes=writes_of[record.txid],
        ))
    sessions = sorted({t.session for t in transactions})
    witness = None if None in missing else tuple(missing)
    return History(transactions, meta={
        "transactions": len(transactions),
        "dangling_refs": dangling,
        "sessions": sessions,
        "session_splits": sum(1 for s in sessions if "." in s),
    }, visibility=witness)


def history_from_trace(
    records: Iterable[UpdateRecord],
    events: Iterable[TraceEvent] = (),
    *,
    split_sessions_at_crash: bool = True,
    footprints: Optional[FootprintRegistry] = None,
) -> History:
    """History of a recorded run: records plus crash times from events.

    With ``split_sessions_at_crash`` disabled every node keeps a single
    session across crashes — the stricter reading under which a
    volatile-state loss *is* a session-guarantee violation (E18 measures
    exactly this gap).
    """
    crash_times = (
        crash_times_from_events(events) if split_sessions_at_crash else {}
    )
    return history_from_records(
        records, crash_times=crash_times, footprints=footprints
    )


def history_from_dir(
    history_dir: str,
    *,
    split_sessions_at_crash: bool = True,
    footprints: Optional[FootprintRegistry] = None,
) -> History:
    """History of an on-disk run (``events-*.jsonl`` + ``records-*.jsonl``):
    the union of its node logs, as :func:`repro.runtime.history.load_run`
    merges them by txid."""
    from ..runtime.history import load_run

    run = load_run(history_dir, None)
    return history_from_trace(
        run.records,
        run.events,
        split_sessions_at_crash=split_sessions_at_crash,
        footprints=footprints,
    )


__all__ = [
    "crash_times_from_events",
    "history_from_dir",
    "history_from_records",
    "history_from_trace",
    "missing_positions",
]
