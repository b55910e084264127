"""Run histories on disk: JSONL trace events + wire-encoded logs.

A runtime run leaves the same evidence a simulator run keeps in memory:

* ``events-<node>.jsonl`` — one trace event per line, in exactly the
  :data:`repro.sim.trace.EVENT_SCHEMAS` vocabulary (validated on write,
  so a runtime history can never drift from what the trace oracle and
  the R5 lint rule understand).  Client-side events the client API
  records use the same schema.
* ``records-<node>.jsonl`` — the node's final log, one wire-encoded
  :class:`~repro.replica.UpdateRecord` per line.

:func:`load_run` reads a directory of them into one
:class:`~repro.shard.history.RecordedRun`, the value every offline
reader judges (``repro.chaos.offline``, ``repro.consistency``, the
demo); nothing in the offline path touches a socket or a simulator.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Callable, Dict, Iterable, List, Optional, TextIO, Tuple

from ..core.state import State
from ..replica import UpdateRecord
from ..shard.history import RecordedRun
from ..sim.trace import EVENT_SCHEMAS, TraceEvent
from .wire import decode, encode


def events_path(history_dir: str, label: object) -> str:
    return os.path.join(history_dir, f"events-{label}.jsonl")


def records_path(history_dir: str, label: object) -> str:
    return os.path.join(history_dir, f"records-{label}.jsonl")


class HistoryWriter:
    """Append-only JSONL event stream in the trace-event schema.

    Every write is validated against :data:`EVENT_SCHEMAS` (the dynamic
    R5 check) and flushed — a SIGKILLed node must leave every event it
    logged before the kill on disk.
    """

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle: Optional[TextIO] = open(path, "a", encoding="utf-8")

    def record(
        self, time: float, kind: str, node: Optional[int] = None, **detail
    ) -> None:
        schema = EVENT_SCHEMAS.get(kind)
        if schema is None:
            raise ValueError(f"unregistered trace event kind {kind!r}")
        if set(detail) != set(schema):
            raise ValueError(
                f"trace event {kind!r} detail keys {sorted(detail)} "
                f"!= declared {sorted(schema)}"
            )
        if self._handle is None:
            return
        line = json.dumps(
            {"time": time, "kind": kind, "node": node, "detail": detail},
            sort_keys=True,
        )
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _parse_jsonl(path: str, parse: Callable[[str], object]) -> List[object]:
    """Parse one value per non-empty line, tolerating a *torn tail*.

    A SIGKILL mid-write leaves at most one partial line, and only at the
    end of the file (both writers append + flush whole lines).  An
    unparseable *final* non-empty line is therefore expected crash
    debris: warn and skip it.  An unparseable line with content after it
    is real corruption and still raises.
    """
    out: List[object] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    for index, line in enumerate(lines):
        if not line:
            continue
        try:
            out.append(parse(line))
        except (ValueError, KeyError, TypeError) as exc:
            if any(later for later in lines[index + 1:]):
                raise
            warnings.warn(
                f"{path}: skipping torn final line "
                f"({type(exc).__name__}: {exc})",
                stacklevel=2,
            )
            break
    return out


def read_events(path: str) -> Tuple[TraceEvent, ...]:
    """One file's events, in write order (a torn final line is skipped
    with a warning — see :func:`_parse_jsonl`)."""

    def parse(line: str) -> TraceEvent:
        data = json.loads(line)
        return TraceEvent(
            time=data["time"],
            kind=data["kind"],
            node=data["node"],
            detail=tuple(sorted(data["detail"].items())),
        )

    return tuple(_parse_jsonl(path, parse))  # type: ignore[arg-type]


def merged_events(paths: Iterable[str]) -> Tuple[TraceEvent, ...]:
    """All files' events merged into one global time-sorted stream.

    Ties break by (node, kind) so the merge is stable across runs; the
    per-node streams are individually ordered, which is all the trace
    oracle's monotonicity check needs after a stable merge.
    """
    out: List[TraceEvent] = []
    for path in paths:
        out.extend(read_events(path))
    out.sort(key=lambda e: (e.time, -1 if e.node is None else e.node, e.kind))
    return tuple(out)


def dump_records(path: str, records: Iterable[UpdateRecord]) -> int:
    """Write a node's log snapshot; returns the record count."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in sorted(records, key=lambda r: r.ts):
            handle.write(encode(record) + "\n")
            count += 1
    return count


def load_records(path: str) -> Tuple[UpdateRecord, ...]:
    """One node's log snapshot (a torn final line is skipped with a
    warning — see :func:`_parse_jsonl`)."""

    def parse(line: str) -> UpdateRecord:
        record = decode(line)
        if not isinstance(record, UpdateRecord):
            raise ValueError(
                f"expected an UpdateRecord line, got {type(record).__name__}"
            )
        return record

    return tuple(_parse_jsonl(path, parse))  # type: ignore[arg-type]


def load_history(
    history_dir: str,
) -> Tuple[Tuple[TraceEvent, ...], Dict[int, Tuple[UpdateRecord, ...]]]:
    """Everything a recorded run left behind: (merged events, node logs).

    Node logs are keyed by node id, parsed from ``records-<id>.jsonl``
    names; event files may carry any label (node ids, ``client``).
    """
    event_files = sorted(
        os.path.join(history_dir, name)
        for name in os.listdir(history_dir)
        if name.startswith("events-") and name.endswith(".jsonl")
    )
    logs: Dict[int, Tuple[UpdateRecord, ...]] = {}
    for name in sorted(os.listdir(history_dir)):
        if name.startswith("records-") and name.endswith(".jsonl"):
            label = name[len("records-"):-len(".jsonl")]
            logs[int(label)] = load_records(
                os.path.join(history_dir, name)
            )
    return merged_events(event_files), logs


def load_run(history_dir: str, initial_state: Optional[State]) -> RecordedRun:
    """A recorded run directory as one :class:`RecordedRun`."""
    events, logs = load_history(history_dir)
    return RecordedRun(initial_state, logs, events)
