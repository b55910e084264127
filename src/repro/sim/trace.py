"""Run tracing: a structured event log of what the simulation did.

A :class:`Tracer` collects timestamped events from a cluster run.  It is
off by default — cluster call sites all go through one guarded helper
(``ShardCluster._trace``) against a ``NULL_TRACER`` that drops
everything — and can be attached per cluster via
``ClusterConfig(tracer=Tracer())`` for debugging and for the trace-based
assertions in the test suite.

Event kinds emitted by the cluster (this list is checked against
:data:`EVENT_SCHEMAS` by the test suite, and every emit call site is
checked against it by shardlint rule R5 — it cannot drift):

* ``initiate`` / ``deliver`` — a transaction's decision ran at a node /
  a remote record was delivered there;
* ``crash`` / ``recover`` — fail-stop transitions;
* ``merge_fastpath`` / ``merge_undo`` — the replica layer's per-record
  storage outcome: an in-order tail append, or an undo/redo repair with
  its ``displacement`` (positions from the tail) and ``replayed``
  (updates re-applied);
* ``merge_batch`` — a whole record batch (a gossip DELTA, a quiescence
  exchange) repaired in one undo/redo cycle: ``count`` records entered
  the log for one repair with the given ``displacement``/``replayed``;
* ``merge_certified`` — an out-of-order record whose displaced suffix
  was certified commutative (repro.certify): applied in place at the
  given ``displacement``, skipping a replay of ``skipped`` updates;
* ``gossip_syn`` / ``gossip_delta`` / ``gossip_skip`` — one anti-entropy
  exchange: a SYN carrying the node's held keys (``runs`` runs of them)
  left a node, a DELTA shipped missing records, or the exchange found
  the peers already in sync;
* ``fault_inject`` — the chaos layer perturbed the run at this node
  (``fault`` names the fault kind, ``info`` carries its parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

#: The full trace vocabulary: event kind → the exact detail keys every
#: emit of that kind carries.  Adding an event means adding it here
#: *and* to the bullet list above (a unit test holds them equal), and
#: shardlint rule R5 statically checks each ``_trace``/``record`` call
#: site against this registry.
EVENT_SCHEMAS: Dict[str, FrozenSet[str]] = {
    # transaction lifecycle
    "initiate": frozenset({"txid", "family", "seen"}),
    "deliver": frozenset({"txid", "origin"}),
    # fail-stop transitions
    "crash": frozenset(),
    "recover": frozenset(),
    # replica-layer merge outcomes
    "merge_fastpath": frozenset(),
    "merge_undo": frozenset({"displacement", "replayed"}),
    "merge_batch": frozenset({"count", "displacement", "replayed"}),
    "merge_certified": frozenset({"displacement", "skipped"}),
    # run-set anti-entropy exchanges
    "gossip_syn": frozenset({"peer", "runs"}),
    "gossip_delta": frozenset({"peer", "pushed", "wanted"}),
    "gossip_skip": frozenset({"peer"}),
    # chaos fault injection (repro.chaos)
    "fault_inject": frozenset({"fault", "info"}),
}


@dataclass(frozen=True)
class TraceEvent:
    time: float
    kind: str
    node: Optional[int] = None
    detail: Tuple[Tuple[str, object], ...] = ()

    def get(self, key: str, default=None):
        for k, v in self.detail:
            if k == key:
                return v
        return default

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        detail = " ".join(f"{k}={v}" for k, v in self.detail)
        where = f"@{self.node}" if self.node is not None else ""
        return f"[{self.time:8.3f}] {self.kind}{where} {detail}"


class Tracer:
    """Collects events; see module docstring.

    With ``strict=True`` every recorded event is validated against
    :data:`EVENT_SCHEMAS` at runtime — the dynamic counterpart of the
    static R5 check, useful in tests that drive tracing through code
    paths shardlint cannot see (callbacks, ``**detail`` splats).
    """

    enabled = True

    def __init__(self, capacity: Optional[int] = None,
                 strict: bool = False):
        self.capacity = capacity
        self.strict = strict
        self._events: List[TraceEvent] = []
        self.dropped = 0

    def record(self, time: float, kind: str, node: Optional[int] = None,
               **detail) -> None:
        if self.strict:
            schema = EVENT_SCHEMAS.get(kind)
            if schema is None:
                raise ValueError(f"unregistered trace event kind {kind!r}")
            if set(detail) != set(schema):
                raise ValueError(
                    f"trace event {kind!r} detail keys "
                    f"{sorted(detail)} != declared {sorted(schema)}"
                )
        if self.capacity is not None and len(self._events) >= self.capacity:
            self.dropped += 1
            return
        self._events.append(
            TraceEvent(time, kind, node, tuple(sorted(detail.items())))
        )

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        return tuple(self._events)

    def of_kind(self, kind: str) -> Tuple[TraceEvent, ...]:
        return tuple(e for e in self._events if e.kind == kind)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self._events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def tail(self, n: int = 20) -> str:
        return "\n".join(str(e) for e in self._events[-n:])


class NullTracer(Tracer):
    """Drops everything; the default."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=0)

    def record(self, time: float, kind: str, node: Optional[int] = None,
               **detail) -> None:
        return


NULL_TRACER = NullTracer()
