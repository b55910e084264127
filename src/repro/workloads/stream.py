"""Deterministic event streams: ``spec -> ((time, node, txn), ...)``.

The stream is the handoff point between workload definition and
execution: the simulator schedules each event at its sim time, the
live cluster's drivers (``runtime.demo``, shardbench's live workload)
submit the same events through ``ClusterClient``.  Three named RNG streams derive from the spec's seed via
:class:`~repro.sim.rng.SeededStreams` — arrivals, ops, node choice —
so the stream is a pure function of the spec alone: same spec, same
bytes, independent of worker count, host, or who consumes it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

from ..core.transaction import Transaction
from ..sim.rng import SeededStreams
from .shapes import LoadCurve, arrival_times
from .spec import WorkloadSpec
from .synth import make_synthesizer

__all__ = ["WorkloadEvent", "generate_stream", "stream_fingerprint"]


@dataclass(frozen=True)
class WorkloadEvent:
    """One planned submission: ``transaction`` at ``node`` at sim
    ``time``."""

    time: float
    node: int
    transaction: Transaction


def generate_stream(spec: WorkloadSpec) -> Tuple[WorkloadEvent, ...]:
    """The full event stream for ``spec`` (see module docstring)."""
    streams = SeededStreams(spec.seed)
    times = arrival_times(
        spec.rate,
        LoadCurve(spec.shapes),
        spec.duration,
        streams.stream("workload-arrivals"),
    )
    synth = make_synthesizer(spec)
    ops_rng = streams.stream("workload-ops")
    node_rng = streams.stream("workload-nodes")
    return tuple(
        WorkloadEvent(t, node_rng.randrange(spec.n_nodes), synth(ops_rng))
        for t in times
    )


def stream_fingerprint(events: Tuple[WorkloadEvent, ...]) -> str:
    """A short digest of a stream's exact content — times, nodes and
    transactions — used by the determinism tests ("same seed, same
    bytes")."""
    digest = hashlib.sha256()
    for event in events:
        line = f"{event.time!r}|{event.node}|{event.transaction!r}\n"
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()[:16]
