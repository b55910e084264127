"""Runtime hot-path profiling counters.

Honest wall measurement stays strictly outside deterministic payloads;
on the live side this module is where it goes.  One
:class:`RuntimeProfile` per process accumulates per-phase counters as
the transport and client touch the wire — codec nanoseconds, frames and
bytes in both directions, batch coalescing shape, submit/queue depth
peaks — and snapshots them as a plain str-keyed dict:

* a node surfaces its profile through the ``status`` client op (the
  fifth element of the status tuple) and writes ``profile-<id>.json``
  into the history directory on ``dump``;
* a :class:`~repro.runtime.client.ClusterClient` keeps the client
  side in ``client.profile``; ``benchmarks/shardbench`` reads both
  sides for its ``runtime.wire.*`` / ``runtime.transport.*`` /
  ``runtime.client.*`` metrics.

Nothing here feeds fingerprints, oracle verdicts or gate-exact
sections: profiles are evidence about *this machine's* run.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from .wire import FrameSplitter

#: the counter names a snapshot always carries, in a fixed order (the
#: wire codec sorts dict keys, but tests and docs read this list).
COUNTERS = (
    "frames_in", "frames_out", "frames_rejected",
    "bytes_in", "bytes_out",
    "batch_frames_in", "batch_frames_out",
    "batched_payloads_in", "batched_payloads_out",
    "max_batch_out",
    "encode_ns", "decode_ns",
    "payloads_sent", "payloads_dropped", "payloads_delivered",
    "send_queue_peak", "inflight_peak",
)


class RuntimeProfile:
    """Monotone counters for one process's wire hot path."""

    def __init__(self) -> None:
        for name in COUNTERS:
            setattr(self, name, 0)

    # -- write side -------------------------------------------------------

    def encoded(self, ns: int) -> None:
        self.encode_ns += ns

    def wrote_frame(self, size: int, payloads: int) -> None:
        """One frame hit a socket buffer carrying ``payloads`` payloads."""
        self.frames_out += 1
        self.bytes_out += size
        if payloads > 1:
            self.batch_frames_out += 1
            self.batched_payloads_out += payloads
        if payloads > self.max_batch_out:
            self.max_batch_out = payloads

    def queued(self, depth: int) -> None:
        if depth > self.send_queue_peak:
            self.send_queue_peak = depth

    def inflight(self, depth: int) -> None:
        if depth > self.inflight_peak:
            self.inflight_peak = depth

    # -- read side --------------------------------------------------------

    def decoded(self, ns: int) -> None:
        self.decode_ns += ns

    def absorb_splitter(self, splitter: FrameSplitter) -> None:
        """Fold a splitter's counters in: after every chunk it was fed,
        so a snapshot taken mid-connection is current, and once more
        when its connection closes (a chunk that failed to decode)."""
        self.frames_in += splitter.frames
        self.bytes_in += splitter.bytes_in
        self.batch_frames_in += splitter.batch_frames
        self.batched_payloads_in += splitter.batched_payloads
        # zero the source so absorbing it again counts only what is new.
        splitter.frames = 0
        splitter.bytes_in = 0
        splitter.batch_frames = 0
        splitter.batched_payloads = 0

    # -- snapshots --------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in COUNTERS}

    def dump(self, path: str) -> None:
        """Write the snapshot as JSON (history-directory evidence)."""
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def profile_path(history_dir: str, label: object) -> str:
    return os.path.join(history_dir, f"profile-{label}.json")
