"""The real cluster runtime: the protocol core on live asyncio processes.

Everything under :mod:`repro.runtime` is an *adapter* of the port
interfaces in :mod:`repro.ports`.  The protocol state machines hosted
here — :class:`~repro.gossip.service.GossipService` (floods and the
run-set exchange), :class:`~repro.shard.sync.SyncManager`,
:class:`~repro.shard.node.ShardNode` — are byte-for-byte the same
objects the deterministic simulator drives; this package merely supplies
them real time (:mod:`.clock`), real sockets (:mod:`.transport`), real
processes (:mod:`.supervisor`) and real clients (:mod:`.client`).

Layout:

* :mod:`.wire` — tagged JSON codec + length-prefixed framing for every
  payload the protocols put on a transport;
* :mod:`.clock` — the live Clock adapter (scaled wall clock over a
  shared cluster epoch);
* :mod:`.loopback` — deterministic in-process asyncio adapters
  (VirtualClock + LoopbackNet) used by the transcript-parity tests;
* :mod:`.config` — the cluster/node spec that crosses the process
  boundary as JSON;
* :mod:`.faults` — the chaos seam: replaying a ``FaultPlan`` against
  sockets and processes instead of the simulator;
* :mod:`.transport` — the asyncio TCP Transport adapter;
* :mod:`.node` — one replica process: ShardNode + gossip + sync behind
  a TCP server, ``python -m repro.runtime.node``;
* :mod:`.history` — JSONL run histories (trace events in the
  ``sim/trace.py`` schema + wire-encoded log snapshots);
* :mod:`.client` — the client API (get/put/submit/control) with
  history recording;
* :mod:`.supervisor` — spawn/monitor/SIGKILL/respawn node processes;
* :mod:`.demo` — the end-to-end smoke test: the spec stream of
  :func:`~repro.workloads.stream.generate_stream` replayed through the
  client, ``python -m repro.runtime.demo``.
"""

from .clock import RuntimeClock
from .config import ClusterSpec, NodeSpec
from .loopback import LoopbackNet, VirtualClock
from .wire import decode, encode, decode_frame, encode_frame

__all__ = [
    "ClusterSpec",
    "LoopbackNet",
    "NodeSpec",
    "RuntimeClock",
    "VirtualClock",
    "decode",
    "decode_frame",
    "encode",
    "encode_frame",
]
