"""One replica process: the protocol core behind an asyncio TCP server.

``python -m repro.runtime.node --spec '<NodeSpec JSON>'`` hosts exactly
what the simulator hosts N of — one
:class:`~repro.shard.host.NodeHost` (a
:class:`~repro.shard.node.ShardNode` wired to a
:class:`~repro.gossip.service.GossipService` and a
:class:`~repro.shard.sync.SyncManager`) — on the live port adapters
instead of the simulated ones.  This module adds only what a process
needs around that host: the clock, the TCP transport, the fault seam,
the history writer, the client vocabulary and the lifecycle.  The
process model is the paper's: every node is a full replica, processes
transactions locally without cross-node coordination, and relies on
flooding + anti-entropy for eventual delivery.

Besides peer gossip, the server answers a small client vocabulary
(see :data:`OPS`): submit a transaction, read the local state, snapshot
the log, advance the Lamport clock (the ClockSkew fault's live form),
dump history files, stop.  Client frames share the TCP port with the
protocol; the transport forwards anything that is not a peer envelope.

Crash faults never reach this module: a live crash is the supervisor
SIGKILLing the process mid-flight, and recovery is a respawn — state
gone, log gone — followed by genuine anti-entropy catch-up.  That is a
strictly stronger perturbation than the simulator's ``online`` flag and
exactly the volatile-loss story of the paper's Section 4.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional

from collections import OrderedDict

from ..apps.airline.state import AirlineState
from ..gossip import GossipConfig, GossipService
from ..replica import UpdateRecord
from ..shard.host import NodeHost
from ..shard.sync import SYNC_PULL, SYNC_PUSH, SyncManager
from ..sim.rng import SeededStreams
from .clock import RuntimeClock
from .config import NodeSpec
from .faults import RuntimeFaultSeam
from .history import HistoryWriter, dump_records, events_path, records_path
from .profile import RuntimeProfile, profile_path
from .transport import TcpTransport
from .wire import encode

#: request frame: ("req", request_id, op, args-tuple)
REQ = "req"
#: response frame: ("res", request_id, ok, value)
RES = "res"

OPS = (
    "ping", "get", "submit", "query", "status", "snapshot", "skew",
    "dump", "stop",
)

#: retained submit results keyed by client idempotency token, so a
#: client whose reply was lost can requery instead of resubmitting.
TOKEN_CACHE = 4096


class NodeServer:
    """The live host for one ShardNode."""

    def __init__(self, spec: NodeSpec):
        self.spec = spec
        cluster = spec.cluster
        self.clock = RuntimeClock(cluster.epoch, cluster.scale)
        streams = SeededStreams(cluster.seed)
        plan = cluster.plan()
        self.faults: Optional[RuntimeFaultSeam] = None
        if plan is not None:
            self.faults = RuntimeFaultSeam(
                plan,
                # per-process stream: each node perturbs its *outbound*
                # edges, so streams must not be shared across processes.
                streams.stream(f"chaos-{spec.node_id}"),
                on_fault=self._on_message_fault,
            )
        self.profile = RuntimeProfile()
        self.transport = TcpTransport(
            cluster, spec.node_id, self.clock, faults=self.faults,
            profile=self.profile,
        )
        self.transport.on_request = self._on_request
        self.broadcast = GossipService(
            self.clock,
            self.transport,
            GossipConfig(anti_entropy_interval=cluster.anti_entropy_interval),
            rng=streams.stream(f"gossip-{spec.node_id}"),
        )
        # this process hosts one node; gossip targets the whole cluster.
        self.broadcast.membership = cluster.node_ids
        self.sync = SyncManager(
            self.broadcast,
            apply=lambda origin, transaction: self.initiate_now(transaction),
        )
        self.host = NodeHost(
            spec.node_id,
            {None: AirlineState()},
            broadcast=self.broadcast,
            trace=self._trace,
            handlers={SYNC_PULL: self.sync.handle, SYNC_PUSH: self.sync.handle},
        )
        self.node = self.host.node
        # whole-frame delivery: one inbound batch frame's gossip
        # payloads merge inside one delivery batch (one merge_span).
        self.transport.register_batch(spec.node_id, self._dispatch_frame)
        self.history: Optional[HistoryWriter] = None
        if cluster.history_dir is not None:
            self.history = HistoryWriter(
                events_path(cluster.history_dir, spec.node_id)
            )
        self._seq = 0
        self._token_results: "OrderedDict[str, tuple]" = OrderedDict()
        self._stopping = asyncio.Event()

    # -- tracing ----------------------------------------------------------

    def _trace(self, kind: str, node=None, **detail) -> None:
        if self.history is not None:
            self.history.record(self.clock.now, kind, node, **detail)

    def _on_message_fault(self, kind: str, node: int, info: str) -> None:
        self._trace("fault_inject", node, fault=kind, info=info)

    # -- protocol plumbing -------------------------------------------------

    def _dispatch_frame(self, envelopes: tuple) -> None:
        """One wire frame's protocol payloads, delivered together: every
        record they release joins a single delivery batch, so a batched
        frame costs one ``merge_span`` cycle regardless of how many
        DELTAs or rumors it carried."""
        with self.broadcast.delivery_batch(self.spec.node_id):
            for src, payload in envelopes:
                self.host.dispatch(src, payload)

    # -- submission --------------------------------------------------------

    def initiate_now(self, transaction) -> UpdateRecord:
        """The availability path: decide locally, publish, return the
        record (clients get its txid and seen-count back)."""
        txid = self.spec.txid(self._seq)
        self._seq += 1
        return self.host.initiate(txid, transaction)

    # -- client API --------------------------------------------------------

    async def _on_request(self, frame: object) -> Optional[str]:
        if not (
            isinstance(frame, tuple) and len(frame) == 4
            and frame[0] == REQ
        ):
            return None
        _, request_id, op, args = frame
        try:
            value = self._handle_op(op, args)
            response = (RES, request_id, True, value)
        except Exception as exc:  # surfaces to the client, not the log
            response = (RES, request_id, False, f"{type(exc).__name__}: {exc}")
        if op == "stop":
            # let the transport flush the response before teardown.
            asyncio.get_running_loop().call_soon(self._stopping.set)
        return encode(response)

    def _remember_token(self, token: str, result: tuple) -> None:
        self._token_results[token] = result
        while len(self._token_results) > TOKEN_CACHE:
            self._token_results.popitem(last=False)

    def _handle_op(self, op: str, args: tuple) -> object:
        node_id = self.spec.node_id
        if op == "ping":
            return (node_id, self.spec.incarnation)
        if op == "get":
            state = self.node.state
            return (state.assigned, state.waiting)
        if op == "submit":
            token: Optional[str] = None
            if len(args) == 2:
                transaction, token = args
                if token is not None:
                    cached = self._token_results.get(token)
                    if cached is not None:
                        return cached
            else:
                (transaction,) = args
            record = self.initiate_now(transaction)
            result = (record.txid, len(record.seen_txids))
            if token is not None:
                self._remember_token(token, result)
            return result
        if op == "query":
            # retry path: was a submit with this token already decided?
            (token,) = args
            return self._token_results.get(token)
        if op == "status":
            return (
                len(self.node.log),
                self.node.transactions_initiated,
                self.spec.incarnation,
                tuple(sorted(self.node.known_txids)),
                self.profile.snapshot(),
            )
        if op == "snapshot":
            return tuple(self.node.log)
        if op == "skew":
            (drift,) = args
            self.node.clock.advance(drift)
            self._trace(
                "fault_inject", node_id,
                fault="clock_skew", info=f"drift={drift}",
            )
            return self.node.clock.counter
        if op == "dump":
            if self.spec.cluster.history_dir is None:
                raise RuntimeError("no history directory configured")
            count = dump_records(
                records_path(self.spec.cluster.history_dir, node_id),
                self.node.log,
            )
            self.profile.dump(
                profile_path(self.spec.cluster.history_dir, node_id)
            )
            return count
        if op == "stop":
            return True
        raise ValueError(f"unknown op {op!r}")

    # -- lifecycle ---------------------------------------------------------

    async def serve(self) -> None:
        await self.transport.start()
        self.broadcast.start_anti_entropy()
        # announce readiness on stdout: the supervisor waits for this.
        print(f"ready {self.spec.node_id} {self.spec.incarnation}", flush=True)
        await self._stopping.wait()
        await self.transport.close()
        if self.history is not None:
            self.history.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.node",
        description="host one SHARD replica process",
    )
    parser.add_argument(
        "--spec", required=True,
        help="NodeSpec JSON (or @path to read it from a file)",
    )
    args = parser.parse_args(argv)
    text = args.spec
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            text = handle.read()
    server = NodeServer(NodeSpec.from_json(text))
    asyncio.run(server.serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
