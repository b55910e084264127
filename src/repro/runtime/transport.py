"""The asyncio TCP Transport adapter.

One node process runs one :class:`TcpTransport`: a TCP server accepting
frames from peers and clients, plus one persistent outbound connection
per peer.  Protocol payloads travel as ``("msg", src, payload)``
envelopes in the tagged JSON codec of :mod:`repro.runtime.wire` on
4-byte length-prefixed frames; any other frame is handed to the node
server's request handler (the client API shares the port).

Faithfulness to the port contract:

* **Unreliable by design.**  ``send`` never blocks the protocol: frames
  are queued to a per-peer sender task, and if the peer is unreachable
  the frame is dropped — exactly the "maybe delivered, maybe not" the
  Transport port promises and the anti-entropy layer assumes.  Senders
  reconnect lazily on the next send.
* **The chaos seam sits where the cable is.**  An installed
  :class:`~repro.runtime.faults.RuntimeFaultSeam` is consulted per
  outbound *payload*, before any coalescing: partitioned edges drop at
  send time (the simulator's convention), delay/reorder/duplicate
  faults map one payload onto perturbed copies scheduled on the clock —
  the *same* ``MessageFaultLayer`` arithmetic the simulator uses.
  Batching is strictly a framing detail below the fault seam, so a
  batched wire keeps sim-parity fault semantics: a dropped payload
  simply never joins a batch, a duplicated one joins twice, a delayed
  one joins whatever batch is forming when its timer fires.

The hot path is write-side coalescing: ``send`` encodes each payload
once (to its canonical JSON text) and queues the *text*; the per-peer
sender task drains whatever has accumulated and splices it into a
single ``Batch`` frame (:func:`~repro.runtime.wire.batch_frame_from_texts`)
— flush triggers are batch size (``MAX_BATCH`` payloads) and frame
size (``MAX_FRAME`` guarded); the flush is greedy, which adds no
latency because a busy writer naturally accumulates a queue.  Inbound,
frame boundaries are kept (``FrameSplitter(expand=False)``) so one
arriving batch frame becomes one delivery batch at the node — one
``merge_span`` undo/redo cycle no matter how many gossip payloads it
carried.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from ..ports import Handler
from .clock import RuntimeClock, perf_ns
from .config import ClusterSpec
from .faults import RuntimeFaultSeam
from .profile import RuntimeProfile
from .wire import (
    Batch,
    FrameSplitter,
    MAX_FRAME,
    batch_frame_from_texts,
    encode,
    frame_from_text,
)

#: protocol envelope tag (peer-to-peer); anything else is a request.
MSG = "msg"

#: write-side coalescing: at most this many payloads per wire frame.
MAX_BATCH = 64

#: non-protocol frames (client requests) are awaited on this hook; the
#: return value is the *pre-encoded* response payload text (or None for
#: no response) — the transport owns framing, batching and draining.
RequestHandler = Callable[[object], Awaitable[Optional[str]]]

#: a whole inbound frame's protocol payloads, delivered together.
BatchHandler = Callable[[Tuple[Tuple[int, object], ...]], None]


class TcpTransport:
    """The live Transport adapter for one node process."""

    def __init__(
        self,
        spec: ClusterSpec,
        node_id: int,
        clock: RuntimeClock,
        faults: Optional[RuntimeFaultSeam] = None,
        profile: Optional[RuntimeProfile] = None,
    ):
        self.spec = spec
        self.node_id = node_id
        self.clock = clock
        self.faults = faults
        self.profile = profile if profile is not None else RuntimeProfile()
        self.on_request: Optional[RequestHandler] = None
        self._handlers: Dict[int, Handler] = {}
        self._batch_handlers: Dict[int, BatchHandler] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._queues: Dict[int, asyncio.Queue] = {}
        self._senders: Dict[int, asyncio.Task] = {}
        self.sent = 0
        self.dropped = 0
        self.delivered = 0

    # -- Transport port ---------------------------------------------------

    def register(self, node_id: int, handler: Handler) -> None:
        self._handlers[node_id] = handler

    def register_batch(self, node_id: int, handler: BatchHandler) -> None:
        """Opt a node into whole-frame delivery: every inbound frame's
        protocol payloads arrive as one call (singles as a 1-batch)."""
        self._batch_handlers[node_id] = handler

    @property
    def node_ids(self) -> Tuple[int, ...]:
        return self.spec.node_ids

    def send(self, src: int, dst: int, payload: object) -> bool:
        """Queue one protocol payload for ``dst``; never blocks."""
        self.sent += 1
        self.profile.payloads_sent += 1
        now = self.clock.now
        if self.faults is not None and self.faults.partitioned(
            now, src, dst
        ):
            self.dropped += 1
            self.profile.payloads_dropped += 1
            return False
        delays = (
            self.faults.deliveries(now, src, dst, payload, 0.0)
            if self.faults is not None
            else [0.0]
        )
        if dst in self._handlers:
            # self-delivery short-circuits the socket (gossip never
            # self-sends, but the sync path may in degenerate configs).
            for delay in delays:
                if delay <= 0.0:
                    self._deliver_local(dst, src, payload)
                else:
                    self.clock.schedule(
                        delay,
                        lambda d=dst, s=src, p=payload:
                            self._deliver_local(d, s, p),
                    )
            return True
        started = perf_ns()
        text = encode((MSG, src, payload))
        self.profile.encoded(perf_ns() - started)
        for delay in delays:
            if delay <= 0.0:
                self._enqueue(dst, text)
            else:
                self.clock.schedule(
                    delay, lambda d=dst, t=text: self._enqueue(d, t)
                )
        return True

    def _deliver_local(self, dst: int, src: int, payload: object) -> None:
        self.delivered += 1
        self.profile.payloads_delivered += 1
        self._handlers[dst](src, payload)

    # -- outbound ---------------------------------------------------------

    def _enqueue(self, dst: int, text: str) -> None:
        queue = self._queues.get(dst)
        if queue is None:
            queue = asyncio.Queue()
            self._queues[dst] = queue
            self._senders[dst] = asyncio.get_running_loop().create_task(
                self._sender(dst, queue)
            )
        queue.put_nowait(text)
        self.profile.queued(queue.qsize())

    async def _sender(self, dst: int, queue: asyncio.Queue) -> None:
        """Own the outbound connection to ``dst``: lazy connect, write
        coalesced frames, drop them (and the connection) on any error."""
        writer: Optional[asyncio.StreamWriter] = None
        host, port = self.spec.address(dst)
        carry: Optional[str] = None  # a text deferred by the size cap
        stopping = False
        while not stopping:
            if carry is not None:
                text, carry = carry, None
            else:
                text = await queue.get()
                if text is None:
                    break
            batch = [text]
            size = len(text)
            while len(batch) < MAX_BATCH:
                try:
                    more = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if more is None:
                    stopping = True
                    break
                if size + len(more) > MAX_FRAME // 2:
                    carry = more  # keep frames comfortably bounded
                    break
                batch.append(more)
                size += len(more)
            if len(batch) == 1:
                frame = frame_from_text(batch[0])
            else:
                frame = batch_frame_from_texts(batch)
            try:
                if writer is None:
                    _, writer = await asyncio.open_connection(host, port)
                writer.write(frame)
                self.profile.wrote_frame(len(frame), len(batch))
                await writer.drain()
            except OSError:
                self.dropped += len(batch)
                self.profile.payloads_dropped += len(batch)
                if writer is not None:
                    writer.close()
                writer = None
        if writer is not None:
            writer.close()

    # -- inbound ----------------------------------------------------------

    async def start(self) -> None:
        host, port = self.spec.address(self.node_id)
        self._server = await asyncio.start_server(
            self._serve_connection, host, port
        )

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # expand=False keeps frame boundaries: one batch frame becomes
        # one delivery batch at the node.
        splitter = FrameSplitter(expand=False)
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                started = perf_ns()
                responses: List[str] = []
                try:
                    frames = list(splitter.feed(chunk))
                    self.profile.decoded(perf_ns() - started)
                    self.profile.absorb_splitter(splitter)
                    for frame in frames:
                        await self._dispatch_frame(frame, responses)
                except (ValueError, TypeError, LookupError):
                    # framing is lost with an undecodable frame, and a
                    # decoded payload no protocol can parse is just as
                    # malformed: count it and close this connection only.
                    self.profile.frames_rejected += 1
                    break
                if responses:
                    if len(responses) == 1:
                        writer.write(frame_from_text(responses[0]))
                        self.profile.wrote_frame(
                            len(responses[0]) + 4, 1
                        )
                    else:
                        out = batch_frame_from_texts(responses)
                        writer.write(out)
                        self.profile.wrote_frame(len(out), len(responses))
                    await writer.drain()
        except (OSError, asyncio.IncompleteReadError):
            pass  # the peer went away; its sender reconnects lazily
        finally:
            self.profile.absorb_splitter(splitter)
            writer.close()

    def _is_envelope(self, frame: object) -> bool:
        return (
            isinstance(frame, tuple)
            and len(frame) == 3
            and frame[0] == MSG
        )

    async def _dispatch_frame(
        self, frame: object, responses: List[str]
    ) -> None:
        """Route one inbound frame: protocol envelopes to the node's
        handler (whole-frame batches preserved), anything else to the
        request hook, collecting its response text."""
        if isinstance(frame, Batch):
            envelopes = [
                (f[1], f[2]) for f in frame if self._is_envelope(f)
            ]
            if envelopes:
                self._deliver_inbound(tuple(envelopes))
            for sub in frame:
                if not self._is_envelope(sub):
                    await self._request(sub, responses)
        elif self._is_envelope(frame):
            _, src, payload = frame
            self._deliver_inbound(((src, payload),))
        else:
            await self._request(frame, responses)

    def _deliver_inbound(
        self, envelopes: Tuple[Tuple[int, object], ...]
    ) -> None:
        self.delivered += len(envelopes)
        self.profile.payloads_delivered += len(envelopes)
        batch_handler = self._batch_handlers.get(self.node_id)
        if batch_handler is not None:
            batch_handler(envelopes)
            return
        handler = self._handlers.get(self.node_id)
        if handler is not None:
            for src, payload in envelopes:
                handler(src, payload)

    async def _request(self, frame: object, responses: List[str]) -> None:
        if self.on_request is None:
            return
        text = await self.on_request(frame)
        if text is not None:
            responses.append(text)

    async def close(self) -> None:
        for queue in self._queues.values():
            queue.put_nowait(None)
        for task in self._senders.values():
            try:
                await asyncio.wait_for(task, timeout=1.0)
            except asyncio.TimeoutError:
                task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
