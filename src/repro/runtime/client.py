"""The client API: talk to a live cluster, record what you saw.

:class:`ClusterClient` opens one connection per node and exposes the
request vocabulary of :mod:`repro.runtime.node` as async methods.  Every
successful ``submit`` is also recorded to the client's own history file
(``events-client.jsonl``) as an ``initiate`` trace event — the
*client-visible* history, in the exact :data:`EVENT_SCHEMAS` vocabulary,
which is what the offline oracles consume together with the node-side
streams.  A runtime run is thereby checkable from two independent
vantage points: what the nodes logged and what the client observed.

The hot path is pipelined.  :class:`NodeClient` demultiplexes: a
background reader task resolves responses to futures keyed by request
id, so many requests ride one connection concurrently and complete out
of order.  ``post_many`` writes a whole burst of requests as a single
coalesced ``Batch`` frame; :meth:`ClusterClient.submit_many` keeps a
configurable window of submits in flight.  Pipelining changes *when*
replies arrive, never *what* the replicas decide — the parity suite
(``tests/runtime/test_pipeline_parity.py``) holds the serial and
pipelined client to identical converged states.

Reply loss is survivable without double-submission: every submit
carries a client idempotency token, and on a connection error the
client reconnects once and *requeries* the token (the node caches
recent submit results) before it would ever resubmit.
"""

from __future__ import annotations

import asyncio
import itertools
import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.transaction import Transaction
from .clock import RuntimeClock
from .config import ClusterSpec
from .history import HistoryWriter, events_path
from .node import REQ, RES
from .profile import RuntimeProfile
from .wire import (
    FrameSplitter,
    batch_frame_from_texts,
    encode,
    frame_from_text,
)


class RequestError(RuntimeError):
    """The node answered, but with a failure."""


class NodeUnreachable(ConnectionError):
    """The node did not answer (dead, partitioned, or not yet up)."""


class NodeClient:
    """One node's request channel (lazy connect, auto-reconnect).

    Responses demultiplex by request id: a background reader task
    resolves each ``("res", id, ok, value)`` frame against the pending
    future it answers, so callers may pipeline requests freely and
    completions arrive in whatever order the node produced them.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 5.0,
        profile: Optional[RuntimeProfile] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.profile = profile if profile is not None else RuntimeProfile()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._ids = itertools.count()

    # -- connection lifecycle ---------------------------------------------

    async def _connect(self) -> None:
        if self._writer is not None:
            return
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.timeout
        )
        splitter = FrameSplitter()
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(self._reader, splitter)
        )

    async def _read_loop(
        self, reader: asyncio.StreamReader, splitter: FrameSplitter
    ) -> None:
        reason = "connection closed"
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                for frame in splitter.feed(chunk):
                    self._resolve(frame)
                self.profile.absorb_splitter(splitter)
        except (OSError, ValueError) as exc:
            reason = str(exc) or type(exc).__name__
        finally:
            self.profile.absorb_splitter(splitter)
            if self._reader_task is asyncio.current_task():
                # the connection died under us (not a local disconnect):
                # reset state and fail whatever was still in flight.
                self._reader_task = None
                self._disconnect(reason)

    def _resolve(self, frame: object) -> None:
        if not (
            isinstance(frame, tuple) and len(frame) == 4
            and frame[0] == RES
        ):
            return
        future = self._pending.pop(frame[1], None)
        if future is None or future.done():
            return
        _, _, ok, value = frame
        if ok:
            future.set_result(value)
        else:
            future.set_exception(RequestError(str(value)))

    def _fail_pending(self, reason: str) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    NodeUnreachable(f"{self.host}:{self.port}: {reason}")
                )

    def _disconnect(self, reason: str = "disconnected") -> None:
        task, self._reader_task = self._reader_task, None
        if task is not None:
            task.cancel()
        if self._writer is not None:
            self._writer.close()
        self._reader = None
        self._writer = None
        self._fail_pending(reason)

    # -- the pipelined request path ---------------------------------------

    async def post_many(
        self, calls: Sequence[Tuple[str, tuple]]
    ) -> List[asyncio.Future]:
        """Write ``calls`` as one coalesced frame; return their futures.

        The futures resolve out of order as responses arrive — callers
        own the waiting policy (``request`` awaits its one future,
        ``ClusterClient.submit_many`` drains a sliding window).
        """
        calls = tuple(calls)
        if not calls:
            return []
        futures: List[asyncio.Future] = []
        try:
            await self._connect()
            loop = asyncio.get_running_loop()
            texts: List[str] = []
            for op, args in calls:
                request_id = next(self._ids)
                future = loop.create_future()
                self._pending[request_id] = future
                futures.append(future)
                texts.append(encode((REQ, request_id, op, tuple(args))))
            if len(texts) == 1:
                frame = frame_from_text(texts[0])
            else:
                frame = batch_frame_from_texts(texts)
            self._writer.write(frame)
            self.profile.wrote_frame(len(frame), len(texts))
            self.profile.inflight(len(self._pending))
            await self._writer.drain()
        except (OSError, asyncio.TimeoutError, ConnectionError) as exc:
            self._disconnect(str(exc) or type(exc).__name__)
            for future in futures:
                if future.done() and not future.cancelled():
                    future.exception()  # mark retrieved
            raise NodeUnreachable(
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        return futures

    async def request(self, op: str, *args: object) -> object:
        (future,) = await self.post_many(((op, tuple(args)),))
        try:
            return await asyncio.wait_for(future, self.timeout)
        except RequestError:
            raise
        except (OSError, asyncio.TimeoutError, ConnectionError) as exc:
            self._disconnect(str(exc) or type(exc).__name__)
            raise NodeUnreachable(
                f"{self.host}:{self.port}: {exc}"
            ) from exc

    def close(self) -> None:
        self._disconnect("client closed")


class ClusterClient:
    """The whole cluster's client API + client-visible history."""

    def __init__(
        self,
        spec: ClusterSpec,
        record_history: bool = True,
        timeout: float = 5.0,
    ):
        self.spec = spec
        self.clock = RuntimeClock(spec.epoch, spec.scale)
        self.profile = RuntimeProfile()
        self._nodes: Dict[int, NodeClient] = {
            node_id: NodeClient(
                *spec.address(node_id), timeout=timeout,
                profile=self.profile,
            )
            for node_id in spec.node_ids
        }
        self.history: Optional[HistoryWriter] = None
        if record_history and spec.history_dir is not None:
            self.history = HistoryWriter(
                events_path(spec.history_dir, "client")
            )
        self.submitted = 0
        self.rejected = 0
        # idempotency tokens: unique per client instance, no entropy
        # source needed (and none allowed outside the clock adapter).
        self._token_prefix = f"{os.getpid()}.{id(self):x}"
        self._token_seq = itertools.count()

    def _next_token(self) -> str:
        return f"{self._token_prefix}.{next(self._token_seq)}"

    async def ping(self, node_id: int) -> Tuple[int, int]:
        return await self._nodes[node_id].request("ping")

    # -- submission --------------------------------------------------------

    def _record_initiate(
        self, node_id: int, transaction: Transaction, txid: int, seen: int
    ) -> None:
        self.submitted += 1
        if self.history is not None:
            self.history.record(
                self.clock.now, "initiate", node_id,
                txid=txid, family=transaction.name, seen=seen,
            )

    async def _submit_attempts(
        self, node: NodeClient, transaction: Transaction, token: str
    ) -> Tuple[int, int]:
        try:
            return await node.request("submit", transaction, token)
        except NodeUnreachable:
            # The reply may have been lost *after* the node decided:
            # reconnect once and requery the idempotency token before
            # ever resubmitting, so a retry can never double-initiate.
            cached = await node.request("query", token)
            if cached is not None:
                return tuple(cached)
            return await node.request("submit", transaction, token)

    async def submit(
        self,
        node_id: int,
        transaction: Transaction,
        deadline: Optional[float] = None,
    ) -> int:
        """Initiate ``transaction`` at ``node_id``; returns its txid.

        ``deadline`` caps the whole attempt (first try + the single
        reconnect-and-requery retry) in wall seconds; ``None`` falls
        back to the per-request timeout.  Recorded client-side as the
        ``initiate`` event the node also logged — the two streams must
        agree, and the offline trace oracle sees both.
        """
        node = self._nodes[node_id]
        token = self._next_token()
        try:
            attempt = self._submit_attempts(node, transaction, token)
            if deadline is not None:
                txid, seen = await asyncio.wait_for(attempt, deadline)
            else:
                txid, seen = await attempt
        except (NodeUnreachable, asyncio.TimeoutError) as exc:
            self.rejected += 1
            if isinstance(exc, asyncio.TimeoutError):
                raise NodeUnreachable(
                    f"node {node_id}: submit deadline exceeded"
                ) from exc
            raise
        self._record_initiate(node_id, transaction, txid, seen)
        return txid

    async def submit_many(
        self,
        node_id: int,
        transactions: Sequence[Transaction],
        window: int = 32,
    ) -> List[Optional[int]]:
        """Pipeline submits at one node, at most ``window`` in flight.

        Requests go out in coalesced bursts (one ``Batch`` frame per
        refill); completions resolve out of order and each one frees a
        window slot immediately.  Returns txids in input order, with
        ``None`` where a submit was rejected even after its single
        requery-by-token retry.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        node = self._nodes[node_id]
        transactions = list(transactions)
        n = len(transactions)
        txids: List[Optional[int]] = [None] * n
        pending: Dict[asyncio.Future, Tuple[int, str]] = {}
        idx = 0
        while idx < n or pending:
            burst: List[Tuple[str, tuple]] = []
            meta: List[Tuple[int, str]] = []
            while idx < n and len(pending) + len(burst) < window:
                token = self._next_token()
                burst.append(("submit", (transactions[idx], token)))
                meta.append((idx, token))
                idx += 1
            if burst:
                try:
                    futures = await node.post_many(burst)
                except NodeUnreachable:
                    self.rejected += len(burst)
                    continue
                pending.update(zip(futures, meta))
            if not pending:
                continue
            done, _ = await asyncio.wait(
                set(pending), return_when=asyncio.FIRST_COMPLETED
            )
            for future in done:
                i, token = pending.pop(future)
                value: Optional[tuple] = None
                if future.cancelled():
                    pass
                elif future.exception() is None:
                    value = future.result()
                elif isinstance(future.exception(), ConnectionError):
                    # lost reply: the one requery-by-token retry.
                    try:
                        value = await node.request("query", token)
                    except (NodeUnreachable, RequestError):
                        value = None
                if value is None:
                    self.rejected += 1
                    continue
                txid, seen = value
                txids[i] = txid
                self._record_initiate(
                    node_id, transactions[i], txid, seen
                )
        return txids

    # -- reads and control -------------------------------------------------

    async def get(self, node_id: int) -> Tuple[tuple, tuple]:
        """The node's current (assigned, waiting) lists."""
        return await self._nodes[node_id].request("get")

    async def status(self, node_id: int) -> tuple:
        return await self._nodes[node_id].request("status")

    async def node_profile(self, node_id: int) -> Dict[str, int]:
        """The node's live hot-path counters (status element five)."""
        status = await self.status(node_id)
        return status[4]

    async def snapshot(self, node_id: int) -> tuple:
        """The node's full log as live UpdateRecord objects."""
        return await self._nodes[node_id].request("snapshot")

    async def dump(self, node_id: int) -> int:
        """Ask the node to write its records-<id>.jsonl snapshot."""
        return await self._nodes[node_id].request("dump")

    async def stop(self, node_id: int) -> bool:
        return await self._nodes[node_id].request("stop")

    async def known_txids(self, node_id: int) -> Tuple[int, ...]:
        status = await self.status(node_id)
        return status[3]

    async def converged(self) -> bool:
        """Do all reachable-right-now nodes hold the same txid set?"""
        seen = set()
        for node_id in self.spec.node_ids:
            try:
                seen.add(await self.known_txids(node_id))
            except NodeUnreachable:
                return False
        return len(seen) == 1

    def close(self) -> None:
        for node in self._nodes.values():
            node.close()
        if self.history is not None:
            self.history.close()
