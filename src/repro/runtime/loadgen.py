"""A load generator: sustained request streams against a live cluster.

The live cluster and the simulator now consume **one workload
definition**: a :class:`~repro.workloads.spec.WorkloadSpec`.  By
default the generator runs the ``uniform`` airline spec (uniform person
pool, movers/request/cancel split; ``tests/runtime`` pins its draws
against a hand-written reference split); any other spec (Zipfian key
skew, different category mixes) plugs in unchanged.

Submissions to dead or partitioned-away nodes fail fast and are counted
as rejections — precisely the availability behavior the paper trades
consistency for; the generator keeps going, like real clients would.

Two driving modes:

* :meth:`run` — open-loop pacing at a target ops/wall-second, node
  chosen uniformly per op (the historical interface);
* :meth:`run_stream` — replay the spec's full deterministic
  ``(time, node, transaction)`` stream, the *same* events the
  simulator executes, with sim times paced onto the wall axis.

Both accept ``pipeline``: the submit window depth.  ``pipeline=1`` is
the historical closed loop (one op in flight, wait for its reply);
deeper windows keep that many submits in flight at once, riding the
client's demultiplexed connections and coalesced ``Batch`` frames.
Pipelining is a client-side knob — the replicas decide exactly the
same way either way, which the runtime parity suite enforces.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ports import Rng
from ..workloads.spec import WorkloadSpec
from ..workloads.synth import make_synthesizer, uniform_airline_spec
from .client import ClusterClient, NodeUnreachable, RequestError


@dataclass
class LoadStats:
    submitted: int = 0
    rejected: int = 0
    #: wall seconds actually spent submitting.
    elapsed: float = 0.0
    txids: List[int] = field(default_factory=list)

    @property
    def ops_per_sec(self) -> float:
        return self.submitted / self.elapsed if self.elapsed > 0 else 0.0


class LoadGenerator:
    """Spec-driven traffic against a ClusterClient (see module docstring)."""

    def __init__(
        self,
        client: ClusterClient,
        rng: Rng,
        capacity: int = 2,
        persons: int = 12,
        mover_weight: float = 0.4,
        spec: Optional[WorkloadSpec] = None,
    ):
        self.client = client
        self.rng = rng
        self.spec = spec if spec is not None else uniform_airline_spec(
            capacity=capacity, persons=persons, mover_weight=mover_weight
        )
        self._synth = make_synthesizer(self.spec)

    def _next_transaction(self):
        return self._synth(self.rng)

    async def _submit(
        self, node_id: int, transaction, stats: LoadStats
    ) -> None:
        try:
            txid = await self.client.submit(node_id, transaction)
            stats.submitted += 1
            stats.txids.append(txid)
        except (NodeUnreachable, RequestError):
            stats.rejected += 1

    def _absorb_txids(
        self, stats: LoadStats, txids: List[Optional[int]]
    ) -> None:
        for txid in txids:
            if txid is None:
                stats.rejected += 1
            else:
                stats.submitted += 1
                stats.txids.append(txid)

    async def run(
        self,
        n_ops: int,
        rate: Optional[float] = None,
        nodes: Optional[List[int]] = None,
        pipeline: int = 1,
    ) -> LoadStats:
        """Submit ``n_ops`` operations, optionally paced at ``rate``
        ops/wall-second, spread over ``nodes`` (default: all), with at
        most ``pipeline`` submits in flight (1 = closed loop)."""
        if pipeline < 1:
            raise ValueError("pipeline must be >= 1")
        stats = LoadStats()
        targets = list(nodes) if nodes is not None else list(
            self.client.spec.node_ids
        )
        clock = self.client.clock
        started = clock.now
        inflight: set = set()
        for i in range(n_ops):
            node_id = self.rng.choice(targets)
            transaction = self._next_transaction()
            if pipeline == 1:
                await self._submit(node_id, transaction, stats)
            else:
                while len(inflight) >= pipeline:
                    _, inflight = await asyncio.wait(
                        inflight, return_when=asyncio.FIRST_COMPLETED
                    )
                inflight.add(asyncio.get_running_loop().create_task(
                    self._submit(node_id, transaction, stats)
                ))
            if rate is not None:
                # pace on the wall axis: plan-time elapsed * scale.
                target_wall = (i + 1) / rate
                elapsed_wall = (clock.now - started) * clock.scale
                if target_wall > elapsed_wall:
                    await asyncio.sleep(target_wall - elapsed_wall)
        if inflight:
            await asyncio.wait(inflight)
        stats.elapsed = (clock.now - started) * clock.scale
        return stats

    async def run_stream(
        self,
        time_scale: float = 1.0,
        pipeline: int = 1,
        nodes: Optional[List[int]] = None,
    ) -> LoadStats:
        """Replay the spec's deterministic event stream — identical to
        what the simulator schedules — against the live cluster.

        Event sim-times become wall deadlines (divided by
        ``time_scale``; raise it to compress a 60-sim-second workload
        into a short real-time run).  Node indices map onto ``nodes``
        (default: all cluster node ids) in order, so a one-element
        ``nodes`` list funnels the whole stream to a single replica —
        the deterministic-decide-order configuration the parity suite
        uses.  With ``pipeline > 1``, every clump of events whose
        deadlines have already passed is submitted as one coalesced
        pipelined burst per target node."""
        # imported here: stream generation is only needed in this mode.
        from ..workloads.stream import generate_stream

        if time_scale <= 0:
            raise ValueError(f"time_scale must be > 0, got {time_scale}")
        if pipeline < 1:
            raise ValueError("pipeline must be >= 1")
        events = list(generate_stream(self.spec))
        targets = list(nodes) if nodes is not None else list(
            self.client.spec.node_ids
        )
        stats = LoadStats()
        clock = self.client.clock
        started = clock.now
        if pipeline == 1:
            for event in events:
                deadline = event.time / time_scale
                elapsed_wall = (clock.now - started) * clock.scale
                if deadline > elapsed_wall:
                    await asyncio.sleep(deadline - elapsed_wall)
                node_id = targets[event.node % len(targets)]
                await self._submit(node_id, event.transaction, stats)
        else:
            i, n = 0, len(events)
            while i < n:
                deadline = events[i].time / time_scale
                elapsed_wall = (clock.now - started) * clock.scale
                if deadline > elapsed_wall:
                    await asyncio.sleep(deadline - elapsed_wall)
                    elapsed_wall = (clock.now - started) * clock.scale
                # everything already due forms one pipelined burst.
                j = i + 1
                while j < n and events[j].time / time_scale <= elapsed_wall:
                    j += 1
                by_node: Dict[int, list] = {}
                for event in events[i:j]:
                    node_id = targets[event.node % len(targets)]
                    by_node.setdefault(node_id, []).append(
                        event.transaction
                    )
                i = j
                results = await asyncio.gather(*[
                    self.client.submit_many(
                        node_id, transactions, window=pipeline
                    )
                    for node_id, transactions in by_node.items()
                ])
                for txids in results:
                    self._absorb_txids(stats, txids)
        stats.elapsed = (clock.now - started) * clock.scale
        return stats
