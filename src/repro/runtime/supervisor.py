"""Spawn, monitor, kill and respawn the node processes of one cluster.

The supervisor is the runtime's counterpart of the simulator's driver
loop: it owns the :class:`~repro.runtime.config.ClusterSpec`, boots one
``python -m repro.runtime.node`` process per node, and replays the crash
half of a :class:`~repro.chaos.faults.FaultPlan` — a ``Crash`` fault is
a real ``SIGKILL`` at its onset and a respawn (fresh process, empty
state, bumped incarnation) at its recovery time, after which the node
catches up through anti-entropy like any recovering replica.  Clock
skews are delivered as ``skew`` control requests.  Partitions and
message faults need no supervisor involvement: every node process
evaluates those itself at its socket layer, on the shared plan clock.

Crash/recover trace events are written supervisor-side
(``events-supervisor.jsonl``): a SIGKILLed process cannot log its own
death, and the trace oracle needs both edges of the window.
"""

from __future__ import annotations

import asyncio
import os
import socket
import sys
from typing import Dict, List, Optional, Tuple

from ..chaos.faults import FaultPlan
from .client import NodeClient, NodeUnreachable
from .clock import RuntimeClock, wall_epoch
from .config import ClusterSpec, NodeSpec
from .history import HistoryWriter, events_path

#: wall seconds a booting node process has to print its readiness line.
READY_TIMEOUT = 15.0


def free_ports(n: int, host: str = "127.0.0.1") -> Tuple[int, ...]:
    """``n`` currently free TCP ports (bind-then-release; the usual
    small race is acceptable for local test clusters)."""
    sockets = []
    try:
        for _ in range(n):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
        return tuple(sock.getsockname()[1] for sock in sockets)
    finally:
        for sock in sockets:
            sock.close()


def make_spec(
    n_nodes: int = 3,
    seed: int = 0,
    scale: float = 0.05,
    anti_entropy_interval: float = 5.0,
    capacity: int = 100,
    history_dir: Optional[str] = None,
    plan: Optional[FaultPlan] = None,
    host: str = "127.0.0.1",
) -> ClusterSpec:
    """A ready-to-boot spec: fresh ports, fresh epoch."""
    return ClusterSpec(
        n_nodes=n_nodes,
        ports=free_ports(n_nodes, host),
        epoch=wall_epoch(),
        host=host,
        seed=seed,
        scale=scale,
        anti_entropy_interval=anti_entropy_interval,
        capacity=capacity,
        history_dir=history_dir,
        plan_json=plan.to_json() if plan is not None else None,
    )


class ClusterSupervisor:
    """Owns the node processes of one live cluster."""

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.clock = RuntimeClock(spec.epoch, spec.scale)
        self._procs: Dict[int, asyncio.subprocess.Process] = {}
        self._incarnations: Dict[int, int] = {}
        self.history: Optional[HistoryWriter] = None
        if spec.history_dir is not None:
            self.history = HistoryWriter(
                events_path(spec.history_dir, "supervisor")
            )

    def _trace(self, kind: str, node: int, **detail) -> None:
        if self.history is not None:
            self.history.record(self.clock.now, kind, node, **detail)

    # -- lifecycle ---------------------------------------------------------

    async def spawn(self, node_id: int) -> None:
        """Boot one node process and wait for its readiness line."""
        if node_id in self._procs:
            raise RuntimeError(f"node {node_id} already running")
        incarnation = self._incarnations.get(node_id, -1) + 1
        self._incarnations[node_id] = incarnation
        node_spec = NodeSpec(
            cluster=self.spec, node_id=node_id, incarnation=incarnation
        )
        env = dict(os.environ)
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.runtime.node",
            "--spec", node_spec.to_json(),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            env=env,
        )
        self._procs[node_id] = proc
        line = await asyncio.wait_for(proc.stdout.readline(), READY_TIMEOUT)
        if not line.startswith(b"ready"):
            stderr = await proc.stderr.read()
            raise RuntimeError(
                f"node {node_id} failed to come up: "
                f"{line!r} / {stderr.decode(errors='replace')[-2000:]}"
            )

    async def start(self) -> None:
        """Boot every node at once: a boot is mostly the interpreter
        importing the program, and the processes share nothing."""
        await asyncio.gather(*map(self.spawn, self.spec.node_ids))

    def alive(self, node_id: int) -> bool:
        proc = self._procs.get(node_id)
        return proc is not None and proc.returncode is None

    def kill(self, node_id: int) -> None:
        """SIGKILL a node process: the live form of a ``Crash`` onset.

        The process gets no chance to flush, close, or say goodbye —
        everything volatile is genuinely gone.
        """
        proc = self._procs.pop(node_id, None)
        if proc is None or proc.returncode is not None:
            raise RuntimeError(f"node {node_id} is not running")
        proc.kill()
        self._trace("crash", node_id)

    async def respawn(self, node_id: int) -> None:
        """Bring a killed node back (fresh state, bumped incarnation).

        The recovery is stamped with the time the process is started,
        and written once it is up: the new incarnation may gossip before
        its readiness line is read, and none of its events may sort
        before the ``recover`` that ends its crash window."""
        at = self.clock.now
        await self.spawn(node_id)
        if self.history is not None:
            self.history.record(at, "recover", node_id)

    async def stop(self) -> None:
        """Graceful shutdown: ask politely, then terminate stragglers."""
        for node_id in list(self._procs):
            client = NodeClient(*self.spec.address(node_id), timeout=2.0)
            try:
                await client.request("stop")
            except NodeUnreachable:
                pass
            finally:
                client.close()
        for node_id, proc in list(self._procs.items()):
            try:
                await asyncio.wait_for(proc.wait(), timeout=5.0)
            except asyncio.TimeoutError:
                proc.terminate()
                await proc.wait()
            del self._procs[node_id]
        if self.history is not None:
            self.history.close()

    # -- fault replay ------------------------------------------------------

    async def replay_plan(self) -> None:
        """Replay the spec's crash + skew faults on the plan clock.

        Runs until the last fault's horizon; message/partition faults
        replay inside the node processes concurrently.  Call this while
        a workload runs (it only sleeps between fault times).
        """
        plan = self.spec.plan()
        if plan is None:
            return
        moments: List[Tuple[float, str, object]] = []
        for fault in plan.faults:
            kind = type(fault).KIND
            if kind == "crash":
                moments.append((fault.at, "kill", fault.node))
                moments.append((fault.recover_at, "respawn", fault.node))
            elif kind == "clock_skew":
                moments.append((fault.at, "skew", (fault.node, fault.drift)))
        moments.sort(key=lambda m: m[0])
        for at, action, arg in moments:
            delay = self.clock.to_wall(at - self.clock.now)
            if delay > 0:
                await asyncio.sleep(delay)
            if action == "kill":
                if self.alive(arg):
                    self.kill(arg)
            elif action == "respawn":
                if not self.alive(arg):
                    await self.respawn(arg)
            elif action == "skew":
                node_id, drift = arg
                client = NodeClient(
                    *self.spec.address(node_id), timeout=2.0
                )
                try:
                    await client.request("skew", drift)
                    self._trace(
                        "fault_inject", node_id,
                        fault="clock_skew", info=f"drift={drift}",
                    )
                except NodeUnreachable:
                    pass  # skewing a dead node is a no-op, as in the sim
                finally:
                    client.close()
