"""The live workload: real node processes over loopback TCP.

Three phases, each on a freshly booted 3-node airline cluster because a
node's capacity depends on how long its log already is:

* **open loop** — one generator task sends at a fixed rate on two
  connections (nodes 0 and 1; node 2 only replicates).  Every submit is
  timed *from the instant it was due*, so a stall charges the requests
  queued behind it, and the generator's own lateness is recorded.
* **flat out** — closed loop: ``submit_many`` keeps a fixed window of
  submits in flight on both connections; a few short trials, median
  reported.
* **fault** — the open loop again at the same rate while node 2 is
  SIGKILLed and respawned; its recorded history is then verified
  offline (``check_recorded_run`` + read committed / read atomic).

The injected network delay is zero (loopback), so every latency here is
processor time on this machine's cores, shared by three node processes
and the generator.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.apps.airline.state import AirlineState
from repro.chaos.offline import RecordedRun, check_recorded_run
from repro.consistency import (
    check_read_atomic,
    check_read_committed,
    history_from_dir,
)
from repro.core.transaction import Transaction
from repro.runtime import wire
from repro.runtime.client import ClusterClient, NodeUnreachable, RequestError
from repro.runtime.history import load_history
from repro.runtime.supervisor import ClusterSupervisor, make_spec
from repro.sim.rng import SeededStreams
from repro.workloads import WorkloadSpec, make_synthesizer

from sim_workloads import CheckFailed

N_NODES = 3
#: the connections that carry submits; the remaining node only replicates.
SUBMIT_NODES = (0, 1)
REPLICA_ONLY = 2
#: airline capacity the generated transactions embed (the spec default).
CAPACITY = 10
#: wall seconds per plan second inside the node processes.
SCALE = 0.05

#: open-loop rate, ops per wall second over both connections.  It sits
#: well under the knee: at 200 ops/s the log outgrows the nodes within
#: five seconds and the p90 swings between 2.7 and 4.2 ms run to run.
OPEN_LOOP_RATE = 100.0
#: a submit not acknowledged within this many seconds counts as failed.
SUBMIT_DEADLINE_S = 2.0
#: how long the generator waits for outstanding submits after the last
#: one is due, and for the replicas to converge after the last ack.
DRAIN_WAIT_S = 10.0

#: flat-out trials: the first is a warm-up and is not counted — after
#: the lightly loaded open-loop phase the first saturated second runs a
#: third slower (725-860 against 1,100-1,300 ops/s), whatever its input.
FLAT_OUT_WARMUPS = 1
FLAT_OUT_TRIALS = 5
FLAT_OUT_SUBMITS = 1000
#: submits in flight per connection in the flat-out phase.  A window of
#: 32 saturates both cores and the rate swings ±20% between identical
#: trials; at 4 the spread is ±5% (see README).
FLAT_OUT_WINDOW = 4

#: shares of the measuring window (``--seconds``) given to the two
#: open-loop phases; the flat-out trials and the boots take the rest.
#: At 100 ops/s a phase longer than about six seconds grows the log to
#: the knee (ten seconds: p90 3.5-4.8 ms where six give 3.3-3.6).
OPEN_LOOP_SHARE = 0.3
FAULT_SHARE = 0.15
#: within the fault phase: when node 2 is killed and respawned.
KILL_AT_SHARE = 0.25
RESPAWN_AT_SHARE = 0.5

#: records at each end of a log that the codec probe sizes.
PROBE_RECORDS = 100


def live_transactions(seed: int, count: int) -> Tuple[Transaction, ...]:
    """``count`` airline transactions, Zipf 1.1 over 10^6 keys — a pure
    function of ``seed``."""
    spec = WorkloadSpec(
        name="shardbench:live", category="airline", seed=seed,
        universe=1_000_000, zipf=1.1,
    )
    synthesize = make_synthesizer(spec)
    rng = SeededStreams(seed).stream("shardbench-live")
    return tuple(synthesize(rng) for _ in range(count))


def open_loop_schedule(
    rate: float, seconds: float
) -> Tuple[Tuple[float, int], ...]:
    """``(due offset in seconds, node)`` of every open-loop submit:
    evenly spaced, alternating over the submit connections."""
    count = int(rate * seconds)
    return tuple(
        (index / rate, SUBMIT_NODES[index % len(SUBMIT_NODES)])
        for index in range(count)
    )


@dataclass
class OpenLoopRun:
    """What one open-loop phase saw."""

    attempted: int = 0
    failed: int = 0
    #: due time -> ack, milliseconds, acknowledged submits only.
    ack_ms: List[float] = field(default_factory=list)
    #: how late the generator sent each submit, milliseconds.
    late_ms: List[float] = field(default_factory=list)
    txids: List[int] = field(default_factory=list)
    last_ack_at: float = 0.0


@dataclass
class LiveTrial:
    """Raw measurements of the three phases."""

    boot_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    open_loop: OpenLoopRun = field(default_factory=OpenLoopRun)
    converge_s: float = 0.0
    #: summed node profiles of the open-loop phase.
    open_loop_profile: Dict[str, int] = field(default_factory=dict)
    client_inflight_peak: int = 0
    client_rejected: int = 0
    flat_out_ops_per_s: List[float] = field(default_factory=list)
    flat_out_ops: int = 0
    #: summed node profiles over the flat-out trials.
    flat_out_profile: Dict[str, int] = field(default_factory=dict)
    recover_catchup_s: float = 0.0
    #: (phase, history directory, acknowledged txids) to verify offline.
    histories: List[Tuple[str, str, int]] = field(default_factory=list)
    verify_s: float = 0.0
    verified: int = 0
    k_deficits: List[int] = field(default_factory=list)
    delivery_delays: List[float] = field(default_factory=list)
    #: harness-timed codec probes (microseconds / bytes per record).
    probes: Dict[str, float] = field(default_factory=dict)
    #: wall seconds the per-layer probes took (the trace overhead).
    probe_s: float = 0.0
    wall_s: float = 0.0
    peak_node_rss_mb: float = 0.0


def _node_peak_rss_mb() -> float:
    """Largest peak resident set (``VmHWM``) among this process's
    running children, the node processes.  ``RUSAGE_CHILDREN`` will not
    do: a child's maximum there includes the moment between fork and
    exec, when it still is a copy of this harness."""
    me = os.getpid()
    peak_kb = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                # pid (comm) state ppid ...; comm may hold spaces.
                parent = int(handle.read().rsplit(")", 1)[1].split()[1])
            if parent != me:
                continue
            with open(f"/proc/{entry}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except (OSError, ValueError, IndexError):
            continue  # the process ended while it was being read
    return peak_kb / 1024.0


class _Cluster:
    """One booted cluster: supervisor + client, stopped on exit.  Boot
    time and the nodes' peak memory are recorded on ``trial``."""

    def __init__(self, trial: "LiveTrial", work_dir: str, seed: int, label: str):
        self._created = time.perf_counter()
        self._trial = trial
        self.history_dir = os.path.join(work_dir, label)
        self.spec = make_spec(
            n_nodes=N_NODES, seed=seed, scale=SCALE,
            history_dir=self.history_dir, capacity=CAPACITY,
        )
        self.supervisor = ClusterSupervisor(self.spec)
        self.client = ClusterClient(self.spec)

    async def __aenter__(self) -> "_Cluster":
        try:
            await self.supervisor.start()
            for node_id in self.spec.node_ids:
                await self.client.ping(node_id)
        except BaseException:
            await self._stop()
            raise
        self._trial.boot_s.append(time.perf_counter() - self._created)
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self._stop()

    async def _stop(self) -> None:
        self._trial.peak_node_rss_mb = max(
            self._trial.peak_node_rss_mb, _node_peak_rss_mb()
        )
        self.client.close()
        await self.supervisor.stop()

    async def node_profiles(self) -> Dict[str, int]:
        """The nodes' hot-path counters, summed (peaks: maximum)."""
        total: Dict[str, int] = {}
        for node_id in self.spec.node_ids:
            _add_profile(total, await self.client.node_profile(node_id))
        return total

    async def converge(self, since: float) -> float:
        """Seconds from ``since`` until every node reports the same
        txid set; fails the run after :data:`DRAIN_WAIT_S`."""
        while time.perf_counter() - since < DRAIN_WAIT_S:
            if await self.client.converged():
                return time.perf_counter() - since
            await asyncio.sleep(0.01)
        raise CheckFailed(
            f"replicas did not converge within {DRAIN_WAIT_S:.0f} s"
        )

    async def record_history(self, phase: str, txids: Sequence[int]) -> None:
        """Have every node write its log beside its event stream, and
        queue the directory for offline verification."""
        for node_id in self.spec.node_ids:
            await self.client.dump(node_id)
        self._trial.histories.append((phase, self.history_dir, len(txids)))

    async def check_acked(self, txids: Sequence[int]) -> None:
        """No acknowledged txid missing or duplicated on any node."""
        if len(set(txids)) != len(txids):
            raise CheckFailed("a txid was acknowledged twice")
        for node_id in self.spec.node_ids:
            known = await self.client.known_txids(node_id)
            if len(set(known)) != len(known):
                raise CheckFailed(f"node {node_id} holds a duplicated txid")
            if set(known) != set(txids):
                raise CheckFailed(
                    f"node {node_id} holds {len(known)} txids, "
                    f"{len(set(txids) - set(known))} acknowledged ones "
                    f"missing and {len(set(known) - set(txids))} unknown"
                )


async def _open_loop(
    cluster: _Cluster,
    transactions: Sequence[Transaction],
    schedule: Sequence[Tuple[float, int]],
    run: OpenLoopRun,
) -> None:
    """Send ``transactions`` on ``schedule``, filling ``run`` as acks
    arrive (the fault phase reads it while the generator still runs)."""
    run.attempted = len(schedule)
    # a short lead so the first submit is not already late.
    origin = time.perf_counter() + 0.05

    async def submit(due: float, node_id: int, transaction) -> None:
        try:
            txid = await cluster.client.submit(
                node_id, transaction, deadline=SUBMIT_DEADLINE_S
            )
        except (NodeUnreachable, RequestError):
            run.failed += 1
            return
        now = time.perf_counter()
        run.ack_ms.append((now - due) * 1e3)
        run.txids.append(txid)
        run.last_ack_at = max(run.last_ack_at, now)

    tasks = []
    for (offset, node_id), transaction in zip(schedule, transactions):
        due = origin + offset
        wait = due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        run.late_ms.append((time.perf_counter() - due) * 1e3)
        tasks.append(asyncio.ensure_future(submit(due, node_id, transaction)))
    done, pending = await asyncio.wait(tasks, timeout=DRAIN_WAIT_S)
    for task in pending:
        task.cancel()
    run.failed += len(pending)
    for task in done:
        task.result()  # surface harness bugs, not swallowed


async def _known_or_empty(cluster: _Cluster, node_id: int) -> Tuple[int, ...]:
    """The node's txids, or none while it is still unreachable."""
    try:
        return await cluster.client.known_txids(node_id)
    except NodeUnreachable:
        return ()


def _k_deficits(records: Sequence) -> List[int]:
    ordered = sorted(records, key=lambda r: r.ts)
    return [
        rank - len(record.seen_txids) for rank, record in enumerate(ordered)
    ]


def _delivery_delays(history_dir: str) -> List[float]:
    """Wall seconds from a record's initiation to each remote delivery,
    from the nodes' recorded events (all processes share one epoch)."""
    events, _logs = load_history(history_dir)
    initiated: Dict[int, float] = {}
    for event in events:
        if event.kind == "initiate" and isinstance(event.node, int):
            initiated.setdefault(dict(event.detail)["txid"], event.time)
    delays = []
    for event in events:
        if event.kind != "deliver":
            continue
        detail = dict(event.detail)
        if detail["origin"] != event.node and detail["txid"] in initiated:
            delays.append((event.time - initiated[detail["txid"]]) * SCALE)
    return delays


def _codec_probes(
    records: Sequence, transactions: Sequence[Transaction]
) -> Dict[str, float]:
    """Time ``wire.encode`` / ``wire.decode`` over a node's log and over
    the client's own request/response frames."""
    ordered = sorted(records, key=lambda r: r.ts)
    started = time.perf_counter_ns()
    texts = [wire.encode(record) for record in ordered]
    encoded = time.perf_counter_ns()
    for text in texts:
        wire.decode(text)
    decoded = time.perf_counter_ns()
    sizes = [len(text.encode("utf-8")) for text in texts]
    requests = [
        ("req", index, "submit", (transaction, f"probe.{index}"))
        for index, transaction in enumerate(transactions)
    ]
    response = wire.encode(("res", 0, True, (0, 0)))
    client_started = time.perf_counter_ns()
    for request in requests:
        wire.encode(request)
        wire.decode(response)
    client_done = time.perf_counter_ns()
    return {
        "encode_us_per_record": (encoded - started) / 1e3 / len(ordered),
        "decode_us_per_record": (decoded - encoded) / 1e3 / len(ordered),
        "bytes_per_record_head": sum(sizes[:PROBE_RECORDS])
        / len(sizes[:PROBE_RECORDS]),
        "bytes_per_record_tail": sum(sizes[-PROBE_RECORDS:])
        / len(sizes[-PROBE_RECORDS:]),
        "client_codec_us_per_op": (client_done - client_started)
        / 1e3 / len(requests),
    }


def _add_profile(total: Dict[str, int], profile: Dict[str, int]) -> None:
    for name, value in profile.items():
        if name.endswith("_peak") or name.startswith("max_"):
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value


def _verify_history(
    trial: LiveTrial, phase: str, history_dir: str, acknowledged: int
) -> None:
    """Offline verification of one phase's recorded history, clocked:
    the oracle suite, then the read-committed and read-atomic checkers."""
    started = time.perf_counter()
    events, logs = load_history(history_dir)
    recorded = RecordedRun(AirlineState(), logs, events)
    violations, execution = check_recorded_run(recorded, capacity=CAPACITY)
    if violations:
        raise CheckFailed(
            f"recorded {phase} history: "
            + "; ".join(f"[{v.oracle}] {v.description}" for v in violations)
        )
    history = history_from_dir(history_dir)
    for checker in (check_read_committed, check_read_atomic):
        verdict = checker(history)
        if not verdict.ok:
            raise CheckFailed(
                f"recorded {phase} history: {verdict.model} {verdict.status}"
            )
    trial.verify_s += time.perf_counter() - started
    verified = len(execution) if execution is not None else 0
    if verified != acknowledged:
        raise CheckFailed(
            f"{phase} history: verified {verified} transactions, "
            f"{acknowledged} were acknowledged"
        )
    trial.verified += verified


async def _open_loop_phase(
    trial: LiveTrial, work_dir: str, seed: int, seconds: float, probe: bool
) -> None:
    schedule = open_loop_schedule(OPEN_LOOP_RATE, seconds * OPEN_LOOP_SHARE)
    transactions = live_transactions(seed, len(schedule))
    async with _Cluster(trial, work_dir, seed, "open-loop") as cluster:
        run = trial.open_loop
        await _open_loop(cluster, transactions, schedule, run)
        trial.attempted += run.attempted
        trial.failed += run.failed
        trial.converge_s = await cluster.converge(run.last_ack_at)
        await cluster.check_acked(run.txids)
        trial.open_loop_profile = await cluster.node_profiles()
        client_profile = cluster.client.profile.snapshot()
        trial.client_inflight_peak = client_profile["inflight_peak"]
        trial.client_rejected = cluster.client.rejected
        records = await cluster.client.snapshot(0)
        await cluster.record_history("open-loop", run.txids)
    trial.k_deficits = _k_deficits(records)
    trial.delivery_delays = _delivery_delays(cluster.history_dir)
    if probe:
        started = time.perf_counter()
        trial.probes = _codec_probes(records, transactions)
        trial.probe_s += time.perf_counter() - started


async def _flat_out_phase(trial: LiveTrial, work_dir: str, seed: int) -> None:
    for index in range(FLAT_OUT_WARMUPS + FLAT_OUT_TRIALS):
        transactions = live_transactions(
            seed * 10 + index + 1, FLAT_OUT_SUBMITS
        )
        label = f"flat-out-{index}"
        async with _Cluster(trial, work_dir, seed, label) as cluster:
            started = time.perf_counter()
            results = await asyncio.gather(*[
                cluster.client.submit_many(
                    node_id,
                    transactions[offset::len(SUBMIT_NODES)],
                    window=FLAT_OUT_WINDOW,
                )
                for offset, node_id in enumerate(SUBMIT_NODES)
            ])
            finished = time.perf_counter()
            txids = [txid for result in results for txid in result]
            acked = [txid for txid in txids if txid is not None]
            trial.attempted += len(txids)
            trial.failed += len(txids) - len(acked)
            await cluster.converge(finished)
            await cluster.check_acked(acked)
            if index < FLAT_OUT_WARMUPS:
                continue
            trial.flat_out_ops_per_s.append(len(acked) / (finished - started))
            trial.flat_out_ops += len(acked)
            _add_profile(trial.flat_out_profile, await cluster.node_profiles())


async def _fault_phase(
    trial: LiveTrial, work_dir: str, seed: int, seconds: float
) -> None:
    duration = seconds * FAULT_SHARE
    schedule = open_loop_schedule(OPEN_LOOP_RATE, duration)
    transactions = live_transactions(seed + 1, len(schedule))
    async with _Cluster(trial, work_dir, seed, "fault") as cluster:
        run = OpenLoopRun()
        generator = asyncio.ensure_future(
            _open_loop(cluster, transactions, schedule, run)
        )
        try:
            await asyncio.sleep(0.05 + duration * KILL_AT_SHARE)
            cluster.supervisor.kill(REPLICA_ONLY)
            await asyncio.sleep(duration * (RESPAWN_AT_SHARE - KILL_AT_SHARE))
            await cluster.supervisor.respawn(REPLICA_ONLY)
            ready_at = time.perf_counter()
            # catch-up: the fresh incarnation holds everything that was
            # acknowledged before it came back.
            owed = set(run.txids)
            while not owed <= set(await _known_or_empty(cluster, REPLICA_ONLY)):
                if time.perf_counter() - ready_at > DRAIN_WAIT_S:
                    raise CheckFailed(
                        "respawned node 2 did not catch up within "
                        f"{DRAIN_WAIT_S:.0f} s"
                    )
                await asyncio.sleep(0.02)
            trial.recover_catchup_s = time.perf_counter() - ready_at
            await generator
        finally:
            generator.cancel()
        trial.attempted += run.attempted
        # the submit connections go to surviving nodes: none may fail.
        trial.failed += run.failed
        if run.failed:
            raise CheckFailed(
                f"{run.failed} submits to surviving nodes failed "
                "while node 2 was down"
            )
        await cluster.converge(run.last_ack_at)
        # converged: node 2 ends holding every acknowledged txid.
        await cluster.check_acked(run.txids)
        await cluster.record_history("fault", run.txids)


async def _run_phases(
    trial: LiveTrial, work_dir: str, seed: int, seconds: float, probe: bool
) -> None:
    await _open_loop_phase(trial, work_dir, seed, seconds, probe)
    await _flat_out_phase(trial, work_dir, seed)
    await _fault_phase(trial, work_dir, seed, seconds)


def _reap_children(timeout: float = 10.0) -> None:
    """Wait until no child process of this one remains (a SIGKILLed node
    is reaped by asyncio's watcher thread, possibly after the loop has
    closed)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.02)
    raise CheckFailed("node processes still running after shutdown")


def run_trial(
    seed: int, seconds: float, work_dir: str, probe: bool = False
) -> LiveTrial:
    """Run the three phases; ``probe`` adds the per-layer codec probes
    (their wall time is the live run's tracing overhead)."""
    trial = LiveTrial()
    started = time.perf_counter()
    try:
        asyncio.run(_run_phases(trial, work_dir, seed, seconds, probe))
    finally:
        _reap_children()
    # the recorded histories are verified here, after the clusters are
    # gone, and after one unmeasured pass: straight after a lightly
    # loaded phase the same verification took 2.8 to 3.3 CPU-seconds.
    _verify_history(LiveTrial(), *trial.histories[-1])
    for history in trial.histories:
        _verify_history(trial, *history)
    trial.wall_s = time.perf_counter() - started
    return trial
