"""Pipelining parity: the fast wire changes *when*, never *what*.

A pipelined client (deep submit window, coalesced batch frames, out-of-
order completion) over real TCP must leave the cluster in exactly the
state a serial client leaves it in for the same workload spec and seed.
Both runs funnel every submission to node 0 — per-connection FIFO then
makes node 0's decide order deterministic, so the comparison can be
exact: txid-for-txid, record-for-record (modulo wall timestamps), plus
clean offline oracles and read-committed/read-atomic verdicts on the
recorded histories of *both* arms.
"""

import asyncio

from repro.apps.airline.state import AirlineState
from repro.chaos.offline import RecordedRun, check_recorded_run
from repro.consistency.adapters import history_from_dir
from repro.consistency.checkers import check
from repro.runtime.client import ClusterClient
from repro.runtime.history import load_history
from repro.runtime.supervisor import ClusterSupervisor, make_spec
from repro.workloads.stream import generate_stream
from repro.workloads.synth import uniform_airline_spec

SCALE = 0.02
#: a smoke-sized spec: ~30 events, enough to fill a 16-deep window.
WORKLOAD = uniform_airline_spec(
    capacity=2, persons=8, name="parity:airline", seed=11,
    duration=6.0, rate=5.0,
)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=90.0))


async def converge(client, supervisor, window_plan_units=400.0):
    deadline = supervisor.clock.now + window_plan_units
    while supervisor.clock.now < deadline:
        if await client.converged():
            return True
        await asyncio.sleep(supervisor.clock.to_wall(2.0))
    return False


async def drive(history_dir, window):
    """One complete run: boot, submit the stream flat-out to node 0
    with ``window`` submits in flight, converge, dump, return (txids,
    final states per node)."""
    spec = make_spec(
        n_nodes=3, seed=WORKLOAD.seed, scale=SCALE,
        anti_entropy_interval=4.0, history_dir=history_dir, capacity=2,
    )
    supervisor = ClusterSupervisor(spec)
    client = ClusterClient(spec)
    await supervisor.start()
    try:
        txids = await client.submit_many(
            0, [e.transaction for e in generate_stream(WORKLOAD)],
            window=window,
        )
        assert None not in txids
        assert await converge(client, supervisor), "no convergence"
        states = [await client.get(n) for n in spec.node_ids]
        for node_id in spec.node_ids:
            await client.dump(node_id)
        if window > 1:
            # the pipelined arm must actually have pipelined: the
            # client saw more than one request in flight at once.
            assert client.profile.inflight_peak > 1
        return txids, states
    finally:
        client.close()
        await supervisor.stop()


def record_essence(record):
    """Everything deterministic about a record: all fields except the
    wall-clock ``real_time``."""
    return (
        record.ts, record.txid, record.transaction, record.update,
        record.origin, record.seen_txids,
    )


def verify_clean(history_dir):
    events, logs = load_history(history_dir)
    violations, _ = check_recorded_run(
        RecordedRun(AirlineState(), logs, events), capacity=2
    )
    assert violations == ()
    history = history_from_dir(history_dir)
    for model in ("read_committed", "read_atomic"):
        verdict = check(history, model)
        assert verdict.ok, f"{model}: {verdict.status}"
    return logs


def test_pipelined_run_matches_serial_run(tmp_path):
    serial_dir = str(tmp_path / "serial")
    piped_dir = str(tmp_path / "pipelined")

    async def scenario():
        serial_txids, serial_states = await drive(serial_dir, window=1)
        piped_txids, piped_states = await drive(piped_dir, window=16)
        return serial_txids, serial_states, piped_txids, piped_states

    serial_txids, serial_states, piped_txids, piped_states = run(
        scenario()
    )

    # the same workload went through: same ops, same txids (node 0's
    # per-connection FIFO makes its decide order deterministic).
    assert sorted(piped_txids) == sorted(serial_txids)
    # identical converged application state on every node, across arms.
    assert len(set(serial_states)) == 1
    assert piped_states == serial_states

    # record-for-record equality of the dumped logs, wall times aside.
    serial_logs = verify_clean(serial_dir)
    piped_logs = verify_clean(piped_dir)
    assert sorted(serial_logs) == sorted(piped_logs)
    for node_id in sorted(serial_logs):
        assert (
            [record_essence(r) for r in piped_logs[node_id]]
            == [record_essence(r) for r in serial_logs[node_id]]
        ), f"node {node_id} logs diverged between serial and pipelined"
