"""Real processes, real sockets, real SIGKILL: the cluster end to end.

These tests boot actual ``python -m repro.runtime.node`` subprocesses
over loopback TCP.  They are the live counterpart of the simulator
integration tests: kill a replica mid-run, watch the survivors keep
accepting work, respawn it empty, and verify anti-entropy repopulates it
— then hand the *recorded* history to the offline oracles.
"""

import asyncio

import pytest

from repro.apps.airline.state import AirlineState
from repro.apps.airline.transactions import Cancel, MoveUp, Request
from repro.chaos.offline import RecordedRun, check_recorded_run
from repro.consistency.adapters import history_from_dir
from repro.consistency.checkers import WITNESSED, check
from repro.runtime import demo
from repro.runtime.client import ClusterClient, NodeUnreachable
from repro.runtime.config import txid_origin
from repro.runtime.history import load_history
from repro.runtime.supervisor import ClusterSupervisor, make_spec

# a fast plan axis: 1 plan unit = 20ms of wall clock.
SCALE = 0.02


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=90.0))


async def converge(client, supervisor, window_plan_units=400.0):
    deadline = supervisor.clock.now + window_plan_units
    while supervisor.clock.now < deadline:
        try:
            if await client.converged():
                return True
        except NodeUnreachable:
            pass
        await asyncio.sleep(supervisor.clock.to_wall(2.0))
    return False


def test_kill_respawn_recovery(tmp_path):
    """The acceptance scenario, distilled: submissions on live nodes,
    one node SIGKILLed and respawned empty, convergence after catch-up,
    incarnation bumped, and conditions (1)-(4) on the recorded logs."""

    async def scenario():
        spec = make_spec(
            n_nodes=3, seed=3, scale=SCALE,
            anti_entropy_interval=4.0, history_dir=str(tmp_path),
        )
        supervisor = ClusterSupervisor(spec)
        client = ClusterClient(spec)
        await supervisor.start()
        try:
            txids = [
                await client.submit(i % 3, Request(f"p{i}"))
                for i in range(6)
            ]
            assert len(set(txids)) == 6
            victim_txids = {txids[2], txids[5]}  # initiated at node 2

            supervisor.kill(2)
            assert not supervisor.alive(2)
            with pytest.raises(NodeUnreachable):
                await client.submit(2, Request("dead-node"))
            # the survivors still take writes while 2 is down.
            txids.append(await client.submit(0, Request("p-while-down")))
            txids.append(await client.submit(1, MoveUp(capacity=2)))

            await supervisor.respawn(2)
            node_id, incarnation = await client.ping(2)
            assert (node_id, incarnation) == (2, 1)

            assert await converge(client, supervisor), \
                "cluster did not re-converge after the respawn"
            # the respawned-empty node caught up through anti-entropy.
            # SIGKILL means genuine volatile loss: transactions initiated
            # at node 2 but not yet gossiped when it died are gone — all
            # nodes must agree on the same surviving set, and everything
            # initiated at a node that never died must be in it.
            recovered = set(await client.known_txids(2))
            assert recovered == set(await client.known_txids(0))
            assert set(txids) - victim_txids <= recovered
            assert recovered <= set(txids)
            # txids stay unique across the incarnation bump.
            post = await client.submit(2, Request("p-after-recovery"))
            assert post not in txids
            assert txid_origin(post)[:2] == (2, 1)

            # let the post-recovery record disseminate before the dumps.
            assert await converge(client, supervisor)
            for node_id in spec.node_ids:
                await client.dump(node_id)
        finally:
            client.close()
            await supervisor.stop()

        events, logs = load_history(str(tmp_path))
        assert sorted(logs) == [0, 1, 2]
        kinds = {e.kind for e in events}
        assert {"initiate", "crash", "recover"} <= kinds
        violations, execution = check_recorded_run(
            RecordedRun(AirlineState(), logs, events), capacity=2
        )
        assert violations == ()
        assert execution is not None
        assert len(execution) == len(recovered) + 1  # + the post-recovery one

    run(scenario())


def test_sigkill_mid_pipeline_loses_only_unacked_ops(tmp_path):
    """SIGKILL the submit target while a deep pipeline is in flight.

    The pipeline must degrade, not explode: in-flight and later submits
    come back as rejections (their requery-by-token finds a dead port,
    so nothing is ever blindly resubmitted), accounting stays exact,
    and after a respawn the cluster converges on a single txid set that
    (a) contains everything the survivors had already replicated and
    (b) contains nothing the client didn't submit — every retained txid
    originated at node 0, incarnation 0, with no duplicates.
    """

    async def scenario():
        spec = make_spec(
            n_nodes=3, seed=7, scale=SCALE,
            anti_entropy_interval=4.0, history_dir=str(tmp_path),
        )
        supervisor = ClusterSupervisor(spec)
        client = ClusterClient(spec)
        await supervisor.start()
        try:
            transactions = [Request(f"q{i}") for i in range(150)]
            pipeline = asyncio.ensure_future(
                client.submit_many(0, transactions, window=16)
            )
            # let the pipeline get going, then pull the plug on its
            # target with a window still in flight.
            while client.submitted < 20 and not pipeline.done():
                await asyncio.sleep(0.005)
            supervisor.kill(0)
            txids = await pipeline  # must not raise

            acked = [t for t in txids if t is not None]
            assert len(acked) >= 20
            assert len(acked) < len(transactions), \
                "kill landed after the pipeline drained; raise the op count"
            # exact accounting: every op is acked or rejected, and acks
            # are unique (the token retry never double-submitted).
            assert client.submitted == len(acked)
            assert client.rejected == len(transactions) - len(acked)
            assert len(set(acked)) == len(acked)

            # what the survivors replicated before the kill is durable.
            survivors_knew = set(await client.known_txids(1)) | set(
                await client.known_txids(2)
            )
            await supervisor.respawn(0)
            assert await converge(client, supervisor), \
                "cluster did not re-converge after the respawn"
            final = set(await client.known_txids(0))
            assert final == set(await client.known_txids(1))
            assert survivors_knew <= final
            # nothing phantom: every surviving txid is a node-0 /
            # incarnation-0 initiation of ours.  Acked ops missing from
            # the final set died with node 0's volatile state — the
            # paper's loss model — but an op the cluster kept that the
            # client never saw acked can only be an unacked initiation.
            for txid in final:
                assert txid_origin(txid)[:2] == (0, 0)
            # the survivors keep taking pipelined work afterwards.
            more = await client.submit_many(
                1, [Request("after-kill")], window=4
            )
            assert more[0] is not None
        finally:
            client.close()
            await supervisor.stop()

    run(scenario())


def test_catch_up_of_a_long_log_after_a_respawn(tmp_path):
    """A node SIGKILLed while the survivors commit 2,000 records comes
    back empty and catches up by DELTA: payloads of whole-log length
    whose seen-sets together stand for millions of txids.  Every node
    decodes every frame, the cluster converges, and the recorded history
    passes conditions (1)-(4)."""
    records = 2000
    # a small, fixed set of people keeps the state (and so the cost of
    # one update) the same size from head to tail.
    transactions = [
        Request(f"p{i % 40}") if i % 3 else Cancel(f"p{(i + 7) % 40}")
        for i in range(records)
    ]

    async def scenario():
        spec = make_spec(
            n_nodes=3, seed=5, scale=SCALE,
            anti_entropy_interval=4.0, history_dir=str(tmp_path),
        )
        supervisor = ClusterSupervisor(spec)
        client = ClusterClient(spec)
        await supervisor.start()
        try:
            supervisor.kill(2)
            results = await asyncio.gather(
                client.submit_many(0, transactions[0::2], window=32),
                client.submit_many(1, transactions[1::2], window=32),
            )
            acked = {t for result in results for t in result if t is not None}
            assert len(acked) == records

            await supervisor.respawn(2)
            assert await converge(client, supervisor, 2000.0), \
                "the respawned node did not catch up"
            assert set(await client.known_txids(2)) == acked
            for node_id in spec.node_ids:
                profile = await client.node_profile(node_id)
                assert profile["frames_rejected"] == 0, node_id
                await client.dump(node_id)
        finally:
            client.close()
            await supervisor.stop()

    run(scenario())
    # the offline oracles run with the cluster gone, outside the live
    # scenario's deadline.
    events, logs = load_history(str(tmp_path))
    violations, execution = check_recorded_run(
        RecordedRun(AirlineState(), logs, events)
    )
    assert violations == ()
    assert execution is not None and len(execution) == records


def test_demo_smoke(tmp_path):
    """Satellite #1: the demo entrypoint exits 0 on a small, fast run
    (faults on — partition + kill/respawn — exactly as CI runs it)."""
    code = demo.main([
        "--nodes", "3", "--ops", "24", "--rate", "60",
        "--scale", "0.02", "--deadline", "80",
        "--history", str(tmp_path / "history"),
    ])
    assert code == 0


def test_live_history_is_certified_by_its_timestamp_order(tmp_path):
    """On the demo's recorded directory (a partition, then node 2
    SIGKILLed and respawned), read committed, read atomic and causal
    are certified by the timestamp-order witness: the respawned node's
    session split does not make a premise fail.  Prefix consistency
    still saturates and searches."""
    history_dir = str(tmp_path / "history")
    code = demo.main([
        "--nodes", "3", "--ops", "24", "--rate", "60",
        "--scale", "0.02", "--deadline", "80", "--history", history_dir,
    ])
    assert code == 0
    events, _ = load_history(history_dir)
    assert "crash" in {e.kind for e in events}
    history = history_from_dir(history_dir)
    assert history.visibility is not None
    for model in ("read_committed", "read_atomic", "causal"):
        verdict = check(history, model)
        assert verdict.ok, model
        assert verdict.stats == WITNESSED, model
    prefix = check(history, "prefix")
    assert "forced_edges" in prefix.stats
