"""End-to-end smoke test: a real cluster surviving a real fault plan.

``python -m repro.runtime.demo`` boots a 3-node asyncio cluster (one OS
process per replica), replays the airline spec's event stream — the
same :func:`~repro.workloads.stream.generate_stream` events the
simulator executes — through the client API while a ``FaultPlan``
replays against it — a network partition at
the socket layer, then a node SIGKILLed and respawned empty — waits for
anti-entropy to re-converge the survivors and the recovered node, and
then judges the *recorded* history once, as
:func:`repro.chaos.offline.check_recorded_run` does any recorded run:
convergence (equal txid sets) and copy agreement (every copy of a
record equal) make every node's log the one merged history, over which
conditions (1)–(4), transitivity, the trace discipline and the
consistency checkers run.

Exit status 0 means the paper's claims held on real processes
exchanging real messages; anything else is a failure a CI deadline will
surface.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import tempfile
from typing import List, Optional, Sequence, Tuple

from ..apps.airline.state import AirlineState
from ..chaos.faults import Crash, FaultPlan, Partition
from ..chaos.offline import check_recorded_run
from ..workloads.stream import WorkloadEvent, generate_stream
from ..workloads.synth import uniform_airline_spec
from .client import ClusterClient, NodeUnreachable, RequestError
from .history import load_run
from .supervisor import ClusterSupervisor, make_spec

#: the default demo plan: a clean partition, then a kill + recovery.
def demo_plan() -> FaultPlan:
    return FaultPlan((
        Partition(start=8.0, end=20.0, groups=((0,), (1, 2))),
        Crash(node=2, at=24.0, recover_at=36.0),
    ))


async def wait_converged(
    client: ClusterClient, timeout_plan: float
) -> Optional[float]:
    """Poll until every node reports the same txid set; returns the
    plan-time of convergence, or None on timeout."""
    clock = client.clock
    deadline = clock.now + timeout_plan
    while clock.now < deadline:
        try:
            if await client.converged():
                return clock.now
        except NodeUnreachable:
            pass
        await asyncio.sleep(clock.to_wall(1.0))
    return None


async def _replay(
    client: ClusterClient, events: Sequence[WorkloadEvent]
) -> Tuple[int, int, float]:
    """Submit each event to its node at its due wall time (its stream
    time, in seconds from the start), one in flight; a submit the node
    cannot take counts as rejected.  Returns ``(submitted, rejected,
    wall seconds spent)``."""
    clock = client.clock
    started = clock.now
    submitted = rejected = 0
    for event in events:
        elapsed = (clock.now - started) * clock.scale
        if event.time > elapsed:
            await asyncio.sleep(event.time - elapsed)
        try:
            await client.submit(
                client.spec.node_ids[event.node], event.transaction
            )
            submitted += 1
        except (NodeUnreachable, RequestError):
            rejected += 1
    return submitted, rejected, (clock.now - started) * clock.scale


async def run_demo(args) -> int:
    history_dir = args.history or tempfile.mkdtemp(prefix="repro-runtime-")
    plan = demo_plan() if args.faults else None
    spec = make_spec(
        n_nodes=args.nodes,
        seed=args.seed,
        scale=args.scale,
        history_dir=history_dir,
        plan=plan,
    )
    # a stream this long holds 2 * ops + 10 events on average: ample.
    events = generate_stream(uniform_airline_spec(
        capacity=args.capacity, seed=args.seed, rate=args.rate,
        n_nodes=args.nodes, duration=(2 * args.ops + 10) / args.rate,
    ))[:args.ops]
    assert len(events) == args.ops, "the stream is shorter than --ops"
    supervisor = ClusterSupervisor(spec)
    client = ClusterClient(spec)
    print(f"booting {args.nodes}-node cluster on ports {spec.ports} "
          f"(scale={spec.scale}, history={history_dir})")
    await supervisor.start()
    try:
        replay = asyncio.ensure_future(supervisor.replay_plan())
        submitted, rejected, elapsed = await _replay(client, events)
        await replay
        rate = submitted / elapsed if elapsed > 0 else 0.0
        print(f"workload: {submitted} submitted, {rejected} rejected, "
              f"{rate:.1f} ops/sec sustained")

        recover_at = max(
            (f.recover_at for f in (plan.faults if plan else ())
             if isinstance(f, Crash)),
            default=supervisor.clock.now,
        )
        converged_at = await wait_converged(
            client, timeout_plan=args.converge_window
        )
        if converged_at is None:
            print("FAIL: cluster did not converge in time")
            return 1
        kill_latency = max(0.0, converged_at - recover_at)
        print(f"converged at plan-time {converged_at:.1f} "
              f"({kill_latency:.1f} after the killed node recovered)")

        for node_id in spec.node_ids:
            await client.dump(node_id)
    finally:
        client.close()
        await supervisor.stop()

    run = load_run(history_dir, AirlineState())
    violations, execution = check_recorded_run(
        run, plan=plan, capacity=args.capacity
    )
    if execution is not None:
        print(f"conditions (1)-(4) hold over {len(execution)} recorded "
              f"transactions on {len(run.logs)} node logs")
    for violation in violations:
        print(f"FAIL [{violation.oracle}] {violation.description}")
    if violations:
        print(f"{len(violations)} check(s) failed")
        return 1
    print("all checks passed: convergence + conditions (1)-(4) + "
          "offline oracles on the recorded history")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.demo",
        description="boot a live cluster, fault it, check the history",
    )
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--ops", type=int, default=60)
    parser.add_argument("--rate", type=float, default=40.0,
                        help="ops per wall second (spread over the plan)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.05,
                        help="wall seconds per plan unit")
    parser.add_argument("--capacity", type=int, default=2)
    parser.add_argument("--converge-window", type=float, default=120.0,
                        help="plan units to wait for convergence")
    parser.add_argument("--deadline", type=float, default=120.0,
                        help="hard wall-clock cap on the whole demo")
    parser.add_argument("--history", default=None,
                        help="history directory (default: fresh tempdir)")
    parser.add_argument("--no-faults", dest="faults",
                        action="store_false", default=True)
    args = parser.parse_args(argv)

    async def bounded() -> int:
        return await asyncio.wait_for(run_demo(args), timeout=args.deadline)

    try:
        return asyncio.run(bounded())
    except asyncio.TimeoutError:
        print(f"FAIL: demo exceeded its {args.deadline:.0f}s deadline")
        return 1


if __name__ == "__main__":
    sys.exit(main())
