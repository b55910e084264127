"""Per-category workload runners over the sim cluster.

:func:`run_workload` executes one :class:`WorkloadSpec` against a fresh
:class:`~repro.shard.cluster.ShardCluster` (tail-window merge engine
with the category's cost function and the incremental cost cache) and
returns one fully deterministic leaderboard row: submission counts,
merge/undo-redo work, cost-cache and certified-hit counters, modeled
wire bytes, convergence lag, and the final-state fingerprint.

It is module-level and takes only the frozen spec, so
:func:`run_parallel_workloads` can fan specs across the shared
:func:`~repro.perf.campaign.fan_out` process pool with the usual
contract: rows re-sorted into spec order, byte-identical results at any
worker count.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Sequence, Tuple

from ..apps.registry import READ_FAMILIES, app_entry
from ..network.link import UniformDelay
from ..perf.campaign import fan_out
from ..replica import TailWindowPolicy, policy_engine_factory
from ..shard.cluster import ClusterConfig, ShardCluster
from .spec import WorkloadSpec
from .stream import generate_stream

__all__ = ["run_workload", "run_parallel_workloads"]


def run_workload(spec: WorkloadSpec) -> Dict[str, object]:
    """Run ``spec`` to quiescence; returns its deterministic row."""
    events = generate_stream(spec)
    entry = app_entry(spec.category)
    cost_fn = entry.make_cost(spec.param_values())
    window = spec.window
    factory = policy_engine_factory(
        lambda: TailWindowPolicy(window), cost_fn=cost_fn
    )
    cluster = ShardCluster(
        entry.initial_state,
        ClusterConfig(
            n_nodes=spec.n_nodes,
            seed=spec.seed,
            delay=UniformDelay(*spec.delay),
            merge_factory=factory,
        ),
    )
    for event in events:
        cluster.submit(event.node, event.transaction, at=event.time)
    cluster.run(until=spec.duration)
    cluster.quiesce()
    drained_at = cluster.sim.now

    reads = sum(
        1 for event in events if event.transaction.name in READ_FAMILIES
    )
    return {
        "workload": spec.name,
        "category": spec.category,
        "spec": spec.as_dict(),
        "events": len(events),
        "reads": reads,
        "rejected": cluster.rejected_submissions,
        "ops_per_sim_sec": round(len(events) / spec.duration, 4),
        **cluster.merge_counters(),
        "wire_bytes": cluster.broadcast.stats.wire.bytes,
        "convergence_lag": round(max(0.0, drained_at - spec.duration), 4),
        "consistent": cluster.mutually_consistent(),
        "state_fingerprint": _state_fingerprint(cluster),
    }


def _canonical(value: object) -> str:
    """A hash-order-independent rendering of a state value: sets are
    sorted, dataclasses walk their fields, everything else reprs.
    ``repr`` alone is not enough — dictionary and nameserver states
    hold frozensets, whose iteration order tracks ``PYTHONHASHSEED``."""
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(_canonical(v) for v in value)) + "}"
    if isinstance(value, dict):
        items = sorted(
            (_canonical(k), _canonical(v)) for k, v in value.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        inner = ",".join(
            f"{f.name}={_canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({inner})"
    return repr(value)


def _state_fingerprint(cluster: ShardCluster) -> str:
    return hashlib.sha256(
        _canonical(cluster.nodes[0].state).encode("utf-8")
    ).hexdigest()[:16]


def _workload_task(task) -> Tuple[int, Dict[str, object]]:
    index, spec = task
    return index, run_workload(spec)


def run_parallel_workloads(
    specs: Sequence[WorkloadSpec],
    workers: int = 1,
) -> List[Dict[str, object]]:
    """Fan specs over the pool; rows come back in spec order and are
    byte-identical for any worker count."""
    return fan_out(_workload_task, enumerate(specs), workers)
