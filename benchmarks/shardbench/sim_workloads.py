"""The three simulator workloads: steady-long, apps-short, partition-heal.

Each workload is a fixed list of :class:`ClusterPlan`s and a level of
offline verification.  One *trial* sets every plan up (stream generation
+ cluster build), drives it to quiescence, checks it and verifies its
history, and returns raw measurements; :mod:`run` repeats trials until
the measuring window is filled and reports medians.

Everything is measured from outside the program: wall clocks around
calls into public functions, counts read from public stats objects.
With a :class:`~tracing.SpanRecorder` the same trial also records a span
per layer call (the traced run).

Event counts are fixed, not durations: a Poisson stream of a fixed
duration varies by a few percent in length from seed to seed, and on a
log whose per-event cost grows with its length that alone would move
throughput by more than the regression bounds.  Each stream is therefore
generated a little longer than needed and cut to exactly ``events``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.registry import app_entry
from repro.consistency import (
    check_causal,
    check_read_atomic,
    check_read_committed,
    history_from_records,
)
from repro.core.conditions import is_transitive
from repro.gossip import GossipService
from repro.network.link import UniformDelay
from repro.network.network import Network
from repro.network.partition import PartitionSchedule
from repro.replica import Replica, TailWindowPolicy, policy_engine_factory
from repro.shard.cluster import ClusterConfig, NodeDownError, ShardCluster
from repro.shard.history import extract_execution
from repro.shard.node import ShardNode
from repro.sim.engine import Simulator
from repro.workloads import CATEGORIES, WorkloadSpec, generate_stream

from stats import fingerprint
from tracing import SpanRecorder

#: a run is driven in this many equal slices of simulated time, so one
#: run yields the first- and last-quarter throughput (the growth curve).
SLICES = 4

#: set-ups per trial at least: ``setup_s`` is their median.
MIN_SETUPS = 5

#: the stream is generated this much longer than the expected duration
#: and cut to the plan's exact event count (see module docstring).
STREAM_MARGIN = 1.3


class CheckFailed(Exception):
    """A correctness check of a workload did not pass."""


@dataclass(frozen=True)
class ClusterPlan:
    """One simulated cluster and the exact stream it receives."""

    category: str
    seed: int
    n_nodes: int
    rate: float
    events: int
    delay: Tuple[float, float]
    #: (start, end, groups) partition windows in simulated seconds.
    partitions: Tuple[Tuple[float, float, Tuple[Tuple[int, ...], ...]], ...] = ()

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            name=f"shardbench:{self.category}:{self.seed}",
            category=self.category,
            seed=self.seed,
            duration=STREAM_MARGIN * self.events / self.rate,
            n_nodes=self.n_nodes,
            rate=self.rate,
            delay=self.delay,
        )


@dataclass(frozen=True)
class SimWorkload:
    name: str
    plans: Tuple[ClusterPlan, ...]
    #: "prefix": conditions (1)-(4) on the first ``verify_prefix``
    #: txids; "conditions": (1)-(4) on the whole history; "full": also
    #: transitivity and the RC/RA/causal checkers.
    verify: str
    verify_prefix: int = 0


def workload_for(name: str, seed: int) -> SimWorkload:
    """The named workload with every cluster seed derived from ``seed``.

    Every workload is several independent clusters on distinct seeds:
    how much work one stream causes varies by ±8% (steady flood) to
    ±20% (partition heal) from seed to seed, and summing over clusters
    is what keeps a run's metrics within the regression bounds."""
    base = seed * 1000

    def plans(categories, replicates, **shape):
        return tuple(
            ClusterPlan(
                category=category,
                seed=base + 100 * index + replicate,
                **shape,
            )
            for index, category in enumerate(categories)
            for replicate in range(replicates)
        )

    if name == "sim-steady-long":
        return SimWorkload(
            name,
            plans(
                ("airline",), 3,
                n_nodes=3, rate=6.0, events=3600, delay=(0.1, 0.5),
            ),
            verify="prefix",
            verify_prefix=1000,
        )
    if name == "sim-apps-short":
        return SimWorkload(
            name,
            plans(
                CATEGORIES, 3,
                n_nodes=5, rate=6.0, events=340, delay=(2.0, 10.0),
            ),
            verify="conditions",
        )
    if name == "sim-partition-heal":
        return SimWorkload(
            name,
            plans(
                ("airline",), 10,
                n_nodes=5, rate=8.0, events=600, delay=(0.1, 0.5),
                partitions=(
                    (10.0, 30.0, ((0, 1), (2, 3, 4))),
                    (40.0, 60.0, ((0, 1, 2, 3), (4,))),
                ),
            ),
            verify="full",
        )
    raise KeyError(name)


# -- one trial --------------------------------------------------------------


@dataclass
class SimTrial:
    """Raw measurements of one trial (all clusters of the workload)."""

    events: int = 0
    rejected: int = 0
    setup_s: List[float] = field(default_factory=list)
    generate_s: float = 0.0
    run_s: float = 0.0
    first_slice: List[float] = field(default_factory=lambda: [0, 0.0])
    last_slice: List[float] = field(default_factory=lambda: [0, 0.0])
    ack_ms: List[float] = field(default_factory=list)
    verify_s: float = 0.0
    verified: int = 0
    #: wall seconds per verification step (layer name -> seconds).
    verify_steps: Dict[str, float] = field(default_factory=dict)
    delivery_delays: List[float] = field(default_factory=list)
    k_deficits: List[int] = field(default_factory=list)
    #: exact counts read from public stats objects, summed over clusters.
    counts: Dict[str, int] = field(default_factory=dict)
    states: List[object] = field(default_factory=list)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.states)


#: (layer span name, owner, attribute) of every callable the traced run
#: wraps; ``ReliableBroadcast`` inherits the ``GossipService`` methods.
TRACED_CALLABLES = (
    ("sim", Simulator, "run"),
    ("network", Network, "send"),
    ("gossip.publish", GossipService, "publish"),
    ("gossip.receive", GossipService, "receive"),
    ("gossip.exchange", GossipService, "exchange_all"),
    ("shard.initiate", ShardNode, "initiate"),
    ("replica.ingest", Replica, "ingest"),
    ("replica.ingest_batch", Replica, "ingest_batch"),
)

#: the span around everything a trial does; its self time is harness
#: glue, and what the layer spans cover of it is the trace coverage.
ROOT_SPAN = "harness"


def patch_layers(recorder: SpanRecorder) -> None:
    for name, owner, attribute in TRACED_CALLABLES:
        recorder.patch(owner, attribute, name)


def _set_up(plan: ClusterPlan, recorder: Optional[SpanRecorder]):
    """Generate the stream and build the cluster; returns
    ``(cluster, events, generate seconds)``."""
    spec = plan.spec()
    started = time.perf_counter()
    if recorder is None:
        stream = generate_stream(spec)
    else:
        with recorder.span("workloads.generate"):
            stream = generate_stream(spec)
    generate_s = time.perf_counter() - started
    if len(stream) < plan.events:
        raise CheckFailed(
            f"stream for {spec.name} has {len(stream)} events, "
            f"fewer than the {plan.events} the plan fixes"
        )
    events = stream[:plan.events]
    entry = app_entry(plan.category)
    cost_fn = entry.make_cost(spec.param_values())
    if recorder is not None:
        cost_fn = recorder.wrap("apps.cost_fn", cost_fn)
    window = spec.window
    partitions = PartitionSchedule()
    for start, end, groups in plan.partitions:
        partitions.add(start, end, *groups)
    cluster = ShardCluster(
        entry.initial_state,
        ClusterConfig(
            n_nodes=plan.n_nodes,
            seed=plan.seed,
            delay=UniformDelay(*plan.delay),
            partitions=partitions,
            merge_factory=policy_engine_factory(
                lambda: TailWindowPolicy(window), cost_fn=cost_fn
            ),
        ),
    )
    return cluster, events, generate_s


def _drive(cluster: ShardCluster, events: Sequence, trial: SimTrial) -> None:
    """Submit every event at its time and run to quiescence in
    :data:`SLICES` slices.  Each submission is the harness's own closure
    (what ``ShardCluster.submit`` schedules) so the decision-to-publish
    time of every transaction — the simulator's ack — is clocked."""
    acks = trial.ack_ms
    rejected = 0

    def submission(node: int, transaction):
        def fire() -> None:
            nonlocal rejected
            started = time.perf_counter_ns()
            try:
                cluster.initiate_now(node, transaction)
            except NodeDownError:
                rejected += 1
            else:
                acks.append((time.perf_counter_ns() - started) / 1e6)

        return fire

    for event in events:
        cluster.sim.schedule_at(
            event.time, submission(event.node, event.transaction)
        )
    horizon = events[-1].time
    bounds = [horizon * (i + 1) / SLICES for i in range(SLICES)]
    per_slice = [0] * SLICES
    for event in events:
        index = 0
        while event.time > bounds[index]:
            index += 1
        per_slice[index] += 1
    walls = []
    for bound in bounds:
        started = time.perf_counter()
        cluster.run(until=bound)
        walls.append(time.perf_counter() - started)
    started = time.perf_counter()
    cluster.quiesce()
    drain = time.perf_counter() - started
    trial.run_s += sum(walls) + drain
    trial.first_slice[0] += per_slice[0]
    trial.first_slice[1] += walls[0]
    trial.last_slice[0] += per_slice[-1]
    trial.last_slice[1] += walls[-1]
    trial.events += len(events)
    trial.rejected += rejected + cluster.rejected_submissions


def _check_and_count(cluster: ShardCluster, trial: SimTrial) -> None:
    if not cluster.converged():
        raise CheckFailed("cluster did not converge")
    if not cluster.mutually_consistent():
        raise CheckFailed("replicas with equal logs hold different states")
    gossip = cluster.broadcast.stats
    trial.count("network.send_calls", cluster.network.stats.sent)
    trial.count("wire_bytes", gossip.wire.bytes)
    trial.count("gossip.flood_messages", gossip.flood_messages)
    trial.count("gossip.anti_entropy_messages", gossip.anti_entropy_messages)
    trial.count("gossip.items_carried", gossip.items_carried)
    # a publisher delivers to itself; only remote deliveries are copies
    # that a shipped item could have been useful for.
    trial.count(
        "gossip.remote_deliveries", gossip.deliveries - gossip.published
    )
    trial.count("gossip.causally_deferred", gossip.causally_deferred)
    trial.count("gossip.delta_records", gossip.delta.delta_records)
    trial.count("gossip.repair_pulls", gossip.delta.repair_pulls)
    trial.count("gossip.ack_timeouts", gossip.delta.timeouts)
    trial.delivery_delays.extend(gossip.delivery_delays)
    for node in cluster.nodes:
        merge, cost = node.merge.stats, node.merge.cost_stats
        trial.count("shard.initiate_calls", node.transactions_initiated)
        trial.count("replica.inserts", merge.inserts)
        trial.count("replica.fastpath_hits", merge.fastpath_hits)
        trial.count("replica.undo_redo_merges", merge.undo_redo_merges)
        trial.count("replica.updates_applied", merge.updates_applied)
        trial.count("replica.certified_hits", merge.certified_hits)
        trial.count("replica.batched_inserts", merge.batched_inserts)
        trial.count("replica.cost_hits", cost.hits)
        trial.count("apps.cost_evaluations", cost.evaluations)
    # the paper's k: predecessors in timestamp order a decision missed.
    ordered = sorted(cluster.records.values(), key=lambda r: r.ts)
    trial.k_deficits.extend(
        rank - len(record.seen_txids) for rank, record in enumerate(ordered)
    )
    trial.states.append(cluster.nodes[0].state)


def _verify(
    cluster: ShardCluster,
    workload: SimWorkload,
    trial: SimTrial,
    recorder: Optional[SpanRecorder],
) -> None:
    """Offline verification of the run's history, every step clocked."""

    def step(layer: str, call):
        started = time.perf_counter()
        if recorder is None:
            result = call()
        else:
            with recorder.span(layer):
                result = call()
        elapsed = time.perf_counter() - started
        trial.verify_steps[layer] = trial.verify_steps.get(layer, 0.0) + elapsed
        trial.verify_s += elapsed
        return result

    records = list(cluster.records.values())
    if workload.verify == "prefix":
        # simulator txids count initiations, and a decision only ever
        # sees earlier ones, so the first N txids are causally closed.
        records = [r for r in records if r.txid < workload.verify_prefix]
        if any(
            seen >= workload.verify_prefix
            for r in records for seen in r.seen_txids
        ):
            raise CheckFailed("verified prefix is not causally closed")
    # extract_execution and validate raise InvalidExecutionError on a
    # violation of conditions (1)-(4); it propagates as the failure.
    execution = step(
        "shard.history.extract",
        lambda: extract_execution(
            cluster.initial_state, records, verify=True
        ),
    )
    step("core.validate", execution.validate)
    if workload.verify == "full":
        if not step("core.transitive", lambda: is_transitive(execution)):
            raise CheckFailed("prefix subsequences are not transitive")
        history = step(
            "consistency.history_build", lambda: history_from_records(records)
        )
        for layer, checker in (
            ("consistency.rc", check_read_committed),
            ("consistency.ra", check_read_atomic),
            ("consistency.causal", check_causal),
        ):
            verdict = step(layer, lambda check=checker: check(history))
            if not verdict.ok:
                raise CheckFailed(f"{layer}: {verdict.status}")
    trial.verified += len(records)


def run_trial(
    workload: SimWorkload, recorder: Optional[SpanRecorder] = None
) -> SimTrial:
    """Set up, drive, check and verify every cluster of ``workload``."""
    trial = SimTrial()
    # a one-cluster workload sets up a few spare clusters first, so that
    # setup_s is a median and not a single sample.
    for _ in range(max(0, MIN_SETUPS - len(workload.plans))):
        started = time.perf_counter()
        _set_up(workload.plans[0], None)
        trial.setup_s.append(time.perf_counter() - started)

    def body() -> None:
        for plan in workload.plans:
            started = time.perf_counter()
            cluster, events, generate_s = _set_up(plan, recorder)
            trial.setup_s.append(time.perf_counter() - started)
            trial.generate_s += generate_s
            _drive(cluster, events, trial)
            _check_and_count(cluster, trial)
            _verify(cluster, workload, trial, recorder)
            # every cluster starts from a collected heap: whether the
            # previous one's cycles were already freed otherwise decides
            # peak RSS (606 or 885 MB) and the ack tail, run by run.
            del cluster, events
            gc.collect()

    if recorder is None:
        body()
    else:
        with recorder.span(ROOT_SPAN):
            body()
    return trial
