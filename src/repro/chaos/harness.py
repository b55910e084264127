"""One chaos run: airline cluster + workload + fault plan + oracles.

:func:`run_chaos` builds a small airline deployment (the paper's running
example, so the cost-bound and fairness oracles have teeth), installs a
:class:`~repro.chaos.faults.FaultPlan` through the injector, starts the
airline app's own workload on it (``start_airline_workload``: a Poisson
request/cancel mix plus MOVE_UP/MOVE_DOWN sweeps at every node), runs
past the last fault, heals and quiesces, and judges the run with
:func:`~repro.chaos.oracles.judge` — the judge a recorded run gets too.

Two soundness notes:

* **the t-bound** (:func:`compute_t_bound`) is what makes the
  ``bounded_delay`` / ``k_completeness`` oracles falsifiable rather than
  tautological: it is derived from the plan's fault span plus a slack
  covering worst-case gossip recovery (full backoff, one ack timeout,
  in-flight delays, fault-added delays).  A violation means the system
  failed to re-converge as fast as its own parameters promise.
* **determinism**: everything draws from the cluster's named seeded
  streams (network / gossip / arrivals / chaos), so a report's
  ``fingerprint`` — a hash over the final state, the extracted history
  and the fault counters — is bit-identical across runs of the same
  (scenario, plan) pair.  The determinism test in ``tests/chaos/``
  holds this to account.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..apps.airline.simulation import start_airline_workload
from ..apps.airline.state import AirlineState
from ..gossip import GossipConfig
from ..network.link import FixedDelay, UniformDelay
from ..replica import FixedIntervalPolicy, policy_engine_factory
from ..shard.cluster import ClusterConfig, ShardCluster
from ..sim.trace import Tracer
from .faults import DelaySpike, Duplicate, FaultPlan, Reorder
from .inject import ChaosInjector
from .oracles import Violation, judge

#: extra settling time appended after the later of (workload end, last
#: fault) before quiescing, so in-flight gossip drains naturally.
SETTLE = 5.0


@dataclass(frozen=True)
class ChaosScenario:
    """Deployment + workload parameters of one chaos run (JSON-flat)."""

    n_nodes: int = 3
    capacity: int = 5
    duration: float = 30.0
    request_rate: float = 0.5
    cancel_fraction: float = 0.2
    mover_interval: float = 6.0
    #: False = the deliberately weakened intransitive ablation.
    piggyback: bool = True
    #: "uniform" (default) or "fixed"; the weakened config uses "fixed"
    #: so that, absent faults, floods arrive in publish order and the
    #: transitivity oracle isolates fault-induced violations.
    delay: str = "uniform"
    anti_entropy_interval: float = 3.0
    ack_timeout: float = 4.0
    max_backoff_factor: float = 8.0
    #: replica checkpoint spacing — sparse enough that lose_volatile
    #: crashes genuinely destroy un-checkpointed log suffix.
    checkpoint_interval: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.delay not in ("uniform", "fixed"):
            raise ValueError(f"unknown delay model {self.delay!r}")

    @property
    def max_delay(self) -> float:
        return 1.0  # both models' upper bound

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclass
class ChaosReport:
    """Everything one run produced, JSON-ready."""

    scenario: ChaosScenario
    plan: FaultPlan
    violations: Tuple[Violation, ...]
    fingerprint: str
    summary: Dict[str, object]
    #: the finished cluster, only when ``run_chaos(keep_cluster=True)``
    #: asked for it (E18 re-checks one run under many oracle sets);
    #: never serialized and never part of report equality.
    cluster: Optional[object] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario.as_dict(),
            "plan": self.plan.to_dicts(),
            "violations": [v.as_dict() for v in self.violations],
            "fingerprint": self.fingerprint,
            "summary": self.summary,
        }


def compute_t_bound(scenario: ChaosScenario, plan: FaultPlan) -> float:
    """A sound delay bound for this plan under this configuration.

    ``slack`` bounds how long one record can remain undelivered at one
    node through no fault of the schedule: a full backoff cycle until
    the recovery probe fires, one ack timeout, a few in-flight delays,
    plus whatever extra delay the message faults may add.  Faults can
    suppress delivery for the whole span they cover; the span is paid
    twice (a record published just before the first fault, a delivery
    owed just after the last).
    """
    extra = 0.0
    for fault in plan.faults:
        if isinstance(fault, DelaySpike):
            extra = max(extra, fault.extra_delay)
        elif isinstance(fault, Reorder):
            extra = max(extra, fault.extra_delay)
        elif isinstance(fault, Duplicate):
            extra = max(extra, fault.lag)
    slack = (
        (scenario.max_backoff_factor + 2) * scenario.anti_entropy_interval
        + 5 * scenario.max_delay
        + scenario.ack_timeout
        + extra
    )
    starts = [getattr(f, "start", getattr(f, "at", 0.0)) for f in plan.faults]
    span = plan.horizon() - min(starts) if starts else 0.0
    return span + 2 * slack


def _fingerprint(payload: Dict[str, object]) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_chaos(
    scenario: ChaosScenario,
    plan: FaultPlan,
    oracles: Optional[Tuple[str, ...]] = None,
    plan_validated: bool = False,
    keep_cluster: bool = False,
) -> ChaosReport:
    """Simulate one faulted run to quiescence and judge it.

    ``plan_validated=True`` promises the plan was already checked
    against ``scenario.n_nodes`` (campaigns validate once per generated
    plan; shrink probes are subplans of validated plans), skipping the
    injector's per-run re-validation.  ``keep_cluster=True`` attaches
    the finished cluster (and its trace) to the report so callers can
    re-run further oracles without re-simulating."""
    tracer = Tracer(strict=True)
    delay = (
        UniformDelay(0.2, scenario.max_delay)
        if scenario.delay == "uniform"
        else FixedDelay(scenario.max_delay)
    )
    interval = scenario.checkpoint_interval
    cluster = ShardCluster(
        AirlineState(),
        ClusterConfig(
            n_nodes=scenario.n_nodes,
            seed=scenario.seed,
            delay=delay,
            broadcast=GossipConfig(
                piggyback=scenario.piggyback,
                anti_entropy_interval=scenario.anti_entropy_interval,
                ack_timeout=scenario.ack_timeout,
                max_backoff_factor=scenario.max_backoff_factor,
            ),
            merge_factory=policy_engine_factory(
                lambda: FixedIntervalPolicy(interval)
            ),
            tracer=tracer,
        ),
    )
    injector = ChaosInjector(cluster, plan, validate=not plan_validated)
    injector.install()

    start_airline_workload(cluster, scenario)

    horizon = max(scenario.duration, plan.horizon()) + SETTLE
    cluster.run(until=horizon)
    cluster.quiesce()

    violations, execution = judge(
        cluster, cluster.initial_state, tuple(cluster.records.values()),
        oracles,
        plan=plan,
        capacity=scenario.capacity,
        expect_transitive=scenario.piggyback,
        movers_centralized=False,  # sweeps run at every node
        t_bound=compute_t_bound(scenario, plan),
        events=tracer.events,
    )

    net = cluster.network.stats
    summary: Dict[str, object] = {
        "transactions": len(cluster.records),
        "rejected_submissions": cluster.rejected_submissions,
        "delivered": net.delivered,
        "dropped_partition": net.dropped_partition,
        "duplicated": net.duplicated,
        "reordered": net.reordered,
        "delay_spiked": net.delay_spiked,
        "final_state": repr(cluster.nodes[0].state),
    }
    fingerprint = _fingerprint({
        "summary": summary,
        "prefixes": (
            [list(p) for p in execution.prefixes]
            if execution is not None else None
        ),
        "violations": [v.as_dict() for v in violations],
    })
    return ChaosReport(
        scenario=scenario,
        plan=plan,
        violations=violations,
        fingerprint=fingerprint,
        summary=summary,
        cluster=cluster if keep_cluster else None,
    )
