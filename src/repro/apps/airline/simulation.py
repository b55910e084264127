"""Running the airline application on the simulated SHARD system.

:func:`run_airline_scenario` wires a :class:`~repro.shard.ShardCluster`
to an airline workload: Poisson request/cancel arrivals at random nodes,
plus a periodic moving "agent" issuing MOVE_UP/MOVE_DOWN sweeps — either
at a single designated node (the centralized-movers policy of Sections
3.2/5.4/5.5) or independently at every node (the fully available,
overbooking-prone regime).  It returns the extracted formal execution and
the external-action ledger, ready for the theorem checkers and the
analysis modules.  :func:`start_airline_workload` is that workload on
its own, which the chaos harness starts on the cluster it faults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ...core.execution import TimedExecution
from ...gossip import GossipConfig
from ...network.link import DelayModel, UniformDelay
from ...network.partition import PartitionSchedule
from ...replica import EngineFactory
from ...shard.cluster import ClusterConfig, ShardCluster
from ...shard.external import ExternalLedger
from ...shard.workload import PeriodicSubmitter, PoissonSubmitter
from .state import AirlineState
from .timestamped import (
    TS_INITIAL_STATE,
    TSCancel,
    TSMoveDown,
    TSMoveUp,
    TSRequest,
)
from .transactions import Cancel, MoveDown, MoveUp, Request


@dataclass
class AirlineScenario:
    """Parameters of one simulated deployment + workload."""

    capacity: int = 20
    n_nodes: int = 3
    duration: float = 200.0
    request_rate: float = 1.0
    cancel_fraction: float = 0.15
    mover_interval: float = 2.0
    mover_nodes: Optional[Sequence[int]] = None  # None = every node
    request_nodes: Optional[Sequence[int]] = None  # None = every node
    seed: int = 0
    delay: Optional[DelayModel] = None
    partitions: Optional[PartitionSchedule] = None
    loss_probability: float = 0.0
    broadcast: Optional[GossipConfig] = None
    merge_factory: Optional[EngineFactory] = None
    #: "baseline" = the paper's Section 2.3 design; "timestamped" = the
    #: Section 5.5 redesign with request timestamps in the database.
    design: str = "baseline"


@dataclass
class AirlineRun:
    """Everything a benchmark needs from one simulated run."""

    scenario: AirlineScenario
    cluster: ShardCluster
    execution: TimedExecution
    #: AirlineState for the baseline design, TSAirlineState for the
    #: timestamped redesign.
    final_state: object
    ledger: ExternalLedger
    requests_submitted: int
    movers_submitted: int


class _AirlineArrivals:
    """Request/cancel arrival mix with a growing passenger population.

    For the timestamped design, each request carries the simulated time
    of its submission (the "request timestamp" of Section 5.5)."""

    def __init__(self, cancel_fraction: float, timestamped: bool, clock):
        self.cancel_fraction = cancel_fraction
        self.timestamped = timestamped
        self.clock = clock
        self.next_person = 1
        self.people: List[str] = []

    def __call__(self, rng: random.Random):
        if self.people and rng.random() < self.cancel_fraction:
            person = rng.choice(self.people)
            return TSCancel(person) if self.timestamped else Cancel(person)
        person = f"P{self.next_person}"
        self.next_person += 1
        self.people.append(person)
        if self.timestamped:
            return TSRequest(person, self.clock())
        return Request(person)


def start_airline_workload(
    cluster: ShardCluster,
    scenario,
    timestamped: bool = False,
    request_nodes: Optional[Sequence[int]] = None,
    mover_nodes: Optional[Sequence[int]] = None,
) -> Tuple[PoissonSubmitter, PeriodicSubmitter]:
    """Start Poisson request/cancel arrivals and periodic mover sweeps
    on ``cluster`` until ``scenario.duration``.  ``scenario`` supplies
    ``capacity``, ``request_rate``, ``cancel_fraction`` and
    ``mover_interval`` (an :class:`AirlineScenario` or the chaos
    harness's ``ChaosScenario``); ``None`` nodes mean every node."""
    requests = PoissonSubmitter(
        cluster,
        rate=scenario.request_rate,
        make_transaction=_AirlineArrivals(
            scenario.cancel_fraction, timestamped, lambda: cluster.sim.now
        ),
        rng=cluster.streams.stream("arrivals"),
        nodes=request_nodes,
        stop_at=scenario.duration,
    )
    up, down = (TSMoveUp, TSMoveDown) if timestamped else (MoveUp, MoveDown)
    mover_pair = (up(scenario.capacity), down(scenario.capacity))
    movers = PeriodicSubmitter(
        cluster,
        interval=scenario.mover_interval,
        make_transactions=lambda: mover_pair,
        nodes=(
            mover_nodes if mover_nodes is not None
            else range(len(cluster.nodes))
        ),
        stop_at=scenario.duration,
    )
    requests.start()
    movers.start()
    return requests, movers


def run_airline_scenario(scenario: AirlineScenario) -> AirlineRun:
    """Simulate the scenario to completion and extract its history."""
    if scenario.design not in ("baseline", "timestamped"):
        raise ValueError(f"unknown design {scenario.design!r}")
    timestamped = scenario.design == "timestamped"
    initial_state = TS_INITIAL_STATE if timestamped else AirlineState()
    cluster = ShardCluster(
        initial_state,
        ClusterConfig(
            n_nodes=scenario.n_nodes,
            seed=scenario.seed,
            delay=scenario.delay or UniformDelay(0.2, 1.0),
            partitions=scenario.partitions,
            loss_probability=scenario.loss_probability,
            broadcast=scenario.broadcast,
            merge_factory=scenario.merge_factory,
        ),
    )
    requests, movers = start_airline_workload(
        cluster,
        scenario,
        timestamped=timestamped,
        request_nodes=scenario.request_nodes,
        mover_nodes=scenario.mover_nodes,
    )
    cluster.run(until=scenario.duration)
    cluster.quiesce()

    execution = cluster.extract_execution()
    final_state = cluster.nodes[0].state
    return AirlineRun(
        scenario=scenario,
        cluster=cluster,
        execution=execution,
        final_state=final_state,
        ledger=cluster.ledger,
        requests_submitted=requests.submitted,
        movers_submitted=movers.submitted,
    )
