"""Running the banking application on the simulated SHARD system.

Deposits and withdrawals arrive at random branches (nodes); withdrawals
dispense cash against the local — possibly stale — balance.  Audits run
periodically at a designated branch, in either *available* mode (plain
initiation, stale totals) or *synchronized* mode (the Section 3.2/6
mixed-mode path, exact but partition-sensitive).  An optional COVER_WORST
sweep compensates observed overdrafts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ...core.execution import TimedExecution
from ...gossip import GossipConfig
from ...network.link import DelayModel, UniformDelay
from ...network.partition import PartitionSchedule
from ...shard.cluster import ClusterConfig, ShardCluster
from ...shard.external import ExternalLedger
from ...shard.workload import PeriodicSubmitter, PoissonSubmitter
from .application import DEFAULT_ACCOUNTS
from .operations import Audit, CoverWorst, Deposit, Withdraw
from .state import INITIAL_BANK_STATE, BankState


@dataclass
class BankingScenario:
    accounts: Sequence[str] = DEFAULT_ACCOUNTS
    n_nodes: int = 3
    duration: float = 120.0
    arrival_rate: float = 1.5
    deposit_fraction: float = 0.45
    max_amount: int = 20
    initial_deposit: int = 100
    audit_interval: float = 15.0
    audit_node: int = 0
    synchronized_audits: bool = False
    cover_interval: Optional[float] = None  # None = no compensation sweep
    seed: int = 0
    delay: Optional[DelayModel] = None
    partitions: Optional[PartitionSchedule] = None
    broadcast: Optional[GossipConfig] = None


@dataclass
class BankingRun:
    scenario: BankingScenario
    cluster: ShardCluster
    execution: TimedExecution
    final_state: BankState
    ledger: ExternalLedger


class _BankArrivals:
    def __init__(self, scenario: BankingScenario):
        self.scenario = scenario

    def __call__(self, rng: random.Random):
        s = self.scenario
        account = rng.choice(list(s.accounts))
        amount = rng.randint(1, s.max_amount)
        if rng.random() < s.deposit_fraction:
            return Deposit(account, amount)
        return Withdraw(account, amount)


def run_banking_scenario(scenario: BankingScenario) -> BankingRun:
    cluster = ShardCluster(
        INITIAL_BANK_STATE,
        ClusterConfig(
            n_nodes=scenario.n_nodes,
            seed=scenario.seed,
            delay=scenario.delay or UniformDelay(0.2, 1.0),
            partitions=scenario.partitions,
            broadcast=scenario.broadcast,
        ),
    )
    # seed the accounts at node 0 before the open-loop traffic starts.
    for account in scenario.accounts:
        cluster.submit(0, Deposit(account, scenario.initial_deposit), at=0.0)

    arrivals = PoissonSubmitter(
        cluster,
        rate=scenario.arrival_rate,
        make_transaction=_BankArrivals(scenario),
        rng=cluster.streams.stream("arrivals"),
        stop_at=scenario.duration,
    )
    arrivals.start()

    def submit_audit() -> None:
        if scenario.synchronized_audits:
            cluster.submit_synchronized(scenario.audit_node, Audit())
        else:
            cluster.submit(scenario.audit_node, Audit())

    def audit_tick(next_at: float) -> None:
        if next_at > scenario.duration:
            return
        cluster.sim.schedule_at(next_at, lambda: (
            submit_audit(), audit_tick(next_at + scenario.audit_interval),
        ))

    audit_tick(scenario.audit_interval)

    if scenario.cover_interval is not None:
        covers = PeriodicSubmitter(
            cluster,
            interval=scenario.cover_interval,
            make_transactions=lambda: (CoverWorst(),),
            nodes=list(range(scenario.n_nodes)),
            stop_at=scenario.duration,
        )
        covers.start()

    cluster.run(until=scenario.duration)
    cluster.quiesce()
    execution = cluster.extract_execution()
    final_state = cluster.nodes[0].state
    assert isinstance(final_state, BankState)
    return BankingRun(
        scenario=scenario,
        cluster=cluster,
        execution=execution,
        final_state=final_state,
        ledger=cluster.ledger,
    )
