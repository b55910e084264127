"""Running the inventory application on the simulated SHARD system.

Orders arrive at random sales nodes; restocks land at the warehouse
node; commit/renege/ship sweeps run either at every node (fully
available) or only at the warehouse (the centralized-agent policy).
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
from .operations import CancelOrder, Commit, Order, Renege, Restock, Ship
from .state import INITIAL_INVENTORY_STATE, InventoryState


@dataclass
class InventoryScenario:
    n_nodes: int = 3
    duration: float = 120.0
    order_rate: float = 1.2
    cancel_fraction: float = 0.1
    restock_fraction: float = 0.2
    max_restock: int = 3
    sweep_interval: float = 2.0
    sweep_nodes: Optional[Sequence[int]] = None  # None = every node
    warehouse_node: int = 0
    seed: int = 0
    delay: Optional[DelayModel] = None
    partitions: Optional[PartitionSchedule] = None
    broadcast: Optional[GossipConfig] = None


@dataclass
class InventoryRun:
    scenario: InventoryScenario
    cluster: ShardCluster
    execution: TimedExecution
    final_state: InventoryState
    ledger: ExternalLedger


class _InventoryArrivals:
    """Order/cancel arrivals; restocks are routed to the warehouse."""

    def __init__(self, scenario: InventoryScenario, cluster: ShardCluster):
        self.scenario = scenario
        self.cluster = cluster
        self.next_order = 0
        self.open_orders: list = []

    def __call__(self, rng: random.Random):
        s = self.scenario
        roll = rng.random()
        if roll < s.restock_fraction:
            # restocks always happen at the warehouse.
            self.cluster.submit(
                s.warehouse_node, Restock(rng.randint(1, s.max_restock))
            )
            return None
        if self.open_orders and roll < s.restock_fraction + s.cancel_fraction:
            return CancelOrder(rng.choice(self.open_orders))
        self.next_order += 1
        order = f"o{self.next_order}"
        self.open_orders.append(order)
        return Order(order)


def run_inventory_scenario(scenario: InventoryScenario) -> InventoryRun:
    cluster = ShardCluster(
        INITIAL_INVENTORY_STATE,
        ClusterConfig(
            n_nodes=scenario.n_nodes,
            seed=scenario.seed,
            delay=scenario.delay or UniformDelay(0.2, 1.0),
            partitions=scenario.partitions,
            broadcast=scenario.broadcast,
        ),
    )
    arrivals = PoissonSubmitter(
        cluster,
        rate=scenario.order_rate,
        make_transaction=_InventoryArrivals(scenario, cluster),
        rng=cluster.streams.stream("arrivals"),
        stop_at=scenario.duration,
    )
    sweep_nodes = (
        list(scenario.sweep_nodes)
        if scenario.sweep_nodes is not None
        else list(range(scenario.n_nodes))
    )
    sweeps = PeriodicSubmitter(
        cluster,
        interval=scenario.sweep_interval,
        make_transactions=lambda: (Commit(), Renege(), Ship()),
        nodes=sweep_nodes,
        stop_at=scenario.duration,
    )
    arrivals.start()
    sweeps.start()
    cluster.run(until=scenario.duration)
    cluster.quiesce()
    execution = cluster.extract_execution()
    final_state = cluster.nodes[0].state
    assert isinstance(final_state, InventoryState)
    return InventoryRun(
        scenario=scenario,
        cluster=cluster,
        execution=execution,
        final_state=final_state,
        ledger=cluster.ledger,
    )
