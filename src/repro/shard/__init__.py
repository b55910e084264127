"""The SHARD system: replicated nodes, their one wiring
(:class:`~repro.shard.host.NodeHost`), the simulated cluster (fully or,
with a placement, partially replicated), and execution extraction.

Per-node storage (logs, merge views, checkpoint policies) lives in
:mod:`repro.replica`; this package re-exports the record and clock
names its callers import from here.
"""

from ..replica import (
    LamportClock,
    MergeOutcome,
    Replica,
    SystemLog,
    Timestamp,
    UpdateRecord,
)
from .agent import AgentStats, TokenAgent
from .cluster import ClusterConfig, ShardCluster
from .external import ExternalLedger, LedgerEntry
from .history import extract_execution
from .host import NodeHost
from .node import ShardNode
from .summaries import Summaries
from .sync import SyncManager, SyncStats
from .workload import PeriodicSubmitter, PoissonSubmitter

__all__ = [
    "AgentStats",
    "ClusterConfig",
    "ExternalLedger",
    "LamportClock",
    "LedgerEntry",
    "MergeOutcome",
    "NodeHost",
    "PeriodicSubmitter",
    "PoissonSubmitter",
    "Replica",
    "ShardCluster",
    "ShardNode",
    "Summaries",
    "SyncManager",
    "SyncStats",
    "TokenAgent",
    "SystemLog",
    "Timestamp",
    "UpdateRecord",
    "extract_execution",
]
