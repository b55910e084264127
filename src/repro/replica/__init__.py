"""The replica subsystem: the per-node storage path under one seam.

Owns everything between "a record arrived" and "the node's database copy
is correct again": the canonical timestamp-ordered log, the
policy-driven undo/redo merge views with their tail fast path, and the
checkpoint-retention policies that bound snapshot memory.  The SHARD
layer (:mod:`repro.shard`), partial replication, and the serializable
baselines all store state through this package.
"""

from .engine import (
    CommutativityFn,
    CostCacheStats,
    ListUpdateSource,
    LogUpdateSource,
    MergeOutcome,
    MergeStats,
    MergeView,
    UpdateSource,
)
from .log import RunSet, SystemLog, UpdateRecord
from .policy import (
    AdaptiveWindowPolicy,
    CheckpointPolicy,
    EveryPositionPolicy,
    FixedIntervalPolicy,
    GeometricPolicy,
    InitialOnlyPolicy,
    TailWindowPolicy,
)
from .replica import (
    EngineFactory,
    MaterializedLog,
    Replica,
    default_engine_factory,
    policy_engine_factory,
)
from .timestamps import LamportClock, Timestamp

__all__ = [
    "AdaptiveWindowPolicy",
    "CheckpointPolicy",
    "CommutativityFn",
    "CostCacheStats",
    "EngineFactory",
    "EveryPositionPolicy",
    "FixedIntervalPolicy",
    "GeometricPolicy",
    "InitialOnlyPolicy",
    "LamportClock",
    "ListUpdateSource",
    "LogUpdateSource",
    "MaterializedLog",
    "MergeOutcome",
    "MergeStats",
    "MergeView",
    "Replica",
    "RunSet",
    "SystemLog",
    "TailWindowPolicy",
    "Timestamp",
    "UpdateRecord",
    "UpdateSource",
    "default_engine_factory",
    "policy_engine_factory",
]
