"""Simulated network substrate: links and partitions (the broadcast
layer on top of it is :mod:`repro.gossip`)."""

from .link import DelayModel, ExponentialDelay, FixedDelay, UniformDelay
from .network import Network, NetworkStats
from .partition import PartitionInterval, PartitionSchedule

__all__ = [
    "DelayModel",
    "ExponentialDelay",
    "FixedDelay",
    "Network",
    "NetworkStats",
    "PartitionInterval",
    "PartitionSchedule",
    "UniformDelay",
]
