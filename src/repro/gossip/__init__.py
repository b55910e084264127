"""Run-set anti-entropy gossip (delta reconciliation).

The paper's dissemination story (§3.3) — flooding plus periodic
anti-entropy with piggybacked knowledge — is preserved, but instead of
shipping each node's entire known set every round, nodes exchange the
keys they hold as run-sets (:class:`~repro.replica.log.RunSet`, a few
runs of txids under causal delivery) and ship only the records in the
runs' difference.  See :mod:`repro.gossip.protocol` for the exchange's
message vocabulary and the causal gate,
:mod:`repro.gossip.scheduler` for partition-aware peer selection and
:mod:`repro.gossip.service` for the one service that runs floods and
the SYN/ACK/DELTA exchange over the node data it owns.
"""

from .protocol import (
    GOSSIP_ACK,
    GOSSIP_DELTA,
    GOSSIP_KINDS,
    GOSSIP_RUMOR,
    GOSSIP_SYN,
    CausalBuffer,
    DeltaStats,
)
from .scheduler import PeerScheduler, SchedulerStats
from .service import GossipConfig, GossipService, GossipStats

__all__ = [
    "GOSSIP_ACK",
    "GOSSIP_DELTA",
    "GOSSIP_KINDS",
    "GOSSIP_RUMOR",
    "GOSSIP_SYN",
    "CausalBuffer",
    "DeltaStats",
    "PeerScheduler",
    "SchedulerStats",
    "GossipConfig",
    "GossipService",
    "GossipStats",
]
