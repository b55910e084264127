"""Digest-based anti-entropy gossip (delta reconciliation).

The paper's dissemination story (§3.3) — flooding plus periodic
anti-entropy with piggybacked knowledge — is preserved, but instead of
shipping each node's entire known set every round, nodes exchange
compact timestamp-range digests and reconcile only the ranges that
differ.  See :mod:`repro.gossip.digest` for the summaries,
:mod:`repro.gossip.protocol` for the exchange's message vocabulary and
the causal gate, :mod:`repro.gossip.scheduler` for partition-aware peer
selection and :mod:`repro.gossip.service` for the one service that runs
floods and the SYN/ACK/DELTA exchange over the node data it owns.
"""

from .digest import (
    Cell,
    DigestIndex,
    RangeDigest,
    differing_cells,
    fingerprint,
)
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
    "Cell",
    "DigestIndex",
    "RangeDigest",
    "differing_cells",
    "fingerprint",
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
