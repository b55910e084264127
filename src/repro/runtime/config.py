"""Cluster and node specs: the configuration that crosses process lines.

A :class:`ClusterSpec` describes one deployment — node count, the TCP
port of every node, the shared epoch and time scale, the seed, the
anti-entropy interval, where history files go, and (optionally) the
``FaultPlan`` to replay.  The supervisor builds one, then hands each
spawned process a :class:`NodeSpec` (= the cluster spec + that node's
id and incarnation number) as a JSON argument; the node process
reconstructs everything it needs from that single value, so there is
no other configuration channel to drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple

from ..chaos.faults import FaultPlan

#: txid packing moduli (see NodeSpec.txid): enough for any cluster this
#: repo will ever boot, and few enough that every txid stays below 2**53
#: (exact in any JSON reader).
MAX_NODES = 64
MAX_INCARNATIONS = 256
#: local sequence numbers per (node, incarnation): the low nine decimal
#: digits of a txid, so ``2_000_000_017`` reads as node 2's txn 17.
SEQ_SPACE = 10 ** 9


@dataclass(frozen=True)
class ClusterSpec:
    """One runtime deployment, JSON-serializable."""

    n_nodes: int
    ports: Tuple[int, ...]
    epoch: float
    host: str = "127.0.0.1"
    seed: int = 0
    scale: float = 0.05
    anti_entropy_interval: float = 5.0
    capacity: int = 100
    history_dir: Optional[str] = None
    plan_json: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ports", tuple(self.ports))
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if self.n_nodes > MAX_NODES:
            raise ValueError(f"cluster larger than MAX_NODES={MAX_NODES}")
        if len(self.ports) != self.n_nodes:
            raise ValueError("need exactly one port per node")

    @property
    def node_ids(self) -> Tuple[int, ...]:
        return tuple(range(self.n_nodes))

    def address(self, node_id: int) -> Tuple[str, int]:
        return (self.host, self.ports[node_id])

    def plan(self) -> Optional[FaultPlan]:
        if self.plan_json is None:
            return None
        return FaultPlan.from_json(self.plan_json)

    def to_json(self) -> str:
        data = {
            "n_nodes": self.n_nodes,
            "ports": list(self.ports),
            "epoch": self.epoch,
            "host": self.host,
            "seed": self.seed,
            "scale": self.scale,
            "anti_entropy_interval": self.anti_entropy_interval,
            "capacity": self.capacity,
            "history_dir": self.history_dir,
            "plan_json": self.plan_json,
        }
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        data = json.loads(text)
        data["ports"] = tuple(data["ports"])
        return cls(**data)


@dataclass(frozen=True)
class NodeSpec:
    """What one node process needs to come up: the cluster + its place
    in it.  ``incarnation`` counts respawns of this node id; it is
    folded into txids so a respawned process (whose local sequence
    restarts at zero) can never reissue a txid its previous life used.
    """

    cluster: ClusterSpec
    node_id: int
    incarnation: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.node_id < self.cluster.n_nodes:
            raise ValueError(f"node id {self.node_id} out of range")
        if not 0 <= self.incarnation < MAX_INCARNATIONS:
            raise ValueError("too many respawns of one node id")

    def txid(self, local_seq: int) -> int:
        """A globally unique txid with no central counter: unique per
        (node, incarnation, sequence), monotone in the sequence.

        The sequence sits in the low digits, so one (node, incarnation)
        issues consecutive ints.  A seen-set is, under causal delivery,
        a prefix of each origin's sequence, so it is a handful of
        consecutive runs, which is what the wire's set encoding stores
        (one pair of ints per run, :mod:`repro.runtime.wire`).
        """
        if not 0 <= local_seq < SEQ_SPACE:
            raise ValueError(f"local sequence {local_seq} out of range")
        return (
            (self.incarnation * MAX_NODES + self.node_id) * SEQ_SPACE
            + local_seq
        )

    def to_json(self) -> str:
        return json.dumps({
            "cluster": json.loads(self.cluster.to_json()),
            "node_id": self.node_id,
            "incarnation": self.incarnation,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NodeSpec":
        data = json.loads(text)
        return cls(
            cluster=ClusterSpec.from_json(json.dumps(data["cluster"])),
            node_id=data["node_id"],
            incarnation=data["incarnation"],
        )


def txid_origin(txid: int) -> Tuple[int, int, int]:
    """``(node_id, incarnation, local_seq)`` of a txid
    :meth:`NodeSpec.txid` issued."""
    origin, local_seq = divmod(txid, SEQ_SPACE)
    incarnation, node_id = divmod(origin, MAX_NODES)
    return node_id, incarnation, local_seq
