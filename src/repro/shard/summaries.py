"""Summary-form data under partial replication (Section 6): "some of the
data which transactions read ... present in summary form".  Through the
gossip service's ``extras`` hooks, every SYN, ACK and rumor carries the
sender's time-stamped summaries of the objects it holds, and each node
caches the newest summary it has heard of each object it does not hold.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..core.state import State


class Summaries:
    """Per-node caches of ``cluster``'s foreign-object summaries, as
    computed by ``summarize`` (substate -> an opaque value)."""

    def __init__(self, cluster, summarize: Callable[[State], object]):
        broadcast = cluster.broadcast
        if broadcast.extras is not None or broadcast.on_extras is not None:
            raise RuntimeError("the gossip service already carries extras")
        self.cluster = cluster
        self.summarize = summarize
        #: node -> {object: (as-of simulated time, summary)}.
        self.caches: Dict[int, Dict[object, Tuple[float, object]]] = {
            node_id: {} for node_id in range(len(cluster.nodes))
        }
        broadcast.extras = self._summaries_from
        broadcast.on_extras = self._accept_summaries

    def _summaries_from(self, node_id: int, peer: int) -> Optional[Tuple]:
        replicas = self.cluster.nodes[node_id].replicas
        return tuple(
            (key, self.cluster.sim.now, self.summarize(replicas[key].state))
            for key in sorted(replicas)
        ) or None

    def _accept_summaries(self, node_id: int, src: int, extra) -> None:
        for key, as_of, value in extra or ():
            self.accept_summary(node_id, key, as_of, value)

    def accept_summary(
        self, node_id: int, key: object, as_of: float, value: object
    ) -> None:
        """Cache a summary of an object ``node_id`` does not hold; newer
        as-of times win."""
        if key in self.cluster.nodes[node_id].replicas:
            return
        current = self.caches[node_id].get(key)
        if current is None or as_of >= current[0]:
            self.caches[node_id][key] = (as_of, value)

    def summary(self, node_id: int, key: object) -> Optional[object]:
        """``node_id``'s cached (possibly stale) summary of ``key``."""
        entry = self.caches[node_id].get(key)
        return entry[1] if entry else None

    def summary_view(self, node_id: int) -> Dict[object, object]:
        """Every object as ``node_id`` sees it: exact summaries of what
        it holds, cached ones (or None) of the rest."""
        replicas = self.cluster.nodes[node_id].replicas
        return {
            key: self.summarize(replicas[key].state) if key in replicas
            else self.summary(node_id, key)
            for key in self.cluster.initial_states
        }
