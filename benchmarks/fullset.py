"""The full-set reference arm of E9b and E10d.

The paper's broadcast (Section 3.3) taken literally: every flood
piggybacks the sender's whole known set, and every anti-entropy round
ships it to ``fanout`` random peers — O(nodes × history) record copies.
:class:`repro.gossip.GossipService` ships only what a peer lacks; this
module is the baseline the two bandwidth benches measure it against,
and it lives beside them because nothing else runs it::

    with full_set_gossip():
        run = run_airline_scenario(...)

For the length of the block, every gossip service publishes and runs
anti-entropy the whole-set way; the service's own methods are restored
on exit.  The payloads are ordinary rumors without extras,
``(GOSSIP_RUMOR, items, None)``, so receivers merge them through
their causal gate — and since a whole known set is causally closed and
listed in the sender's delivery order, the gate delivers every item as
it is offered.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.gossip import GOSSIP_RUMOR, GossipService
from repro.gossip.service import group_of


def _ship(service, node_id, dst, items):
    service.stats.items_carried += len(items)
    service.stats.wire.message(records=len(items))
    service.transport.send(node_id, dst, (GOSSIP_RUMOR, items, None))


def _publish(self, node_id, key, item):
    """Deliver locally, then flood the whole known set (just the new
    item with ``piggyback=False``) to every other holder of its group."""
    self.stats.published += 1
    self._note_published(key)
    self._merge(node_id, [(key, item)])
    if not self.config.flood:
        return
    group = group_of(item)
    items = (
        tuple(self._known[node_id].items())
        if self.config.piggyback
        else ((key, item),)
    )
    for dst in self._targets():
        if dst != node_id and self._holds(dst, group):
            self.stats.flood_messages += 1
            _ship(self, node_id, dst, items)


def _gossip_once(self, node_id):
    """Ship the whole known set to ``fanout`` uniformly random peers."""
    if not self._is_active(node_id):
        return
    everyone = self.extras is not None
    peers = [
        n for n in self._targets()
        if n != node_id and self._is_active(n)
        and (everyone or self._shares(node_id, n))
    ]
    if not peers:
        return
    targets = self.rng.sample(peers, min(self.config.fanout, len(peers)))
    items = tuple(self._known[node_id].items())
    for dst in targets:
        self.stats.anti_entropy_messages += 1
        _ship(self, node_id, dst, items)


@contextmanager
def full_set_gossip():
    """Run every :class:`GossipService` the full-set way inside the
    block (see the module docstring)."""
    saved = GossipService.publish, GossipService._gossip_once
    GossipService.publish, GossipService._gossip_once = _publish, _gossip_once
    try:
        yield
    finally:
        GossipService.publish, GossipService._gossip_once = saved
