"""The causal gate's per-sequence cursors are a drop-in for the set
inclusion they replace: for seen-set views of origin logs — one
arrival sequence per (node, group) replica, restarted by truncation —
random offers, duplicates, out-of-band deliveries and forgets release
exactly the keys, in exactly the order, that ``frozenset(deps) <=
delivered`` does.  Also: ``GossipStats.causally_deferred`` counts each
delivery that waited in a buffer, once."""

from hypothesis import given, settings, strategies as st

from repro.apps.airline import Request, RequestUpdate
from repro.gossip import GOSSIP_RUMOR, CausalBuffer, GossipConfig
from repro.replica import SystemLog, UpdateRecord
from repro.replica.timestamps import Timestamp
from tests.gossip.test_service import make_service

NODES = st.integers(0, 2)
GROUPS = st.sampled_from(("a", "b"))
#: a key into the records initiated so far (taken modulo their number).
PICK = st.integers(0, 10**6)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("initiate"), NODES, GROUPS),
        st.tuples(st.just("learn"), NODES, PICK),
        st.tuples(st.just("truncate"), NODES, GROUPS, st.floats(0, 1)),
        st.tuples(st.just("offer"), PICK),
        st.tuples(st.just("direct"), PICK),
        st.tuples(st.just("forget"), st.integers(1, 4)),
    ),
    max_size=60,
)


class ReferenceBuffer:
    """The gate the cursors replace: one set inclusion per readiness
    check."""

    def __init__(self, delivered, deliver):
        self.delivered, self.deliver, self.pending = delivered, deliver, {}
        self.buffered_total = self.deferred_total = 0

    def offer(self, key, item, deps):
        if key in self.delivered or key in self.pending:
            return
        self.pending[key] = (item, frozenset(deps))
        progress = True
        while progress:
            progress = False
            for k, (it, ds) in list(self.pending.items()):
                if k in self.pending and ds <= self.delivered.keys():
                    del self.pending[k]
                    self.deliver(k, it)
                    self.deferred_total += k != key
                    progress = True
        if key in self.pending:
            self.buffered_total += 1

    def clear(self):
        n = len(self.pending)
        self.pending.clear()
        return n


def record(txid, group, node, seen):
    return UpdateRecord(
        ts=Timestamp(txid + 1, node),
        txid=txid,
        transaction=Request(f"P{txid}"),
        update=RequestUpdate(f"P{txid}"),
        origin=node,
        real_time=0.0,
        seen_txids=seen,
        group=group,
    )


def play(steps, make):
    """Origins 0-2 hold a replica, each with its own arrival sequence,
    per group they hold ("a" and "b"; node 1 only "a"); the receiver
    holds both, so its gate keeps a cursor on every sequence."""
    logs = {
        (0, "a"): SystemLog(), (0, "b"): SystemLog(),
        (1, "a"): SystemLog(),
        (2, "a"): SystemLog(), (2, "b"): SystemLog(),
    }
    records = []
    delivered, order = {}, []

    def deliver(key, item):
        delivered[key] = item
        order.append(key)

    buffer = make(delivered, deliver)
    for step in steps:
        kind = step[0]
        if kind == "initiate":
            log = logs.get(step[1:])
            if log is not None:
                r = record(len(records), step[2], step[1], log.txids)
                log.insert(r)
                records.append(r)
        elif kind == "truncate":
            log = logs.get(step[1:3])
            if log is not None:
                log.truncate(int(step[3] * len(log)))
        elif not records:
            continue
        elif kind == "learn":
            r = records[step[2] % len(records)]
            log = logs.get((step[1], r.group))
            if log is not None:
                log.insert(r)
        elif kind in ("offer", "direct"):
            r = records[step[1] % len(records)]
            if kind == "offer":
                buffer.offer(r.txid, r, r.seen_txids)
            else:
                delivered.setdefault(r.txid, r)
        else:  # a crash losing the newest deliveries: GossipService.forget
            for key in list(delivered)[len(delivered) - step[1]:]:
                del delivered[key]
            buffer.clear()
    return order, buffer.buffered_total, buffer.deferred_total


@settings(max_examples=300, deadline=None)
@given(steps=STEPS)
def test_cursor_gate_releases_what_set_inclusion_does(steps):
    assert play(steps, CausalBuffer) == play(steps, ReferenceBuffer)


def test_a_sequence_is_walked_once_for_many_views():
    """Each offer resumes the cursor where the previous one stopped."""
    reads = []

    class Probe(dict):
        def __contains__(self, key):
            reads.append(key)
            return dict.__contains__(self, key)

    log, delivered, order = SystemLog(), Probe(), []

    def deliver(key, item):
        delivered[key] = item
        order.append(key)

    buffer = CausalBuffer(delivered, deliver)
    for txid in range(50):
        view = log.txids
        log.insert(record(txid, None, 0, view))
        buffer.offer(txid, txid, view)
    assert order == list(range(50))
    # one duplicate check per offer, one cursor step per arrival.
    assert len(reads) <= 2 * 50


def test_a_forget_rewinds_the_cursors():
    """After a crash scrub, a view over a forgotten key waits again even
    though the sequence was walked past it before."""
    log, delivered, order = SystemLog(), {}, []

    def deliver(key, item):
        delivered[key] = item
        order.append(key)

    buffer = CausalBuffer(delivered, deliver)
    views = []
    for txid in range(3):
        views.append(log.txids)
        log.insert(record(txid, None, 0, views[-1]))
        buffer.offer(txid, txid, views[-1])
    del delivered[0]  # as GossipService.forget: scrub, then clear
    buffer.clear()
    buffer.offer(9, 9, views[2])
    assert order == [0, 1, 2] and 9 in buffer
    buffer.offer(0, 0, views[0])
    assert order == [0, 1, 2, 0, 9]


def test_a_rumor_ahead_of_its_dependency_is_deferred_once():
    sim, service, delivered = make_service(
        config=GossipConfig(flood=False, anti_entropy_interval=1e9)
    )
    service.depends_on = lambda key, item: item[1]

    def rumor(key, deps):
        service.receive(1, (GOSSIP_RUMOR, ((key, (key, deps)),), None, None))

    rumor("b", ("a",))
    rumor("b", ("a",))  # a duplicate waits as the same item
    assert delivered[1] == [] and service.stats.causally_deferred == 0
    rumor("a", ())
    assert delivered[1] == ["a", "b"]
    assert service.stats.causally_deferred == 1
    rumor("c", ("b",))
    assert service.stats.causally_deferred == 1
    rumor("e", ("d",))
    service.forget(1, ())  # a crash drops "e" before it is delivered
    rumor("d", ())
    assert delivered[1] == ["a", "b", "c", "d"]
    assert service.stats.causally_deferred == 1
