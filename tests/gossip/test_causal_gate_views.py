"""The causal gate's run cursors and blocker memo are a drop-in for the
set inclusion they replace: for seen-sets of origin logs — one log per
(node, group) replica, its txids drawn from one counter shared by every
group, so each seen-set has holes, and truncated now and then — random
offers, duplicates, out-of-band deliveries and forgets release exactly
the keys, in exactly the order, that ``frozenset(deps) <= delivered``
does.  Also: ``GossipStats.causally_deferred`` counts each delivery that
waited in a buffer, once."""

from hypothesis import given, settings, strategies as st

from repro.apps.airline import Request, RequestUpdate
from repro.gossip import GOSSIP_RUMOR, CausalBuffer, GossipConfig
from repro.replica import SystemLog, UpdateRecord
from repro.replica.timestamps import Timestamp
from tests.gossip.test_service import make_service
from tests.helpers import ReferenceBuffer

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
    """Origins 0-2 hold a replica per group they hold ("a" and "b";
    node 1 only "a"), each seen-set a ``RunSet`` of its log's txids; the
    receiver holds both groups, so its gate sees every origin's runs."""
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


def test_a_rumor_ahead_of_its_dependency_is_deferred_once():
    sim, service, delivered = make_service(
        config=GossipConfig(flood=False, anti_entropy_interval=1e9)
    )
    service.depends_on = lambda key, item: item[1]

    def rumor(key, deps):
        service.receive(1, (GOSSIP_RUMOR, ((key, (key, deps)),), None), src=0)

    rumor(2, (1,))
    rumor(2, (1,))  # a duplicate waits as the same item
    assert delivered[1] == [] and service.stats.causally_deferred == 0
    rumor(1, ())
    assert delivered[1] == [1, 2]
    assert service.stats.causally_deferred == 1
    rumor(3, (2,))
    assert service.stats.causally_deferred == 1
    rumor(5, (4,))
    service.forget(1, ())  # a crash drops 5 before it is delivered
    rumor(4, ())
    assert delivered[1] == [1, 2, 3, 4]
    assert service.stats.causally_deferred == 1
