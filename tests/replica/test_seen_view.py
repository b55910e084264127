"""``SystemLog.txids`` is a :class:`RunSet` of the runs the log keeps
its txids in; each snapshot must be indistinguishable from the
``frozenset`` it replaces: after later inserts and truncations, in every
set operation, under hash and pickle, and on the wire."""

import pickle

from hypothesis import given, settings, strategies as st

from repro.apps.airline import Request, RequestUpdate
from repro.replica import RunSet, SystemLog, UpdateRecord
from repro.replica.timestamps import Timestamp
from repro.runtime import wire

TXIDS = st.integers(0, 30)
PROGRAMS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), TXIDS, st.integers(1, 40)),
        st.tuples(st.just("truncate"), st.floats(0, 1)),
    ),
    max_size=40,
)


def record(txid, counter=1, seen=frozenset()):
    return UpdateRecord(
        ts=Timestamp(counter, txid % 4),
        txid=txid,
        transaction=Request(f"P{txid}"),
        update=RequestUpdate(f"P{txid}"),
        origin=txid % 4,
        real_time=float(counter),
        seen_txids=seen,
    )


def run(program):
    """Run ``program`` on a log; returns every ``(snapshot, reference)``
    pair it took, one before and one after each step."""
    log, reference = SystemLog(), set()
    snapshots = [(log.txids, frozenset(reference))]
    for step in program:
        if step[0] == "insert":
            _, txid, counter = step
            inserted = log.insert(record(txid, counter))
            assert (inserted is None) == (txid in reference)
            reference.add(txid)
        else:
            lost = log.truncate(int(step[1] * len(log)))
            reference -= {r.txid for r in lost}
        snapshots.append((log.txids, frozenset(reference)))
    return snapshots


@settings(max_examples=200, deadline=None)
@given(program=PROGRAMS)
def test_every_view_stays_its_snapshot(program):
    """Checked at the end: no later insert or truncate moved a
    snapshot."""
    for view, ref in run(program):
        assert type(view) is RunSet
        assert view == ref and ref == view
        assert not view != ref and not ref != view
        assert hash(view) == hash(ref)
        assert len(view) == len(ref)
        assert sorted(view) == sorted(ref)
        for txid in range(31):
            assert (txid in view) == (txid in ref)
        assert view | {99} == ref | {99}
        assert type(view | {99}) is frozenset
        assert view - {0, 1} == ref - {0, 1}
        assert type(view - {0, 1}) is frozenset
        assert {0, 1} - view == {0, 1} - ref
        assert (view <= ref) and (ref <= view)
        thawed = pickle.loads(pickle.dumps(view))
        assert type(thawed) is frozenset and thawed == ref


@settings(max_examples=100, deadline=None)
@given(program=PROGRAMS)
def test_views_encode_as_their_frozenset(program):
    for view, ref in run(program):
        text = wire.encode(record(7, seen=view))
        assert text == wire.encode(record(7, seen=ref))
        assert wire.decode(text) == record(7, seen=view)


def test_snapshots_of_one_log_compare_by_bounds():
    log = SystemLog()
    empty = log.txids
    log.insert(record(1))
    one = log.txids
    assert empty != one and empty == frozenset() and one == {1}
    assert log.txids == one and hash(log.txids) == hash(one)
    assert {one: "state"}[frozenset({1})] == "state"
    for txid in (3, 2, 7):
        log.insert(record(txid))
    assert log.txids.bounds == (1, 3, 7, 7) and 2 in log and 4 not in log


def test_truncate_rebuilds_the_runs():
    log = SystemLog()
    for txid, counter in ((5, 3), (6, 1), (7, 2)):
        log.insert(record(txid, counter))
    before = log.txids
    assert before.bounds == (5, 7)
    assert [r.txid for r in log.truncate(1)] == [7, 5]
    assert log.txids.bounds == (6, 6) and 5 not in log
    assert before.bounds == (5, 7) and before == {5, 6, 7}
    log.insert(record(5, 9))
    assert log.txids.bounds == (5, 6)
