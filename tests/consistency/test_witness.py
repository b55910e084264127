"""The timestamp order as the checkers' witness.

``history_from_records`` resolves each read by walking the key's
writers back past the reader's missing positions, and the RC, RA and
causal checkers certify ``ok`` from premises P1-P3 on those missing
sets before they saturate (:mod:`repro.consistency.checkers`).  Here
both are held to what they replace:

* the history equals the one today's visible-record walk builds, kept
  below as :func:`reference_history` (tests only);
* :func:`missing_positions` equals the set difference it avoids;
* each witnessed verdict equals the saturating verdict of the same
  history without its witness, cycle witness included;

over a corpus of simulated runs with and without piggybacking, through
partitions and volatile-state crashes (split sessions), and with forged
seen-sets: dangling, later-timestamp, self-naming and non-monotone.
"""

import dataclasses
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.faults import Crash, FaultPlan, Partition, Reorder
from repro.chaos.harness import ChaosScenario, run_chaos
from repro.consistency import (
    History,
    HTransaction,
    check_causal,
    check_read_atomic,
    check_read_committed,
    history_from_trace,
)
from repro.consistency.adapters import (
    _session,
    crash_times_from_events,
    missing_positions,
)
from repro.consistency.checkers import WITNESSED, timestamp_order_certifies
from repro.consistency.footprints import airline_footprints
from repro.replica.log import RunSet, runs_of
from repro.shard.history import RecordedRun

CHECKERS = (check_read_committed, check_read_atomic, check_causal)

#: with piggybacking off and the partition plan, this seed's run is the
#: one of E18's 40 that violates causal consistency.
INTRANSITIVE_SEED = 15

PLANS = {
    "none": FaultPlan(()),
    "partition": FaultPlan((
        Partition(start=5.0, end=20.0, groups=((0,), (1, 2))),
    )),
    "crash_volatile": FaultPlan((
        Crash(node=1, at=8.0, recover_at=14.0, lose_volatile=True),
        Crash(node=2, at=16.0, recover_at=22.0, lose_volatile=True),
    )),
    "partition_heal_twice": FaultPlan((
        Partition(start=3.0, end=10.0, groups=((0, 1), (2,))),
        Partition(start=14.0, end=22.0, groups=((0,), (1, 2))),
    )),
    "reorder": FaultPlan((
        Reorder(start=2.0, end=28.0, probability=0.6, extra_delay=3.0),
    )),
}


def reference_history(records, events=()):
    """The history as the visible-record walk builds it: every read
    scans all of its reader's visible records, O(n) per read."""
    registry = airline_footprints()
    crash_times = crash_times_from_events(events)
    ordered = sorted(records, key=lambda r: r.ts)
    universe = {r.txid: r for r in ordered}
    dangling = 0
    transactions = []
    for record in ordered:
        visible = []
        for txid in record.seen_txids:
            seen = universe.get(txid)
            if seen is None:
                dangling += 1
            elif txid != record.txid:
                visible.append(seen)
        visible.sort(key=lambda r: r.ts)
        reads = []
        for key in registry.of(record).reads:
            src = None
            for candidate in visible:
                if key in registry.of(candidate).writes:
                    src = candidate.txid
            reads.append((key, src))
        transactions.append(HTransaction(
            txid=record.txid,
            session=_session(record.origin, record.real_time, crash_times),
            reads=tuple(reads),
            writes=registry.of(record).writes,
        ))
    sessions = sorted({t.session for t in transactions})
    return History(transactions, meta={
        "transactions": len(transactions),
        "dangling_refs": dangling,
        "sessions": sessions,
        "session_splits": sum(1 for s in sessions if "." in s),
    })


def reference_missing(ordered):
    """Each record's missing positions by set difference, or None
    where its seen-set names itself or a later record."""
    index_of = {r.txid: i for i, r in enumerate(ordered)}
    out = []
    for i, record in enumerate(ordered):
        seen = {index_of[t] for t in record.seen_txids if t in index_of}
        if seen and max(seen) >= i:
            out.append(None)
        else:
            out.append(tuple(j for j in range(i) if j not in seen))
    return out


@lru_cache(maxsize=None)
def recorded(seed, n_nodes, piggyback, plan):
    """(records, events) of one simulated run, as its node logs and
    tracer recorded them."""
    scenario = ChaosScenario(
        seed=seed, n_nodes=n_nodes, piggyback=piggyback,
        delay="uniform" if piggyback else "fixed",
    )
    report = run_chaos(scenario, PLANS[plan], oracles=(), keep_cluster=True)
    cluster = report.cluster
    run = RecordedRun(
        None,
        {node.node_id: tuple(node.log) for node in cluster.nodes},
        cluster.tracer.events,
    )
    return run.records, run.events


def forge(records, kind, at, as_frozenset):
    """``records`` with the seen-set of the ``at``-th (by timestamp)
    replaced: ``dangling`` adds a txid no record has, ``later`` a later
    record's, ``self`` the record's own, ``shrunk`` drops its least
    seen txid (which its origin's previous record saw, as a rule)."""
    ordered = sorted(records, key=lambda r: r.ts)
    i = at % len(ordered)
    victim = ordered[i]
    seen = set(victim.seen_txids)
    if kind == "dangling":
        seen.add(max(r.txid for r in ordered) + 1000)
    elif kind == "later":
        seen.add(ordered[(i + 1) % len(ordered)].txid)
    elif kind == "self":
        seen.add(victim.txid)
    elif kind == "shrunk" and seen:
        seen.discard(min(seen))
    forged = (
        frozenset(seen) if as_frozenset else RunSet(tuple(runs_of(seen)))
    )
    ordered[i] = dataclasses.replace(victim, seen_txids=forged)
    return ordered


def saturated(history):
    """The same history with no visibility witness."""
    return History(history.transactions, history.meta)


corpus = st.builds(
    lambda seed, n_nodes, piggyback, plan, forgery: (
        seed, n_nodes, piggyback, plan, forgery
    ),
    seed=st.integers(min_value=0, max_value=5) | st.just(INTRANSITIVE_SEED),
    n_nodes=st.sampled_from((3, 4)),
    piggyback=st.booleans(),
    plan=st.sampled_from(sorted(PLANS)),
    forgery=st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from(("dangling", "later", "self", "shrunk")),
            st.integers(min_value=0, max_value=200),
            st.booleans(),
        ),
    ),
)


def corpus_run(sample):
    seed, n_nodes, piggyback, plan, forgery = sample
    records, events = recorded(seed, n_nodes, piggyback, plan)
    if forgery is not None:
        records = forge(records, *forgery)
    return records, events


class TestHistoryBuild:
    @settings(max_examples=60, deadline=None)
    @given(corpus)
    def test_history_equals_the_visible_record_walk(self, sample):
        records, events = corpus_run(sample)
        built = history_from_trace(records, events)
        assert built.as_dict() == reference_history(records, events).as_dict()

    @settings(max_examples=60, deadline=None)
    @given(corpus)
    def test_missing_positions_equal_the_set_difference(self, sample):
        records, _ = corpus_run(sample)
        ordered = sorted(records, key=lambda r: r.ts)
        assert missing_positions(ordered) == reference_missing(ordered)

    def test_a_witness_rides_only_where_every_record_is_expressible(self):
        records, events = recorded(0, 3, True, "none")
        assert history_from_trace(records, events).visibility is not None
        later = forge(records, "later", 7, False)
        assert history_from_trace(later, events).visibility is None


class TestWitnessedVerdicts:
    @settings(max_examples=60, deadline=None)
    @given(corpus)
    def test_witnessed_verdict_equals_the_saturating_one(self, sample):
        records, events = corpus_run(sample)
        history = history_from_trace(records, events)
        for checker in CHECKERS:
            fast, slow = checker(history), checker(saturated(history))
            assert fast.status == slow.status
            assert fast.witness == slow.witness
            if fast.stats == WITNESSED:
                assert timestamp_order_certifies(history)
            else:
                assert fast.stats == slow.stats

    def test_healthy_runs_take_the_witness_path(self):
        for plan in ("none", "partition", "crash_volatile"):
            records, events = recorded(1, 3, True, plan)
            history = history_from_trace(records, events)
            assert timestamp_order_certifies(history), plan
            for checker in CHECKERS:
                assert checker(history).stats == WITNESSED

    def test_intransitive_violation_falls_through_to_saturation(self):
        """Without piggybacking, a WR edge a -> b can carry a record b
        never saw although a did: P2 fails, the checker saturates, and
        the causal violation keeps its cycle."""
        records, events = recorded(INTRANSITIVE_SEED, 3, False, "partition")
        history = history_from_trace(records, events)
        assert not timestamp_order_certifies(history)
        verdict = check_causal(history)
        assert verdict.status == "violation"
        assert verdict.witness.kind == "cycle"
        assert "forced_edges" in verdict.stats
        assert check_read_atomic(history).ok

    def test_an_uncertified_history_can_still_pass_by_saturation(self):
        records, events = recorded(0, 3, False, "partition")
        history = history_from_trace(records, events)
        assert not timestamp_order_certifies(history)
        for checker in CHECKERS:
            verdict = checker(history)
            assert verdict.ok
            assert "forced_edges" in verdict.stats

    def test_a_premise_failure_falls_through_to_saturation(self):
        """t2 reads x from t1 but its witness says it saw nothing: P2
        and P3 fail, so the ok comes from saturation, not the witness."""
        history = History(
            [
                HTransaction(1, "a", (), ("x",)),
                HTransaction(2, "b", (("x", 1),), ()),
            ],
            visibility=((), (0,)),
        )
        assert not timestamp_order_certifies(history)
        for checker in CHECKERS:
            verdict = checker(history)
            assert verdict.ok
            assert verdict.stats != WITNESSED
            assert "forced_edges" in verdict.stats

    def test_a_malformed_witness_is_not_trusted(self):
        base = [
            HTransaction(1, "a", (), ("x",)),
            HTransaction(2, "a", (("x", 1),), ()),
        ]
        for visibility in (((0,), ()), ((), (1,)), ((), (0, 0)), ((),)):
            history = History(base, visibility=visibility)
            assert not timestamp_order_certifies(history)
        assert timestamp_order_certifies(History(base, visibility=((), ())))
