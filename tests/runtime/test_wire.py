"""Wire codec: every protocol payload roundtrips to an equal object."""

import dataclasses
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.airline.state import AirlineState
from repro.apps.airline.transactions import Cancel, MoveDown, MoveUp, Request
from repro.apps.registry import APP_NAMES, app_entry
from repro.core.update import IDENTITY
from repro.gossip import GOSSIP_DELTA
from repro.replica import RunSet, SystemLog, UpdateRecord
from repro.replica.log import runs_of
from repro.replica.timestamps import Timestamp
from repro.runtime import wire
from repro.runtime.config import ClusterSpec, NodeSpec
from repro.runtime.history import dump_records, load_records
from repro.runtime.transport import MSG
from repro.shard.cluster import ClusterConfig, ShardCluster
from repro.workloads import WorkloadSpec, generate_stream
from tests.core.test_verify_yardstick import steady_airline_history
from tests.runtime.test_faults_runtime import assert_rejected_then_served

persons = st.text(
    alphabet="abcdefgh", min_size=1, max_size=4
)
transactions = st.one_of(
    persons.map(Request),
    persons.map(Cancel),
    st.integers(1, 5).map(MoveUp),
    st.integers(1, 5).map(MoveDown),
)


LIVE = ClusterSpec(n_nodes=4, ports=(1, 2, 3, 4), epoch=0.0)


def live_txid(node_id, incarnation, local_seq):
    return NodeSpec(LIVE, node_id, incarnation).txid(local_seq)


@st.composite
def runs(draw):
    """A union of ranges: runs with gaps, some touching or overlapping."""
    spans = draw(st.lists(
        st.tuples(st.integers(0, 10**4), st.integers(1, 40)), max_size=5
    ))
    return frozenset(t for start, n in spans for t in range(start, start + n))


@st.composite
def live_prefixes(draw):
    """What a live seen-set is under causal delivery: a prefix of each
    (node, incarnation)'s txid sequence, here with a few holes."""
    seen = set()
    for node_id in draw(st.sets(st.integers(0, 3), max_size=4)):
        for incarnation in draw(st.sets(st.integers(0, 2), max_size=2)):
            upto = draw(st.integers(0, 300))
            seen.update(
                live_txid(node_id, incarnation, seq) for seq in range(upto)
            )
    holes = draw(st.lists(st.sampled_from(sorted(seen)), max_size=3)) \
        if seen else []
    return frozenset(seen.difference(holes))


int_sets = st.one_of(
    st.frozensets(st.integers(0, 99), max_size=6), runs(), live_prefixes()
)


@st.composite
def update_records(draw):
    txn = draw(transactions)
    decision = txn.decide(AirlineState(("a",), ("b", "c")))
    return UpdateRecord(
        ts=Timestamp(draw(st.integers(1, 99)), draw(st.integers(0, 5))),
        txid=draw(st.integers(0, 2**20)),
        transaction=txn,
        update=decision.update,
        origin=draw(st.integers(0, 5)),
        real_time=draw(
            st.floats(0, 1e6, allow_nan=False, allow_infinity=False)
        ),
        seen_txids=draw(int_sets),
    )


#: a node's digest as anti-entropy sends it: its held keys as runs.
digests = int_sets.map(lambda members: RunSet(tuple(runs_of(members))))


class TestRoundtrip:
    @given(update_records())
    def test_update_record(self, record):
        assert wire.decode(wire.encode(record)) == record

    @given(digests)
    def test_digest(self, digest):
        assert wire.decode(wire.encode(digest)) == digest

    @given(st.integers(0, 999), digests)
    def test_syn_payload(self, syn_id, digest):
        payload = ("gossip_syn", syn_id, digest, None)
        assert wire.decode(wire.encode(payload)) == payload

    @given(st.lists(update_records(), min_size=1, max_size=3), digests)
    def test_delta_payload(self, records, want):
        items = tuple((r.txid, r) for r in records)
        payload = ("gossip_delta", 3, items, want)
        decoded = wire.decode(wire.encode(payload))
        assert decoded == payload
        assert decoded[3].bounds == want.bounds

    def test_the_retired_range_digest_tag_is_refused(self):
        with pytest.raises(ValueError, match="unknown wire tag"):
            wire.decode('{"%dg":[32,{"%t":[]},null]}')

    @given(update_records(), st.sampled_from(["f1", "flight-7"]))
    def test_update_record_with_a_group(self, record, group):
        grouped = dataclasses.replace(record, group=group)
        decoded = wire.decode(wire.encode(grouped))
        assert decoded == grouped and decoded.group == group

    def test_full_replication_record_text_is_pinned(self):
        """A record without a group keeps its seven-field encoding, byte
        for byte: the group is appended only when it is set."""
        txn = Request("P1")
        record = UpdateRecord(
            ts=Timestamp(3, 1), txid=7, transaction=txn,
            update=txn.decide(AirlineState(("a",), ())).update, origin=1,
            real_time=2.5, seen_txids=frozenset({5, 2}),
        )
        assert wire.encode(record) == (
            '{"%ur":[{"%ts":[3,1]},7,{"%tx":["REQUEST",["P1"]]},'
            '{"%up":["request",["P1"]]},1,2.5,{"%rs":[2,2,5,5]}]}'
        )
        assert wire.encode(dataclasses.replace(record, group="f1")) == (
            '{"%ur":[{"%ts":[3,1]},7,{"%tx":["REQUEST",["P1"]]},'
            '{"%up":["request",["P1"]]},1,2.5,{"%rs":[2,2,5,5]},"f1"]}'
        )

    def test_identity_update_stays_singleton(self):
        record = UpdateRecord(
            Timestamp(1, 0), 0, MoveUp(1), IDENTITY, 0, 0.0, frozenset()
        )
        assert wire.decode(wire.encode(record)).update is IDENTITY

    def test_sync_pull_without_digest(self):
        payload = ("sync_pull", 0, 2, None)
        assert wire.decode(wire.encode(payload)) == payload

    def test_list_vs_tuple_distinction_survives(self):
        assert wire.decode(wire.encode([1, (2, 3)])) == [1, (2, 3)]
        assert wire.decode(wire.encode((1, [2]))) == (1, [2])


@st.composite
def canonical_bodies(draw):
    """A run-list body built canonical: each run starts two or more past
    the previous run's end."""
    body, at = [], draw(st.integers(-50, 10**12))
    for length, gap in draw(st.lists(
        st.tuples(st.integers(1, 50), st.integers(2, 10**6)), max_size=6
    )):
        body += [at, at + length - 1]
        at += length - 1 + gap
    return body


def set_text(body):
    return '{"%rs":[' + ",".join(map(str, body)) + "]}"


SEEN_PROBE = UpdateRecord(
    Timestamp(1, 0), 0, MoveUp(1), IDENTITY, 0, 0.0, frozenset()
)


def arrival_views(program):
    """Every seen-set a log over live txids hands out while it runs
    ``program``: inserts in arrival order, and truncations, which leave
    the later ones with holes in their origins' sequences."""
    log, views = SystemLog(), []
    for step in program:
        if step[0] == "insert":
            _, node_id, seq = step
            txid = live_txid(node_id, 0, seq)
            log.insert(dataclasses.replace(
                SEEN_PROBE, txid=txid, ts=Timestamp(seq + 1, node_id),
            ))
        else:
            log.truncate(int(step[1] * len(log)))
        views.append(log.txids)
    return views


class TestSetEncoding:
    """One canonical encoding for every set of ints: maximal runs of
    consecutive ints, as a flat ``[lo, hi, lo, hi, ...]`` list."""

    @given(int_sets)
    def test_decode_inverts_encode(self, members):
        decoded = wire.decode(wire.encode(members))
        assert type(decoded) is RunSet
        assert decoded == members and members == decoded

    @given(canonical_bodies())
    def test_encode_inverts_decode(self, body):
        assert wire.encode(wire.decode(set_text(body))) == set_text(body)

    @settings(max_examples=300)
    @given(st.lists(st.integers(-3, 12), max_size=8))
    def test_any_accepted_body_is_canonical(self, body):
        """A body is either rejected or is the one encoding of its set."""
        try:
            members = wire.decode(set_text(body))
        except ValueError:
            return
        assert wire.encode(members) == set_text(body)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(
                st.just("insert"), st.integers(0, 3), st.integers(0, 60)
            ),
            st.tuples(st.just("truncate"), st.floats(0, 1)),
        ),
        max_size=40,
    ))
    def test_views_with_holes_encode_as_their_frozenset(self, program):
        for view in arrival_views(program):
            assert type(view) is RunSet
            assert wire.encode(view) == wire.encode(frozenset(view))

    def test_partial_replication_views_encode_as_their_frozenset(self):
        cluster = ShardCluster(
            {"f1": AirlineState(), "f2": AirlineState()},
            ClusterConfig(n_nodes=3, placement={
                0: frozenset({"f1"}), 1: frozenset({"f1", "f2"}),
                2: frozenset({"f2"}),
            }),
        )
        rng = random.Random(5)
        for i in range(30):
            cluster.route_submit(
                rng.choice(("f1", "f2")), Request(f"P{i}"), rng, at=0.1 * i
            )
        cluster.run(until=10.0)
        cluster.quiesce()
        views = [r.seen_txids for r in cluster.records.values()]
        assert all(type(view) is RunSet for view in views)
        # each group numbers its own txids: a view names its group's only.
        for record in cluster.records.values():
            assert {
                cluster.records[t].group for t in record.seen_txids
            } <= {record.group}
        for view in views:
            assert wire.encode(view) == wire.encode(frozenset(view))

    def test_three_sequences_encode_as_three_runs(self):
        seen = frozenset(
            [live_txid(0, 0, seq) for seq in range(120)]
            + [live_txid(1, 0, seq) for seq in range(45)]
            + [live_txid(1, 1, seq) for seq in range(7)]
        )
        runs = wire._enc(seen)["%rs"]
        assert runs == [
            live_txid(0, 0, 0), live_txid(0, 0, 119),
            live_txid(1, 0, 0), live_txid(1, 0, 44),
            live_txid(1, 1, 0), live_txid(1, 1, 6),
        ]

    def test_simulator_txids_are_one_run(self):
        assert wire.encode(frozenset(range(500))) == '{"%rs":[0,499]}'

    @pytest.mark.parametrize("members", [
        frozenset({"a"}), frozenset({1.5}), frozenset({True, 5}),
        frozenset({1, 2.0, 3}), frozenset({1, "a"}), frozenset({None}),
    ])
    def test_a_non_int_member_is_loud(self, members):
        with pytest.raises(TypeError):
            wire.encode(members)


HOSTILE_SETS = {
    "odd-length": "[1,2,3]",
    "not-a-list": "{}",
    "float-bound": "[1.0,2]",
    "bool-bound": "[1,true]",
    "str-bound": '["1",2]',
    "null-bound": "[null,2]",
    "nested-bound": "[[1],2]",
    "empty-run": "[3,1]",
    "unsorted": "[5,6,1,2]",
    "overlapping": "[1,5,3,8]",
    "adjacent": "[1,2,3,4]",
    "repeated": "[1,2,1,2]",
    "huge": "[0,1000000000000]",
    "just-over-the-cap": f"[0,{wire.MAX_SET}]",
    "over-the-cap-in-sum": f"[0,{wire.MAX_SET // 2},"
                           f"{wire.MAX_SET},{2 * wire.MAX_SET}]",
}


class TestHostileSets:
    """The set decoder checks the whole body before it builds a set."""

    @pytest.mark.parametrize(
        "body", list(HOSTILE_SETS.values()), ids=list(HOSTILE_SETS)
    )
    def test_rejected(self, body):
        with pytest.raises(ValueError):
            wire.decode('{"%rs":' + body + "}")

    def test_an_enormous_run_is_rejected_before_anything_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                wire.decode('{"%rs":[0,1000000000000]}')
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_counted_as_a_rejected_frame_by_the_transport(self):
        record = dataclasses.replace(SEEN_PROBE, seen_txids=frozenset({4}))
        text = wire.encode((MSG, 0, record))
        hostile = text.replace('{"%rs":[4,4]}', '{"%rs":[0,1000000000000]}')
        assert hostile != text
        assert_rejected_then_served(wire.frame_from_text(hostile))


def at_cap_sets(count):
    """``count`` distinct sets of ``MAX_SET`` members, a few dozen bytes
    each; alone, each is a legal (if enormous) payload."""
    return [
        '{"%rs":[' + f"{i},{i + wire.MAX_SET - 1}" + "]}"
        for i in range(count)
    ]


def at_cap_records():
    """A batch frame of three records whose seen-sets are at the cap."""
    record = dataclasses.replace(SEEN_PROBE, seen_txids=frozenset({4}))
    texts = [
        wire.encode((MSG, 0, dataclasses.replace(record, txid=i)))
        .replace('{"%rs":[4,4]}', body)
        for i, body in enumerate(at_cap_sets(3))
    ]
    return '{"%b":[' + ",".join(texts) + "]}"


HALF = wire.MAX_SET // 2 + 1
AT_CAP = {
    "tuple-of-at-cap-sets": '{"%t":[' + ",".join(at_cap_sets(40)) + "]}",
    "batch-of-at-cap-sets": '{"%b":[' + ",".join(at_cap_sets(40)) + "]}",
    "records-in-one-batch": at_cap_records(),
    "two-halves": '{"%t":[{"%rs":[0,' + str(HALF - 1) + ']},{"%rs":['
                  + f"{2 * HALF},{3 * HALF - 1}" + "]}]}",
}
#: one set just over the cap, last behind many sets at the cap.
OVER_THE_CAP = '{"%rs":[0,' + str(wire.MAX_SET) + "]}"
OVER_CAP = {
    "tuple-ending-over-the-cap":
        '{"%t":[' + ",".join(at_cap_sets(39) + [OVER_THE_CAP]) + "]}",
    "batch-ending-over-the-cap":
        '{"%b":[' + ",".join(at_cap_sets(39) + [OVER_THE_CAP]) + "]}",
}


class TestSetBudget:
    """``MAX_SET`` caps the members of each wire set.  A decoded set
    costs O(runs), not O(members), so a short frame of many at-cap sets
    decodes in memory the size of its bytes, and a set over the cap is
    rejected before it is built."""

    @pytest.mark.parametrize("text", list(AT_CAP.values()), ids=list(AT_CAP))
    def test_decoded_in_frame_sized_memory(self, text):
        assert len(text) < 2048
        tracemalloc.start()
        try:
            payload = wire.decode(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        assert wire.encode(payload) == text

    @pytest.mark.parametrize(
        "text", list(OVER_CAP.values()), ids=list(OVER_CAP)
    )
    def test_rejected_before_the_set_over_the_cap_is_built(self, text):
        assert len(text) < 2048
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                wire.decode(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_each_payload_gets_its_own_budget(self):
        """Many payloads on one stream, their sets under the cap, all
        decode."""
        size = wire.MAX_SET // 4
        payload = (frozenset(range(size)), frozenset(range(1, size)))
        frames = wire.encode_frame(payload) * 3
        assert wire.split_frames(frames) == [payload] * 3

    def test_counted_as_a_rejected_frame_by_the_transport(self):
        text = OVER_CAP["batch-ending-over-the-cap"]
        assert_rejected_then_served(wire.frame_from_text(text))


@pytest.fixture(scope="module")
def long_history():
    """The records of a steady 2,000-transaction airline run."""
    records = steady_airline_history(2000)[1]
    assert len(records) == 2000
    return records


def live_log(length):
    """``length`` records of a 3-node live log, each having seen every
    record before it: its seen-set is a prefix of each node's txids."""
    records = []
    for i in range(length):
        bounds = []
        for node_id in range(3):
            issued = (i - node_id + 2) // 3  # records of node_id before i
            if issued:
                bounds += (live_txid(node_id, 0, 0),
                           live_txid(node_id, 0, issued - 1))
        records.append(dataclasses.replace(
            SEEN_PROBE, txid=live_txid(i % 3, 0, i // 3),
            ts=Timestamp(i + 1, i % 3), origin=i % 3,
            seen_txids=RunSet(tuple(bounds)),
        ))
    return tuple(records)


class TestCatchUpPayloads:
    """Payloads of whole-log length decode: their seen-sets stand for
    millions of txids together, but each costs its runs."""

    def test_a_delta_of_most_of_a_long_log(self, long_history):
        items = tuple((r.txid, r) for r in long_history[-1900:])
        payload = (GOSSIP_DELTA, 7, items, ())
        text = wire.encode(payload)
        decoded = wire.decode(text)
        assert decoded == payload and wire.encode(decoded) == text
        assert all(type(r.seen_txids) is RunSet for _, r in decoded[2])

    def test_a_whole_log_of_10000_records(self):
        log = live_log(10000)
        assert sum(len(r.seen_txids) for r in log) > 10 * wire.MAX_SET
        text = wire.encode(log)
        decoded = wire.decode(text)
        assert decoded == log and wire.encode(decoded) == text


def run_log(category, seed):
    """The records of one generated ``category`` run on a 3-node cluster."""
    spec = WorkloadSpec(
        name=f"wire-{category}", category=category, seed=seed,
        duration=6.0, rate=3.0, n_nodes=3,
    )
    cluster = ShardCluster(
        app_entry(category).initial_state,
        ClusterConfig(n_nodes=spec.n_nodes, seed=seed),
    )
    for event in generate_stream(spec):
        cluster.submit(event.node, event.transaction, at=event.time)
    cluster.run(until=spec.duration)
    cluster.quiesce()
    return tuple(cluster.records.values())


class TestEveryRegisteredApp:
    """The decode tables are derived from ``apps.registry``, so any
    registered app's records round-trip — parametrised by category so a
    codec regression names the application."""

    @pytest.mark.parametrize("category", APP_NAMES)
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_generated_run_roundtrips(self, category, seed):
        records = run_log(category, seed)
        assert records
        for record in records:
            assert wire.decode(wire.encode(record)) == record

    def test_banking_log_survives_dump_and_load(self, tmp_path):
        records = run_log("banking", 3)
        path = str(tmp_path / "records-0.jsonl")
        assert dump_records(path, records) == len(records)
        assert load_records(path) == tuple(
            sorted(records, key=lambda r: r.ts)
        )

    def test_every_family_decodes_to_its_registered_class(self):
        for app in APP_NAMES:
            entry = app_entry(app)
            for cls in entry.transactions:
                assert wire._TRANSACTIONS[cls.name] is cls
            for cls in entry.updates:
                assert wire._UPDATES[cls.name] is cls


class TestFraming:
    @given(st.lists(st.tuples(st.integers(), persons), max_size=5))
    def test_frames_roundtrip_under_any_chunking(self, payloads):
        stream = b"".join(wire.encode_frame(p) for p in payloads)
        # worst-case chunking: one byte at a time.
        splitter = wire.FrameSplitter()
        out = []
        for i in range(len(stream)):
            out.extend(splitter.feed(stream[i:i + 1]))
        assert out == payloads

    def test_split_frames_rejects_trailing_garbage(self):
        data = wire.encode_frame(("x",)) + b"\x00\x00"
        with pytest.raises(ValueError):
            wire.split_frames(data)

    def test_unknown_type_is_loud(self):
        with pytest.raises(TypeError):
            wire.encode(object())

    def test_unknown_family_is_loud(self):
        with pytest.raises(ValueError):
            wire.decode('{"%tx":["NO_SUCH",[]]}')


class TestDictCodec:
    def test_roundtrips_to_equal_dict(self):
        value = {"frames_in": 3, "nested": (1, {"deep": [2]})}
        assert wire.decode(wire.encode(value)) == value

    def test_empty_dict(self):
        assert wire.decode(wire.encode({})) == {}

    def test_key_order_is_canonical(self):
        assert wire.encode({"b": 1, "a": 2}) == wire.encode({"a": 2, "b": 1})

    def test_non_str_keys_are_loud(self):
        with pytest.raises(TypeError):
            wire.encode({1: "x"})


class TestBatchFrames:
    payloads = (
        ("msg", 0, ("gossip_syn", 1, None, None)),
        ("req", 7, "get", ()),
        ("msg", 2, ("sync_pull", 0, 2, None)),
    )

    def test_splice_equals_encoding_the_batch(self):
        """batch_frame_from_texts pays the codec once per payload but
        must stay byte-identical to encoding the Batch wholesale."""
        texts = [wire.encode(p) for p in self.payloads]
        assert wire.batch_frame_from_texts(texts) == wire.encode_frame(
            wire.Batch(self.payloads)
        )

    def test_frame_from_text_equals_encode_frame(self):
        payload = ("msg", 1, ("items", (1, 2)))
        assert wire.frame_from_text(wire.encode(payload)) == \
            wire.encode_frame(payload)

    def test_batch_roundtrips_as_batch(self):
        batch = wire.decode(wire.encode(wire.Batch(self.payloads)))
        assert isinstance(batch, wire.Batch)
        assert tuple(batch) == self.payloads

    @given(st.lists(st.tuples(st.integers(), persons), min_size=1,
                    max_size=4))
    def test_mixed_stream_expands_in_order_byte_at_a_time(self, extra):
        """A stream interleaving legacy single frames and batch frames,
        fed one byte at a time, expands to the payloads in send order."""
        legacy = ("single", 0)
        stream = (
            wire.encode_frame(legacy)
            + wire.batch_frame_from_texts(
                [wire.encode(p) for p in self.payloads]
            )
            + b"".join(wire.encode_frame(p) for p in extra)
        )
        splitter = wire.FrameSplitter()
        out = []
        for i in range(len(stream)):
            out.extend(splitter.feed(stream[i:i + 1]))
        assert out == [legacy, *self.payloads, *extra]

    def test_expand_false_keeps_frame_boundaries(self):
        stream = wire.encode_frame(("a",)) + wire.batch_frame_from_texts(
            [wire.encode(p) for p in self.payloads]
        )
        splitter = wire.FrameSplitter(expand=False)
        out = list(splitter.feed(stream))
        assert out[0] == ("a",)
        assert isinstance(out[1], wire.Batch)
        assert tuple(out[1]) == self.payloads

    def test_torn_final_frame_is_held_back_not_fatal(self):
        """A stream cut mid-frame (the SIGKILL case) yields every
        complete frame and silently retains the torn tail."""
        whole = wire.batch_frame_from_texts(
            [wire.encode(p) for p in self.payloads]
        )
        torn = whole + wire.encode_frame(("tail",))[:-3]
        splitter = wire.FrameSplitter()
        assert list(splitter.feed(torn)) == list(self.payloads)
        # the remainder arrives later: the frame completes normally.
        assert list(splitter.feed(wire.encode_frame(("tail",))[-3:])) == \
            [("tail",)]

    def test_splitter_counts_batches(self):
        stream = wire.encode_frame(("a",)) + wire.batch_frame_from_texts(
            [wire.encode(p) for p in self.payloads]
        )
        splitter = wire.FrameSplitter()
        list(splitter.feed(stream))
        assert splitter.frames == 2
        assert splitter.bytes_in == len(stream)
        assert splitter.batch_frames == 1
        assert splitter.batched_payloads == len(self.payloads)

    def test_oversized_batch_is_loud(self):
        text = wire.encode(("x" * 1024,))
        too_many = [text] * (wire.MAX_FRAME // len(text) + 1)
        with pytest.raises(ValueError):
            wire.batch_frame_from_texts(too_many)
