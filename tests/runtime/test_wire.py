"""Wire codec: every protocol payload roundtrips to an equal object."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.airline.state import AirlineState
from repro.apps.airline.transactions import Cancel, MoveDown, MoveUp, Request
from repro.apps.registry import APP_NAMES, app_entry
from repro.core.update import IDENTITY
from repro.gossip.digest import RangeDigest
from repro.replica import UpdateRecord
from repro.replica.timestamps import Timestamp
from repro.runtime import wire
from repro.runtime.history import dump_records, load_records
from repro.shard.cluster import ClusterConfig, ShardCluster
from repro.workloads import WorkloadSpec, generate_stream

persons = st.text(
    alphabet="abcdefgh", min_size=1, max_size=4
)
transactions = st.one_of(
    persons.map(Request),
    persons.map(Cancel),
    st.integers(1, 5).map(MoveUp),
    st.integers(1, 5).map(MoveDown),
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
        seen_txids=frozenset(draw(st.lists(st.integers(0, 99), max_size=6))),
    )


digests = st.builds(
    RangeDigest,
    width=st.just(32),
    cells=st.lists(
        st.tuples(
            st.none(), st.integers(0, 8), st.integers(1, 9),
            st.integers(0, 2**30),
        ),
        max_size=4,
    ).map(tuple),
    tail=st.one_of(
        st.none(), st.tuples(st.integers(0, 99), st.integers(0, 5))
    ),
)


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

    @given(st.lists(update_records(), min_size=1, max_size=3))
    def test_delta_payload(self, records):
        items = tuple((r.txid, r) for r in records)
        want = (7, 9)
        payload = ("gossip_delta", 3, items, want)
        assert wire.decode(wire.encode(payload)) == payload

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
            '{"%up":["request",["P1"]]},1,2.5,{"%fs":[2,5]}]}'
        )
        assert wire.encode(dataclasses.replace(record, group="f1")) == (
            '{"%ur":[{"%ts":[3,1]},7,{"%tx":["REQUEST",["P1"]]},'
            '{"%up":["request",["P1"]]},1,2.5,{"%fs":[2,5]},"f1"]}'
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
